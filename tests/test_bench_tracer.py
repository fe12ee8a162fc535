"""The benchmark's tracer still finds every name it patches.

`bench/tracer.py` wraps layer functions at the names their callers look
them up by (`sealedbid.simulate.mix64`, `sealedbid.cli.run_experiment`,
...).  A refactor that drops or renames one of them breaks
`bench/run.py --trace 1`; this test makes it fail here first.  The tracer
module is loaded from its file and only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from conftest import tiles
from sealedbid import cli, core, simulate, verify
from sealedbid.seeding import mix64

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CONFIG = {
    "n_bidders": 3, "n_rounds": 200, "value_low": 0, "value_high": 7,
    "rule": "first-price", "policy": {"kind": "seeded", "seed": 2}, "seed": 5,
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("sealedbid_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    owners = [cli, core, simulate, verify, core.FirstIndex, core.LastIndex, core.Seeded,
              core.ExplicitChoice]
    return [(owner, dict(vars(owner))) for owner in owners]


def run(dispatch, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    return code, out.getvalue()


def traced_run(argv):
    """Run ``argv`` untraced, then under the tracer.  Returns both (exit
    code, stdout) pairs, the probe, and the namespaces before tracing."""
    expected = run(cli.dispatch, argv)
    before = namespaces()
    tracer_module = load_tracer()
    with tracer_module.Tracer() as tracer:
        probe = tracer_module.SealedbidProbe(tracer)
        traced = run(probe.dispatch, argv)
    return expected, traced, probe, before


def test_traced_simulate_counts_each_round_once_and_restores(tmp_path, monkeypatch):
    sampled = []
    for name in ("sample_valuations", "sample_indices"):
        real = getattr(simulate, name)
        monkeypatch.setattr(simulate, name,
                            lambda config, start, stop, real=real: sampled.append((start, stop))
                            or real(config, start, stop))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    argv = ["simulate", str(config_path), "--csv", str(tmp_path / "rounds.csv"),
            "--format=json"]
    expected, traced, probe, before = traced_run(argv)
    metrics = probe.metrics(csv_bytes=(tmp_path / "rounds.csv").stat().st_size)

    assert traced == expected
    rounds = CONFIG["n_rounds"]
    # Each round is sampled once, as a profile index, in blocks; mix64 runs
    # once per block, for the chain head it starts from: 200 rounds are one.
    # The tracer counts blocks at sample_valuations only, which a tabled run
    # does not call, so its round count reads 0 here.
    half = len(sampled) // 2
    assert sampled[:half] == sampled[half:]  # the untraced run, then the traced one
    assert tiles(sampled[half:], rounds, simulate.SAMPLE_BLOCK)
    assert half == -(-rounds // simulate.SAMPLE_BLOCK)
    assert metrics["simulate.rounds_evaluated"][0] == 0
    assert metrics["seeding.mix64.calls"][0] == 1
    # The 8^3 profiles are tabled: outcome runs once per distinct (truthful)
    # bid profile, and every call the tracer sees is a distinct one.
    profiles = {tuple(mix64(5, r, b) % 8 for b in range(3)) for r in range(rounds)}
    assert metrics["core.outcome.calls"][0] == len(profiles) == 167
    assert metrics["core.outcome.distinct_ratio"][0] == 1.0
    assert_restored(before)


def test_traced_simulate_over_the_table_limit_sees_every_round_and_restores(tmp_path):
    # 65^2 profiles keep no table: each of two sampled blocks is played in
    # lanes, and the seeded policy's select runs, through the traced outcome,
    # on the tied rounds only: those where the two bidders draw one value.
    config = {**CONFIG, "n_bidders": 2, "value_high": 64, "n_rounds": 300}
    assert 65 ** 2 > simulate.PROFILE_TABLE_LIMIT and 300 > simulate.SAMPLE_BLOCK
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["simulate", str(config_path), "--csv", str(tmp_path / "rounds.csv"),
            "--format=json"]
    expected, traced, probe, before = traced_run(argv)
    metrics = probe.metrics(csv_bytes=0)

    assert traced == expected
    tied = sum(mix64(5, r, 0) % 65 == mix64(5, r, 1) % 65 for r in range(config["n_rounds"]))
    assert tied == 10
    assert metrics["core.select.seeded.calls"][0] == tied
    assert metrics["core.outcome.calls"][0] == tied
    assert metrics["seeding.mix64.calls"][0] == 2  # one chain head per sampled block
    assert_restored(before)


def test_traced_dominance_sees_every_outcome_and_restores():
    expected, traced, probe, before = traced_run(["dominance", "--n", "2", "--ticks", "2"])
    metrics = probe.metrics(csv_bytes=0)

    assert traced == expected
    # every profile of {0..2}^2 once per standard policy
    assert metrics["core.outcome.calls"][0] == 3 ** 2 * 4
    assert_restored(before)


def test_traced_search_counts_one_row_record_per_row_and_restores():
    expected, traced, probe, before = traced_run(
        ["falsify", "--rule", "second-price", "--n-max", "3", "--ticks", "2"])
    metrics = probe.metrics(csv_bytes=0)

    assert traced == expected
    # The search finds nothing, so it builds one DeviationCheckResult per row:
    # opposing bids x valuations x bidders x deviations x 5 pairings, per N.
    assert metrics["verify.rows"][0] == 3 * 3 * 2 * 3 * 5 + 3 ** 2 * 3 * 3 * 3 * 5 == 1_485
    # every profile of {0..2}^N once per standard policy, for N = 2 and 3
    assert metrics["core.outcome.calls"][0] == (3 ** 2 + 3 ** 3) * 4
    assert_restored(before)


def assert_restored(before):
    for (owner, names), (_, names_after) in zip(before, namespaces()):
        assert names_after.keys() == names.keys(), owner
        assert all(names_after[name] is value for name, value in names.items()), owner
