"""Tests of the benchmark itself: closed-form row counts, the tracer's
clean-up and the output gate.  Run with `python -m pytest bench/tests`."""

import contextlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from sealedbid import cli, core, seeding, simulate, verify
from sealedbid.verify import dominance_sweep
from tracer import SealedbidProbe, Tracer

BENCH = Path(__file__).resolve().parents[1]


def dispatch(argv) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.dispatch(list(argv))
    return code, buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("n_bidders", [2, 3])
@pytest.mark.parametrize("ticks", [0, 1, 3])
def test_closed_form_rows_match_evaluated_count(n_bidders, ticks):
    report = dominance_sweep(n_bidders, ticks)
    assert report.evaluated == workloads.sweep_rows(n_bidders, ticks)


def test_traced_search_counts_the_closed_form_rows():
    with Tracer() as tracer:
        probe = SealedbidProbe(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            code = probe.dispatch(
                ["falsify", "--rule", "second-price", "--n-max", "3", "--ticks", "2"])
    assert code == 0
    assert tracer.counts["verify.rows"] == workloads.falsify_rows(3, 2)


def _namespace_snapshot():
    owners = [cli, core, seeding, simulate, verify,
              core.FirstIndex, core.LastIndex, core.Seeded, core.ExplicitChoice]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_restores_every_wrapped_name():
    before = _namespace_snapshot()
    with Tracer() as tracer:
        probe = SealedbidProbe(tracer)
        assert verify.outcome is not core.outcome
        with contextlib.redirect_stdout(io.StringIO()):
            probe.dispatch(["dominance", "--n", "2", "--ticks", "2"])
    after = _namespace_snapshot()
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        for name, value in names.items():
            assert after[key][name] is value, name


def test_tracer_restores_after_an_error():
    before = _namespace_snapshot()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            SealedbidProbe(tracer)
            raise RuntimeError("boom")
    assert _namespace_snapshot() == before


def test_traced_output_is_byte_identical():
    argv = ["dominance", "--n", "2", "--ticks", "3", "--seed", "9", "--format=json"]
    plain = dispatch(argv)
    with Tracer() as tracer:
        probe = SealedbidProbe(tracer)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = probe.dispatch(argv)
    assert (code, buffer.getvalue().encode("utf-8")) == plain


def _flips(data: bytes):
    for pos in range(len(data)):
        flipped = bytearray(data)
        flipped[pos] ^= 0x01
        yield bytes(flipped)


def test_gate_fails_on_a_single_flipped_stdout_byte():
    inv = workloads.Invocation(
        "sweep", ("dominance", "--n", "2", "--ticks", "2", "--seed", "5", "--format=json"),
        items=workloads.sweep_rows(2, 2))
    code, stdout = dispatch(inv.argv)
    pinned = {"sweep": {"5": {"stdout": workloads.sha256(stdout)}}}
    assert workloads.check_output(inv, 5, code, stdout, None, pinned) == []
    for flipped in _flips(stdout):
        assert workloads.check_output(inv, 5, code, flipped, None, pinned)
    assert workloads.check_output(inv, 5, 1, stdout, None, pinned)


def test_gate_fails_on_a_single_flipped_csv_byte(tmp_path):
    config = dict(workloads.SIMULATE_CSV_CONFIG, n_rounds=40, seed=3)
    config["policy"] = dict(config["policy"], seed=4)
    inv = workloads.Invocation(
        "simulate-csv",
        ("simulate", str(tmp_path / "config.json"), "--format=json",
         "--csv", str(tmp_path / "rounds.csv")),
        items=40, item_unit="rounds", config=config,
        config_path=tmp_path / "config.json", csv_path=tmp_path / "rounds.csv")
    inv.write_inputs()
    code, stdout = dispatch(inv.argv)
    csv_bytes = inv.read_csv()
    pinned = {"simulate-csv": {"8": {"stdout": workloads.sha256(stdout),
                                     "csv": workloads.sha256(csv_bytes)}}}
    assert workloads.check_output(inv, 8, code, stdout, csv_bytes, pinned) == []
    for flipped in _flips(csv_bytes):
        assert workloads.check_output(inv, 8, code, stdout, flipped, pinned)
    # Without a pinned digest the invariants still tie the CSV to the report.
    assert workloads.check_output(inv, 8, code, stdout, csv_bytes[:-2] + b"9\n", {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = workloads.build(workload, 17, tmp_path)
    assert workloads.build(workload, 17, tmp_path) == first
    assert workloads.build(workload, 18, tmp_path) != first


def test_pinned_digests_cover_every_workload():
    digests = workloads.load_digests()
    assert sorted(digests) == sorted(workloads.WORKLOADS)
    assert all(len(seeds) == 2 for seeds in digests.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == b""
