"""Pinned canonical-JSON bytes for the verifier, the search and the simulator.

Each case renders one report and compares it byte for byte with
``tests/golden/<case>.json``; a ``simulate --csv`` case also compares the
per-round CSV with ``tests/golden/<case>.csv``.  The JSON files were
produced by the code before the outcome table went in, the CSV case by
the code before the single simulation pass; a refactor or optimisation
must reproduce them exactly.  After an intended change of output,
rewrite them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sealedbid.cli import dispatch
from sealedbid.core import PaymentRule, Seeded
from sealedbid.reporting import canonical_json
from sealedbid.simulate import ExperimentConfig, Shade, Truthful, compare_rules
from sealedbid.verify import dominance_sweep

GOLDEN = Path(__file__).parent / "golden"

INSTANCES = {
    "four": {"valuations": [5, 3, 7, 2], "bids": [4, 3, 6, 2]},
    "tied": {"valuations": [4, 4, 1], "bids": [4, 4, 0]},
}
SIM_CONFIG = {
    "n_bidders": 3, "n_rounds": 300, "value_low": 0, "value_high": 7,
    "rule": "first-price", "policy": {"kind": "seeded", "seed": 5}, "seed": 11,
}
CSV_SIM_CONFIG = {
    "n_bidders": 3, "n_rounds": 2000, "value_low": 0, "value_high": 7,
    "rule": "first-price", "strategy": {"kind": "shade", "numerator": 3, "denominator": 4},
    "policy": {"kind": "seeded", "seed": 13}, "seed": 29,
}
CSV_CASES = {"simulate-csv-first-price-shade3-4-seeded"}


def _cli_cases():
    cases = {}
    for rule in ("second-price", "first-price"):
        for n, ticks in ((2, 4), (3, 3), (4, 2)):
            base = ["dominance", "--n", str(n), "--ticks", str(ticks), "--rule", rule]
            stem = f"dominance-{rule}-n{n}-t{ticks}"
            cases[stem] = base
            cases[f"{stem}-seeded7"] = base + ["--policies", "first-index,seeded", "--seed", "7"]
            cases[f"{stem}-no-adversarial"] = base + ["--no-adversarial"]
        cases[f"falsify-{rule}-n3-t3"] = ["falsify", "--rule", rule, "--n-max", "3", "--ticks", "3"]
        for name in INSTANCES:
            cases[f"check-{rule}-{name}-critical"] = ["check", f"{{{name}}}", "--rule", rule]
            cases[f"check-{rule}-{name}-grid"] = [
                "check", f"{{{name}}}", "--rule", rule, "--deviations", "grid"]
    cases["simulate-first-price-seeded"] = ["simulate", "{sim}"]
    for case in CSV_CASES:
        cases[case] = ["simulate", "{csvsim}", "--csv", "{csv}"]
    return cases


CLI_CASES = _cli_cases()


def _run_cli(argv, workdir: Path) -> str:
    """Stdout of one CLI case; a ``{csv}`` argument is ``workdir/rounds.csv``."""
    paths = {"csv": str(workdir / "rounds.csv")}
    for name, doc in dict(INSTANCES, sim=SIM_CONFIG, csvsim=CSV_SIM_CONFIG).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in argv] + ["--format", "json"]
    out = io.StringIO()
    with redirect_stdout(out):
        code = dispatch(argv)
    assert code in (0, 1), f"{argv} exited {code}"
    return out.getvalue()


def _sim_config(**overrides) -> ExperimentConfig:
    fields = dict(
        n_bidders=3, n_rounds=300, value_low=0, value_high=9,
        rule=PaymentRule.SECOND_PRICE, strategy=Truthful(), policy=Seeded(3), seed=21,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


API_CASES = {
    "sweep-second-price-n3-t3-critical":
        lambda: dominance_sweep(3, 3, deviations="critical").to_doc(),
    "sweep-first-price-n3-t3-critical":
        lambda: dominance_sweep(
            3, 3, rule=PaymentRule.FIRST_PRICE, deviations="critical").to_doc(),
    "compare-rules-first-vs-second-shaded":
        lambda: compare_rules(
            _sim_config(rule=PaymentRule.FIRST_PRICE, strategy=Shade(1, 2)),
            _sim_config(),
        ).to_dict(),
}


def render(case: str, workdir: Path) -> str:
    if case in CLI_CASES:
        return _run_cli(CLI_CASES[case], workdir)
    return canonical_json(API_CASES[case]())


@pytest.mark.parametrize("case", sorted(CLI_CASES) + sorted(API_CASES))
def test_report_bytes_match_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert render(case, tmp_path) == expected


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_bytes_match_golden(case, tmp_path):
    render(case, tmp_path)
    assert (tmp_path / "rounds.csv").read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


def test_every_golden_file_has_a_case():
    pinned = {path.stem for path in GOLDEN.glob("*.json")}
    assert pinned == set(CLI_CASES) | set(API_CASES)
    assert {path.stem for path in GOLDEN.glob("*.csv")} == CSV_CASES


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CLI_CASES) + sorted(API_CASES):
            text = render(name, Path(scratch))
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
            if name in CSV_CASES:
                (GOLDEN / f"{name}.csv").write_bytes((Path(scratch) / "rounds.csv").read_bytes())
    written = len(CLI_CASES) + len(API_CASES) + len(CSV_CASES)
    sys.stdout.write(f"wrote {written} golden files to {GOLDEN}\n")
