"""The benchmark's four workloads, their generated inputs and their output gate.

Each workload is one `sealedbid` CLI invocation.  Its inputs (the `--seed`
flag and, for `simulate`, the config document) are generated from the
benchmark's workload seed, so the same seed always gives the same inputs
and the program only ever sees the generated files and flags.

The output gate checks, for every invocation, the exit code, the sha256 of
stdout (and of the CSV) against digests pinned in `digests.json` for the
pinned seeds, and invariants that hold for any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sweep", "falsify", "simulate", "simulate-csv")

# Four tie-break policies plus the adversarial pairing: rows per deviation.
PAIRINGS = 5

# Sizes are chosen so that one invocation takes 1-2 s: short invocations
# interleave finely with the host-speed reference samples (see `run.py`).

# sweep: `dominance --n 4 --ticks 5`, second-price, full deviation grid.
# It is the `verify` fold over `core.outcome`: 155,520 rows and far more
# outcome calls than distinct (profile, policy) pairs, so an outcome table
# acts here.  It never samples, so `mix64` and `simulate` must not move on it.
SWEEP_N, SWEEP_TICKS = 4, 5

# falsify: `falsify --rule second-price --n-max 3 --ticks 8`.  It exhausts
# all 105,705 rows and finds nothing, through the separate search
# enumerator (deviation-major order, early-exit checks, no tally).  The `core` work is
# the sweep's, so an enumerator merged for the sweep's benefit that slows
# the search shows up here.
FALSIFY_N_MAX, FALSIFY_TICKS = 3, 8

# simulate: N=4, values 0..10^6, second-price, truthful, first-index.
# Sampling (`mix64`) dominates and every profile is nearly unique, so
# sampling work acts here and an outcome table cannot.
SIMULATE_CONFIG = {
    "n_bidders": 4,
    "n_rounds": 100_000,
    "value_low": 0,
    "value_high": 10**6,
    "rule": "second-price",
    "strategy": {"kind": "truthful"},
    "policy": {"kind": "first-index"},
}

# simulate-csv: N=3, values 0..7, first-price, shade 3/4, seeded tie-break,
# with `--csv`.  It runs the round loop twice (report pass, CSV pass) and
# writes per-round rows; the narrow value range and the seeded policy put
# a `hash_text` call on every round, tie or not.
SIMULATE_CSV_CONFIG = {
    "n_bidders": 3,
    "n_rounds": 50_000,
    "value_low": 0,
    "value_high": 7,
    "rule": "first-price",
    "strategy": {"kind": "shade", "numerator": 3, "denominator": 4},
    "policy": {"kind": "seeded"},
}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sweep_rows(n_bidders: int, ticks: int) -> int:
    """Closed-form row count of a full-grid sweep over N bidders and ticks
    0..T: opposing bids, valuation, bidder, deviation, pairing."""
    t = ticks + 1
    return t ** (n_bidders - 1) * t * n_bidders * t * PAIRINGS


def falsify_rows(n_max: int, ticks: int) -> int:
    """Rows a counterexample search exhausts when it finds nothing."""
    return sum(sweep_rows(n, ticks) for n in range(2, n_max + 1))


@dataclass(frozen=True)
class Invocation:
    """One generated CLI invocation of a workload, with its files placed in
    one work directory."""

    workload: str
    argv: tuple[str, ...]
    items: int  # rows (sweep, falsify) or rounds (simulate, simulate-csv)
    item_unit: str = "rows"
    config: "dict | None" = None
    config_path: "Path | None" = None
    csv_path: "Path | None" = None

    def write_inputs(self):
        if self.config_path is not None:
            self.config_path.parent.mkdir(parents=True, exist_ok=True)
            self.config_path.write_text(
                json.dumps(self.config, sort_keys=True), encoding="utf-8"
            )

    def read_csv(self) -> "bytes | None":
        if self.csv_path is None or not self.csv_path.exists():
            return None
        return self.csv_path.read_bytes()


def _u64(rng: random.Random) -> int:
    return rng.getrandbits(64)


def build(workload: str, seed: int, workdir: Path) -> Invocation:
    """Generate a workload's inputs from the benchmark's workload seed; the
    config and CSV files live in ``workdir``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep":
        return Invocation(
            workload,
            ("dominance", "--n", str(SWEEP_N), "--ticks", str(SWEEP_TICKS),
             "--seed", str(_u64(rng)), "--format=json"),
            items=sweep_rows(SWEEP_N, SWEEP_TICKS),
        )
    if workload == "falsify":
        return Invocation(
            workload,
            ("falsify", "--rule", "second-price", "--n-max", str(FALSIFY_N_MAX),
             "--ticks", str(FALSIFY_TICKS), "--seed", str(_u64(rng)), "--format=json"),
            items=falsify_rows(FALSIFY_N_MAX, FALSIFY_TICKS),
        )
    config_path = workdir / "config.json"
    if workload == "simulate":
        config = dict(SIMULATE_CONFIG, seed=_u64(rng))
        return Invocation(
            workload,
            ("simulate", str(config_path), "--format=json"),
            items=config["n_rounds"], item_unit="rounds",
            config=config, config_path=config_path,
        )
    if workload == "simulate-csv":
        config = dict(SIMULATE_CSV_CONFIG, seed=_u64(rng))
        config["policy"] = dict(config["policy"], seed=_u64(rng))
        csv_path = workdir / "rounds.csv"
        return Invocation(
            workload,
            ("simulate", str(config_path), "--format=json", "--csv", str(csv_path)),
            items=config["n_rounds"], item_unit="rounds",
            config=config, config_path=config_path, csv_path=csv_path,
        )
    raise ValueError(f"unknown workload {workload!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _invariants(inv: Invocation, stdout: bytes, csv_bytes: "bytes | None") -> list[str]:
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(report, dict):
        return ["stdout is not a JSON object"]
    problems = []
    if inv.workload == "sweep":
        if report.get("verdict") != "pass":
            problems.append(f"verdict {report.get('verdict')!r}, expected 'pass'")
        if report.get("vacuous") is not False:
            problems.append("sweep reported vacuous coverage")
        if report.get("evaluated_count") != inv.items:
            problems.append(
                f"evaluated_count {report.get('evaluated_count')} != closed form {inv.items}"
            )
    elif inv.workload == "falsify":
        if report != {"found": False}:
            problems.append(f"falsify report {report!r}, expected {{'found': False}}")
    else:
        if report.get("rounds") != inv.items:
            problems.append(f"rounds {report.get('rounds')} != n_rounds {inv.items}")
    if inv.workload == "simulate" and report.get("efficiency_rate") != "1/1":
        problems.append(f"efficiency_rate {report.get('efficiency_rate')!r}, expected '1/1'")
    if inv.workload == "simulate-csv":
        if csv_bytes is None:
            return problems + ["no CSV written"]
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8", "replace"))))
        if len(rows) != inv.items + 1:
            problems.append(f"CSV has {len(rows)} lines, expected {inv.items + 1}")
        try:
            revenue = Fraction(sum(int(row[4]) for row in rows[1:]), inv.items)
            reported = Fraction(report.get("mean_revenue"))
        except (ValueError, TypeError, IndexError) as exc:
            problems.append(f"cannot compare CSV prices with mean_revenue: {exc}")
        else:
            if revenue != reported:
                problems.append(f"CSV mean price {revenue} != mean_revenue {reported}")
    return problems


def check_output(
    inv: Invocation,
    seed: int,
    code: int,
    stdout: bytes,
    csv_bytes: "bytes | None",
    digests: dict,
) -> list[str]:
    """Every way this invocation's result is wrong; empty when it is right."""
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    pinned = digests.get(inv.workload, {}).get(str(seed))
    if pinned is not None:
        if sha256(stdout) != pinned["stdout"]:
            problems.append("stdout digest differs from the pinned digest")
        if "csv" in pinned and (csv_bytes is None or sha256(csv_bytes) != pinned["csv"]):
            problems.append("CSV digest differs from the pinned digest")
    return problems + _invariants(inv, stdout, csv_bytes)
