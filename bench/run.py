"""Benchmark of the `sealedbid` CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

With `--trace 0` it starts the real CLI (`python -m sealedbid`) as a fresh
process again and again for `--seconds`, one child at a time, and reports
the medians of the end-to-end metrics.  Before each invocation it times a
fresh interpreter that only imports `sealedbid.cli` and builds its parser
(`setup_s`).  With `--trace 1` it does the same and then runs the workload
once more in-process under the tracer (see `tracer.py`), and reports the
per-layer metrics instead.

Host speed.  On a small shared host the CPU speed a process gets drifts by
a third or more within seconds and from minute to minute, and CPU time
drifts with wall time, so raw timings of the same code spread wider than
any useful regression bound.  The benchmark therefore brackets every
measurement cycle (set-up probes plus one invocation) with reference
samples: a fixed pure-Python loop run in the benchmark's own process.
Each time in a cycle is multiplied by `REFERENCE_S` over the mean of the
four samples nearest the cycle, raised to `HOST_ELASTICITY`, so the
reported times read as seconds at the nominal speed at which one reference
sample takes `REFERENCE_S`.  A slower program still reads slower; a slower
host reads about the same.  The raw medians are printed too, on the
human-readable lines.

Every invocation's exit code and output go through the output gate in
`workloads.py`; an invocation that fails it counts in `failed`.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Without `src/sealedbid` in the checkout it exits 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import SealedbidProbe, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_INVOCATIONS = 3
SETUP_PROBES_PER_INVOCATION = 2
# The reference sample's work, and its time at the nominal host speed (about
# its time on a quiet 2-vCPU 2.1 GHz Xeon host).
REFERENCE_ITERATIONS = 400_000
REFERENCE_S = 0.25
# How much of a change in the reference sample's time the program's times
# follow: on a shared 2-vCPU host the workloads' times moved with the
# reference's as its power 0.6-0.9, the reference loop being the more
# sensitive to the host's slow phases.  Scaling by the full ratio would
# over-correct.
HOST_ELASTICITY = 0.8
CHILD_TIMEOUT_S = 60
SETUP_CODE = "import sealedbid.cli; sealedbid.cli.build_parser()"


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: bytes


class Spawner:
    """Runs children through `spawner.py`, one at a time, and reports each
    child's exit code, wall time, CPU time and peak RSS."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # A fixed hash seed keeps the children's dict and set layouts, and
        # so their timings, the same from run to run.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=workdir, text=True,
        )

    def run(self, argv: list[str]) -> Child:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        self.proc.stdin.write(json.dumps({
            "argv": argv, "stdout": str(out_path), "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        result = json.loads(reply)
        if result["code"] != 0:
            sys.stderr.write(err_path.read_text(encoding="utf-8", errors="replace"))
        return Child(
            code=result["code"],
            wall_s=result["wall_s"],
            cpu_s=result["cpu_s"],
            rss_mib=result["rss_kib"] / 1024,
            stdout=out_path.read_bytes(),
        )

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc):
        self.close()


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference_step(table: dict, i: int, state: int) -> int:
    key = (i % 97, i % 89)
    item = _Item(key, i * i % 7)
    table[key] = table.get(key, 0) + item.value
    return (state ^ (state >> 29)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF


def reference_sample() -> float:
    """Seconds taken by a fixed pure-Python loop of the kinds of work the
    program does (calls, small objects, tuples, dicts, small and 64-bit
    integers): a host-speed marker."""
    start = time.perf_counter()
    table: dict = {}
    state = 1
    for i in range(REFERENCE_ITERATIONS):
        state = _reference_step(table, i, state)
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """Attempt and failure counts of one benchmark run."""

    def __init__(self, seed: int, digests: dict):
        self.seed = seed
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"error: {label}: {problem}", file=sys.stderr)

    def check(self, label: str, inv, code: int, output: tuple, expected: "tuple | None"):
        """Gate one invocation's ``(stdout, csv)``; when ``expected`` is
        given, the output must also equal it byte for byte."""
        problems = workloads.check_output(inv, self.seed, code, *output, self.digests)
        if expected is not None and output != expected:
            problems.append("output differs from the first untraced invocation's")
        self.record(label, problems)


def measure(run: Run, inv, seconds: float, spawner: Spawner) -> dict:
    """Time fresh CLI processes for ``seconds``: each cycle's set-up probes
    and invocation, between reference samples.  Returns the samples, raw
    and scaled to the nominal host speed."""
    python = sys.executable
    workload_argv = [python, "-m", "sealedbid", *inv.argv]
    setup_argv = [python, "-c", SETUP_CODE]
    inv.write_inputs()
    # Untimed first start, so that byte-compiling the package is not timed.
    warm = spawner.run(setup_argv)
    run.record("warm-up set-up", [] if warm.code == 0 else [f"exit code {warm.code}"])

    cycles: list[tuple[list[float], Child]] = []
    refs = [reference_sample()]
    first = None
    start = time.perf_counter()
    while len(cycles) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        setups = []
        for _ in range(SETUP_PROBES_PER_INVOCATION):
            probe = spawner.run(setup_argv)
            run.record("set-up", [] if probe.code == 0 else [f"exit code {probe.code}"])
            setups.append(probe.wall_s)
        child = spawner.run(workload_argv)
        refs.append(reference_sample())
        output = (child.stdout, inv.read_csv())
        run.check(f"invocation {len(cycles) + 1}", inv, child.code, output, first)
        first = first or output
        cycles.append((setups, child))

    raw: dict[str, list[float]] = {name: [] for name in
                                   ("wall_s", "items_per_s", "cpu_s", "setup_s", "peak_rss_mib")}
    scaled: dict[str, list[float]] = {name: [] for name in raw}
    for i, (setups, child) in enumerate(cycles):
        # refs[i] and refs[i + 1] bracket cycle i; one more on each side
        # averages out speed changes shorter than a cycle.
        scale = (REFERENCE_S / statistics.mean(refs[max(0, i - 1):i + 3])) ** HOST_ELASTICITY
        for factor, out in ((1.0, raw), (scale, scaled)):
            out["wall_s"].append(child.wall_s * factor)
            out["items_per_s"].append(inv.items / (child.wall_s * factor))
            out["cpu_s"].append(child.cpu_s * factor)
            out["setup_s"].extend(wall * factor for wall in setups)
            out["peak_rss_mib"].append(child.rss_mib)
    return {"raw": raw, "scaled": scaled, "reference_s": refs, "output": first}


def traced_run(run: Run, inv, untraced: dict) -> dict:
    """Run the workload once in-process under the tracer; its stdout (and
    CSV) must be byte-identical to the untraced run's."""
    import sealedbid

    if Path(sealedbid.__file__).resolve().parent != SRC / "sealedbid":
        raise SystemExit(f"imported sealedbid from {sealedbid.__file__}, not from {SRC}")
    inv.write_inputs()
    buffer = io.StringIO()
    with Tracer() as tracer:
        probe = SealedbidProbe(tracer)
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            code = probe.dispatch(list(inv.argv))
            wall = time.perf_counter() - start
    csv_bytes = inv.read_csv()
    run.check("traced run", inv, code, (buffer.getvalue().encode("utf-8"), csv_bytes),
              untraced["output"])
    metrics = probe.metrics(len(csv_bytes) if csv_bytes is not None else 0)
    metrics["trace.overhead_s"] = (wall - statistics.median(untraced["raw"]["wall_s"]), "s")
    return {"metrics": metrics, "spans": tracer.to_doc(), "wall_s": wall}


def commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else text[5:]
    return text


def source_lines() -> int:
    return sum(
        path.read_bytes().count(b"\n") for path in sorted((SRC / "sealedbid").glob("*.py"))
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sealedbid" / "cli.py").is_file():
        print(f"error: no sealedbid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    try:
        run = Run(args.seed, workloads.load_digests())
        inv = workloads.build(args.workload, args.seed, workdir)
        with Spawner(workdir) as spawner:
            untraced = measure(run, inv, args.seconds, spawner)
        traced = None
        if args.trace:
            traced = traced_run(run, workloads.build(args.workload, args.seed, workdir / "traced"),
                                untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    units = {"wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mib": "MiB"}
    end_to_end = {}
    print(f"workload {args.workload} seed {args.seed}: sealedbid {' '.join(inv.argv)}")
    print("  scaled to the nominal host speed (raw median in brackets):")
    for name, unit in units.items():
        samples = untraced["scaled"][name]
        q1, median, q3 = quartiles(samples)
        end_to_end[name] = (median, unit)
        label = name
        if name == "items_per_s":
            label = f"{name} ({inv.item_unit}_per_s, {inv.items} {inv.item_unit})"
        print(f"  {label:<40} {median:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}, "
              f"n={len(samples)}; raw {statistics.median(untraced['raw'][name]):.6g}]")
    print(f"  {'error_rate':<40} {run.failed}/{run.attempted} failed/attempted")
    context = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "reference_sample_s": statistics.median(untraced["reference_s"]),
        "reference_samples": len(untraced["reference_s"]),
        "src_lines": source_lines(),
    }
    print(f"context {json.dumps(context, sort_keys=True)}")

    metrics = end_to_end
    if traced is not None:
        metrics = traced["metrics"]
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        doc = dict(traced["spans"], workload=args.workload, seed=args.seed,
                   traced_wall_s=traced["wall_s"], context=context,
                   metrics={name: value for name, (value, _) in metrics.items()})
        (out_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
