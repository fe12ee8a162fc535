"""In-process tracer that gives the benchmark its per-layer numbers.

The traced run calls `sealedbid.cli.dispatch` in this process after
wrapping each layer's public functions at the names their callers look
them up by (`sealedbid.verify.outcome`, `sealedbid.simulate.mix64`, each
policy class's `select`, ...).  Nothing under `src/` changes; private
helpers such as `verify._evaluate` run inside their caller's span and so
count toward their module's self time.

A sweep makes over a million wrapped calls, so spans are not kept one by
one: they are aggregated in memory per (name, parent name) into a call
count, a total time and the time covered by child spans, and written out
once at the end.  A layer's self time is its total minus its children's.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable

POLICY_KINDS = {
    "FirstIndex": "first-index",
    "LastIndex": "last-index",
    "Seeded": "seeded",
    "ExplicitChoice": "explicit",
}


class Tracer:
    """Wraps callables in aggregated spans and restores them on exit."""

    def __init__(self):
        self.spans: dict[tuple[str, "str | None"], list] = {}
        self.counts: Counter = Counter()
        self._names: list["str | None"] = [None]
        self._child: list[float] = [0.0]
        self._patches: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable, observe: "Callable | None" = None) -> Callable:
        """``fn`` inside a span called ``name``.  ``observe(args, result)``
        runs after the span has ended, so its cost is not charged to it."""
        spans, names, child = self.spans, self._names, self._child

        def traced(*args, **kwargs):
            names.append(name)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                names.pop()
                inner = child.pop()
                child[-1] += elapsed
                key = (name, names[-1])
                record = spans.get(key)
                if record is None:
                    spans[key] = [1, elapsed, inner]
                else:
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += inner
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted under ``name``, without a span."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch(self, owner, attr: str, replacement: Callable):
        """Replace ``owner.attr`` until the tracer exits."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, observe: "Callable | None" = None):
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def restore(self):
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc):
        self.restore()

    def calls(self, name: str) -> int:
        return sum(rec[0] for (span, _), rec in self.spans.items() if span == name)

    def total_s(self, name: str) -> float:
        return sum(rec[1] for (span, _), rec in self.spans.items() if span == name)

    def self_s(self, name: str) -> float:
        return sum(rec[1] - rec[2] for (span, _), rec in self.spans.items() if span == name)

    def to_doc(self) -> dict:
        """The aggregated spans, sorted by parent and name, for writing out."""
        return {
            "spans": [
                {"name": name, "parent": parent, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[1] - rec[2]}
                for (name, parent), rec in sorted(
                    self.spans.items(), key=lambda item: (item[0][1] or "", item[0][0])
                )
            ],
            "counts": dict(self.counts),
        }


class SealedbidProbe:
    """The sealedbid layer boundaries, traced, plus the counts taken at them."""

    def __init__(self, tracer: Tracer):
        from sealedbid import cli, core, simulate, verify

        self.tracer = tracer
        self.outcome_keys: set = set()
        self.hash_ties = 0
        self.json_bytes = 0

        t = tracer
        for owner in (verify, simulate, cli):
            t.span(owner, "outcome", "core.outcome", self._observe_outcome)
        for cls_name, kind in POLICY_KINDS.items():
            t.span(getattr(core, cls_name), "select", f"core.select.{kind}")
        t.span(core, "hash_text", "seeding.hash_text", self._observe_hash)
        t.span(simulate, "mix64", "seeding.mix64")
        t.span(simulate, "sample_valuations", "simulate.sample_valuations")
        for owner in (verify, cli):
            t.span(owner, "check_truthfulness", "verify.check_truthfulness")
        t.patch(verify, "DeviationCheckResult",
                t.counted("verify.rows", verify.DeviationCheckResult))
        t.span(cli, "dominance_sweep", "verify.dominance_sweep")
        t.span(cli, "find_counterexample", "verify.find_counterexample")
        t.span(cli, "run_experiment", "simulate.run_experiment")
        t.span(cli, "write_rounds_csv", "simulate.write_rounds_csv")
        t.span(cli, "build_parser", "cli.build_parser")
        t.span(cli, "canonical_json", "reporting.canonical_json", self._observe_json)
        self.dispatch = t.wrap("cli.dispatch", cli.dispatch)

    def _observe_outcome(self, args, result):
        bids, policy, rule = args
        self.outcome_keys.add((tuple(bids), id(policy), rule))

    def _observe_hash(self, args, result):
        bids = [int(tick) for tick in args[1].split(",")]
        if bids.count(max(bids)) > 1:
            self.hash_ties += 1

    def _observe_json(self, args, result):
        self.json_bytes += len(result.encode("utf-8"))

    def metrics(self, csv_bytes: int) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        t = self.tracer
        out = {}
        calls = t.calls("core.outcome")
        out["core.outcome.calls"] = (calls, "count")
        out["core.outcome.self_s"] = (t.self_s("core.outcome"), "s")
        out["core.outcome.distinct_ratio"] = (
            len(self.outcome_keys) / calls if calls else 0.0, "ratio")
        for kind in POLICY_KINDS.values():
            out[f"core.select.{kind}.calls"] = (t.calls(f"core.select.{kind}"), "count")
            out[f"core.select.{kind}.self_s"] = (t.self_s(f"core.select.{kind}"), "s")
        hashes = t.calls("seeding.hash_text")
        out["seeding.hash_text.calls"] = (hashes, "count")
        out["seeding.hash_text.s"] = (t.total_s("seeding.hash_text"), "s")
        out["seeding.hash_text.tie_ratio"] = (
            self.hash_ties / hashes if hashes else 0.0, "ratio")
        out["seeding.mix64.calls"] = (t.calls("seeding.mix64"), "count")
        out["seeding.mix64.s"] = (t.total_s("seeding.mix64"), "s")
        out["verify.check_truthfulness.calls"] = (
            t.calls("verify.check_truthfulness"), "count")
        for name in ("verify.check_truthfulness", "verify.dominance_sweep",
                     "verify.find_counterexample", "simulate.sample_valuations",
                     "simulate.run_experiment", "simulate.write_rounds_csv"):
            out[f"{name}.self_s"] = (t.self_s(name), "s")
        out["verify.rows"] = (t.counts["verify.rows"], "count")
        out["simulate.rounds_evaluated"] = (t.calls("simulate.sample_valuations"), "count")
        out["simulate.csv_bytes"] = (csv_bytes, "B")
        out["cli.build_parser.s"] = (t.total_s("cli.build_parser"), "s")
        out["cli.dispatch.self_s"] = (t.self_s("cli.dispatch"), "s")
        out["reporting.canonical_json.s"] = (t.total_s("reporting.canonical_json"), "s")
        out["reporting.canonical_json.bytes"] = (self.json_bytes, "B")
        return out
