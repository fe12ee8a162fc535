"""Command-line front end.

Subcommands: validate, check, classify, dominance, falsify, simulate.
Reports go to stdout (canonical JSON with --format=json, an aligned
table otherwise); diagnostics go to stderr.  The exit code is the
machine-readable verdict:

    0  all checks passed (and, for sweeps, coverage was not vacuous)
    1  a check failed, a counterexample was found, or a sweep was vacuous
    2  invalid input (bad flags, unreadable or invalid documents)
    3  state budget exceeded
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    AuctionInstance,
    BudgetExceededError,
    ExplicitChoice,
    FirstIndex,
    InvalidInstanceError,
    LastIndex,
    PaymentRule,
    Seeded,
    TieBreakPolicy,
    bidder_utility,
    outcome,
    validate,
)
from .reporting import canonical_json, render_table
from .simulate import ExperimentConfig, run_experiment, write_rounds_csv
from .verify import (
    VerificationReport,
    check_instance,
    check_truthfulness,  # noqa: F401  (bench/tracer.py wraps it under this name)
    classify_case,
    deviation_profile,
    dominance_sweep,
    find_counterexample,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3

POLICY_KINDS = ("first-index", "last-index", "seeded", "explicit")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
    except OSError as exc:
        raise InvalidInstanceError([f"cannot read {path}: {exc}"]) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise InvalidInstanceError([f"parse failure in {path}: {exc}"]) from None
    if not isinstance(doc, dict):
        raise InvalidInstanceError([f"top-level JSON object required in {path}"])
    return doc


def load_instance(path: str) -> AuctionInstance:
    """Read, parse, and validate an instance document."""
    instance = AuctionInstance.from_dict(_read_json(path))
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def _parse_policies(text: str, seed: int, n_bidders: int) -> list[TieBreakPolicy]:
    policies: list[TieBreakPolicy] = []
    for name in text.split(","):
        name = name.strip()
        if name == "first-index":
            policies.append(FirstIndex())
        elif name == "last-index":
            policies.append(LastIndex())
        elif name == "seeded":
            policies.append(Seeded(seed))
        elif name == "explicit":
            policies.append(ExplicitChoice.covering(n_bidders))
        else:
            raise ValueError(
                f"unknown policy {name!r}; expected any of {', '.join(POLICY_KINDS)}"
            )
    if not policies:
        raise ValueError("at least one tie-break policy is required")
    return policies


def _single_policy(name: str, seed: int, n_bidders: int) -> TieBreakPolicy:
    policies = _parse_policies(name, seed, n_bidders)
    if len(policies) != 1:
        raise ValueError("exactly one policy expected here")
    return policies[0]


def _verdict_exit(report: VerificationReport) -> int:
    # A vacuous sweep never earns a passing exit code, even if no
    # comparison failed: untested cases are unverified cases.
    if report.passed and not report.coverage.vacuous:
        return EXIT_PASS
    return EXIT_FAIL


def cmd_validate(args) -> tuple[int, dict]:
    try:
        load_instance(args.instance)
    except InvalidInstanceError as exc:
        return EXIT_INVALID, {"valid": False, "violations": exc.violations}
    return EXIT_PASS, {"valid": True, "violations": []}


def cmd_check(args) -> tuple[int, dict]:
    instance = load_instance(args.instance)
    policies = _parse_policies(args.policies, args.seed, instance.n_bidders)
    rule = PaymentRule.from_name(args.rule)
    if args.deviations == "critical":
        deviations = "critical"
    else:
        grid_max = args.grid_max
        if grid_max is None:
            grid_max = max(instance.valuations + instance.bids) + 1
        if not 0 <= args.grid_min <= grid_max:
            raise ValueError(
                f"grid range [{args.grid_min}, {grid_max}] is empty or negative"
            )
        deviations = range(args.grid_min, grid_max + 1)

    report = check_instance(instance, policies, rule, deviations, args.adversarial, args.budget)
    return _verdict_exit(report), report.to_doc()


def cmd_classify(args) -> tuple[int, dict]:
    instance = load_instance(args.instance)
    policy = _single_policy(args.policy, args.seed, instance.n_bidders)
    rule = PaymentRule.from_name(args.rule)
    bids = instance.bids
    deviated = deviation_profile(bids, args.bidder, args.deviation)
    tag = classify_case(bids, deviated, args.bidder, policy)
    original = outcome(bids, policy, rule)
    after = outcome(deviated, policy, rule)
    return EXIT_PASS, {
        "bidder": args.bidder,
        "original_bid": bids[args.bidder],
        "deviation_bid": args.deviation,
        "case": tag.value,
        "winner_original": original.winner,
        "winner_deviation": after.winner,
        "utility_original": bidder_utility(instance.valuations, original, args.bidder),
        "utility_deviation": bidder_utility(instance.valuations, after, args.bidder),
        "policy": policy.describe(),
        "rule": rule.value,
    }


def cmd_dominance(args) -> tuple[int, dict]:
    policies = _parse_policies(args.policies, args.seed, args.n)
    rule = PaymentRule.from_name(args.rule)
    report = dominance_sweep(
        args.n, args.ticks, policies, rule,
        adversarial=args.adversarial, budget=args.budget,
    )
    return _verdict_exit(report), report.to_doc()


def cmd_falsify(args) -> tuple[int, dict]:
    policies = _parse_policies(args.policies, args.seed, args.n_max)
    rule = PaymentRule.from_name(args.rule)
    found = find_counterexample(
        rule, args.n_max, args.ticks, policies,
        adversarial=args.adversarial, budget=args.budget,
    )
    if found is None:
        return EXIT_PASS, {"found": False}
    return EXIT_FAIL, {"found": True, "counterexample": found.to_dict()}


def cmd_simulate(args) -> tuple[int, dict]:
    doc = _read_json(args.config)
    if args.seed is not None:
        doc = dict(doc, seed=args.seed)
    try:
        config = ExperimentConfig.from_dict(doc)
    except ValueError as exc:
        raise InvalidInstanceError([str(exc)]) from None
    report = run_experiment(config, budget=args.budget)
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as stream:
            write_rounds_csv(config, stream, budget=args.budget)
    return EXIT_PASS, report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealedbid",
        description=(
            "Sealed-bid auction toolkit: exhaustively verify that truthful "
            "bidding is weakly dominant under the second-price rule, hunt "
            "counterexamples under mutated rules, and run seeded simulations."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="report format on stdout (default: %(default)s)",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="seed for the seeded tie-break policy; for simulate, overrides "
             "the config seed (default: 0)",
    )
    common.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="cap on the rows a run would enumerate (sampled values for simulate; "
             "for falsify, the whole search up to --n-max), checked before any "
             "work; exceeding it exits 3 with empty stdout (default: %(default)s)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common],
        help="validate an instance document and list every violation",
    )
    p.add_argument("instance", help="path to {\"valuations\":[...],\"bids\":[...]}")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "check", parents=[common],
        help="check truthfulness for every bidder of an instance",
    )
    p.add_argument("instance", help="instance document path")
    p.add_argument(
        "--policies", default="first-index,last-index,seeded,explicit",
        help="comma-joined tie-break policies (default: %(default)s)",
    )
    p.add_argument(
        "--rule", choices=[r.value for r in PaymentRule], default="second-price",
        help="payment rule (default: %(default)s)",
    )
    p.add_argument(
        "--deviations", choices=("critical", "grid"), default="critical",
        help="deviation bids to try (default: %(default)s)",
    )
    p.add_argument(
        "--grid-min", type=int, default=0,
        help="lower bid for --deviations=grid; raising it above the opposing "
             "bids restricts the run to winning deviations, which starves "
             "the losing cases and trips the vacuity guard (default: 0)",
    )
    p.add_argument(
        "--grid-max", type=int, default=None,
        help="upper bid for --deviations=grid (default: highest tick in the "
             "instance plus one)",
    )
    p.add_argument(
        "--no-adversarial", dest="adversarial", action="store_false",
        help="skip the adversarial tie-break pairing (default: included)",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "classify", parents=[common],
        help="classify one deviation into its win/lose case",
    )
    p.add_argument("instance", help="instance document path")
    p.add_argument("--bidder", type=int, required=True, help="deviating bidder index")
    p.add_argument("--deviation", type=int, required=True, help="deviation bid in ticks")
    p.add_argument(
        "--policy", default="first-index",
        help="tie-break policy (default: %(default)s)",
    )
    p.add_argument(
        "--rule", choices=[r.value for r in PaymentRule], default="second-price",
        help="payment rule (default: %(default)s)",
    )
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "dominance", parents=[common],
        help="exhaustive truthfulness sweep over all instances within bounds",
    )
    p.add_argument("--n", type=int, default=2, help="number of bidders (default: %(default)s)")
    p.add_argument(
        "--ticks", type=int, default=4,
        help="inclusive upper tick for bids and values (default: %(default)s)",
    )
    p.add_argument(
        "--policies", default="first-index,last-index,seeded,explicit",
        help="comma-joined tie-break policies (default: %(default)s)",
    )
    p.add_argument(
        "--rule", choices=[r.value for r in PaymentRule], default="second-price",
        help="payment rule (default: %(default)s)",
    )
    p.add_argument(
        "--no-adversarial", dest="adversarial", action="store_false",
        help="skip the adversarial tie-break pairing (default: included)",
    )
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser(
        "falsify", parents=[common],
        help="search for the smallest profitable deviation within bounds",
    )
    p.add_argument(
        "--rule", choices=[r.value for r in PaymentRule], default="first-price",
        help="payment rule to attack (default: %(default)s)",
    )
    p.add_argument("--n-max", type=int, default=2, help="largest N to try (default: %(default)s)")
    p.add_argument(
        "--ticks", type=int, default=4,
        help="inclusive upper tick for bids and values (default: %(default)s)",
    )
    p.add_argument(
        "--policies", default="first-index,last-index,seeded,explicit",
        help="comma-joined tie-break policies (default: %(default)s)",
    )
    p.add_argument(
        "--no-adversarial", dest="adversarial", action="store_false",
        help="skip the adversarial tie-break pairing (default: included)",
    )
    p.set_defaults(handler=cmd_falsify)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="run a seeded Monte Carlo experiment from a config document",
    )
    p.add_argument("config", help="experiment config document path")
    p.add_argument(
        "--csv", default=None, metavar="PATH",
        help="also write per-round values, bids, winner, price as CSV",
    )
    p.set_defaults(handler=cmd_simulate)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Parse arguments, run one subcommand, emit one report. Returns the
    exit code; never raises."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID

    if args.seed is None and args.command != "simulate":
        args.seed = 0

    try:
        code, doc = args.handler(args)
        text = canonical_json(doc) if args.format == "json" else render_table(doc)
    except InvalidInstanceError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(text)
    return code


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
