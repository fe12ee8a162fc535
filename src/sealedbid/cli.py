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
from importlib import import_module
from typing import Sequence

from .core import (
    DEFAULT_BUDGET,
    AuctionInstance,
    BudgetExceededError,
    ExplicitChoice,
    InvalidInstanceError,
    PaymentRule,
    TieBreakPolicy,
    bidder_utility,
    outcome,
    policy_from_dict,
    seed_violation,
    standard_policies,
    tick_violation,
)
from .reporting import canonical_json, render_table

# The names a subcommand takes from `verify` or `simulate`, bound here by
# `_load` when it first runs, so a process imports only the module it runs.
# They stay module attributes, looked up at call time (a module __getattr__
# resolves them before that), because bench/tracer.py wraps
# `dominance_sweep`, `find_counterexample`, `check_truthfulness`,
# `run_experiment` and `write_rounds_csv` here under those names.
_DEFERRED = {
    "verify": ("CaseTag", "check_instance", "check_truthfulness", "deviation_profile",
               "dominance_sweep", "find_counterexample"),
    "simulate": ("ExperimentConfig", "run_experiment", "write_rounds_csv"),
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _load(module: str) -> None:
    """Bind ``module``'s deferred names here, keeping any already bound
    (a tracer's wrapper, say)."""
    imported = import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    # Resolves without binding, so reading a name leaves the namespace as it was.
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
    except OSError as exc:
        raise InvalidInstanceError([f"cannot read {path}: {exc}"]) from None
    except (ValueError, RecursionError) as exc:  # undecodable text, or nested too deeply
        raise InvalidInstanceError([f"parse failure in {path}: {exc}"]) from None
    if not isinstance(doc, dict):
        raise InvalidInstanceError([f"top-level JSON object required in {path}"])
    return doc


def load_instance(path: str) -> AuctionInstance:
    """Read, parse, and validate an instance document."""
    return AuctionInstance.from_dict(_read_json(path))


def _parse_policies(text: str, seed: int, n_bidders: int) -> list[TieBreakPolicy]:
    # A name is a policy's kind; "explicit" is the table covering every argmax set,
    # and only "seeded" takes the seed: another kind refuses the key.  The seed is
    # checked whatever the policies, so a run's --seed is valid or refused alike.
    if fault := seed_violation(seed):
        raise ValueError(fault)
    names = [name.strip() for name in text.split(",")]
    return [ExplicitChoice.covering(n_bidders) if name == "explicit"
            else policy_from_dict({"kind": name, "seed": seed}) if name == "seeded"
            else policy_from_dict({"kind": name}) for name in names]


def _verdict_exit(report) -> int:
    # A vacuous sweep never earns a passing exit code, even if no
    # comparison failed: untested cases are unverified cases.
    if report.passed and not report.vacuous:
        return EXIT_PASS
    return EXIT_FAIL


def cmd_validate(args) -> tuple[int, dict]:
    try:
        load_instance(args.instance)
    except InvalidInstanceError as exc:
        return EXIT_INVALID, {"valid": False, "violations": exc.violations}
    return EXIT_PASS, {"valid": True, "violations": []}


def cmd_check(args) -> tuple[int, dict]:
    _load("verify")
    instance = load_instance(args.instance)
    policies = _parse_policies(args.policies, args.seed, instance.n_bidders)
    deviations = args.deviations
    if deviations == "grid":
        grid_min = args.grid_min or 0
        grid_max = args.grid_max
        if grid_max is None:
            grid_max = max(instance.valuations + instance.bids) + 1
        if grid_min > grid_max:  # a negative bid is refused by check_instance
            raise ValueError(f"grid range [{grid_min}, {grid_max}] is empty")
        deviations = range(grid_min, grid_max + 1)
    elif args.grid_min is not None or args.grid_max is not None:
        raise ValueError("--grid-min and --grid-max need --deviations grid")

    report = check_instance(instance, policies, args.rule, deviations, args.adversarial,
                            args.budget)
    return _verdict_exit(report), report.to_dict()


def cmd_classify(args) -> tuple[int, dict]:
    _load("verify")
    instance = load_instance(args.instance)
    policies = _parse_policies(args.policy, args.seed, instance.n_bidders)
    if len(policies) != 1:
        raise ValueError("exactly one policy expected here")
    [policy] = policies
    bids = instance.bids
    if fault := tick_violation("deviation", args.deviation):
        raise InvalidInstanceError([fault])
    deviated = deviation_profile(bids, args.bidder, args.deviation)
    original = outcome(bids, policy, args.rule)
    after = outcome(deviated, policy, args.rule)
    return EXIT_PASS, {
        "bidder": args.bidder,
        "original_bid": bids[args.bidder],
        "deviation_bid": args.deviation,
        "case": CaseTag.of(original.winner == args.bidder, after.winner == args.bidder).value,
        "winner_original": original.winner,
        "winner_deviation": after.winner,
        "utility_original": bidder_utility(instance.valuations, original, args.bidder),
        "utility_deviation": bidder_utility(instance.valuations, after, args.bidder),
        "policy": policy.describe(),
        "rule": args.rule.value,
    }


def cmd_dominance(args) -> tuple[int, dict]:
    _load("verify")
    policies = _parse_policies(args.policies, args.seed, args.n)
    report = dominance_sweep(
        args.n, args.ticks, policies, args.rule,
        adversarial=args.adversarial, budget=args.budget,
    )
    return _verdict_exit(report), report.to_dict()


def cmd_falsify(args) -> tuple[int, dict]:
    _load("verify")
    policies = _parse_policies(args.policies, args.seed, args.n_max)
    found = find_counterexample(
        args.rule, args.n_max, args.ticks, policies,
        adversarial=args.adversarial, budget=args.budget,
    )
    if found is None:
        return EXIT_PASS, {"found": False}
    return EXIT_FAIL, {"found": True, "counterexample": found.to_dict()}


def cmd_simulate(args) -> tuple[int, dict]:
    _load("simulate")
    doc = _read_json(args.config)
    if args.seed is not None:
        doc = dict(doc, seed=args.seed)
    config = ExperimentConfig.from_dict(doc)
    if args.csv is None:
        return EXIT_PASS, run_experiment(config, budget=args.budget).to_dict()
    config.check_budget(args.budget)  # before the CSV file is created or truncated
    with open(args.csv, "w", encoding="utf-8", newline="") as stream:  # before any round
        return EXIT_PASS, write_rounds_csv(config, stream, budget=args.budget).to_dict()


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
    # A subcommand takes only the flags its handler reads.  A parent's actions are
    # shared (one child's default would move all), so simulate declares its own --seed
    # (default: the config's) and falsify its own --rule (default first-price).
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument(
        "--seed", type=int, default=0,
        help="seed for the seeded tie-break policy (default: %(default)s)",
    )
    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="cap on the rows a run would enumerate (sampled values for simulate; "
             "for falsify, the whole search up to --n-max), checked before any "
             "work; exceeding it exits 3 with empty stdout (default: %(default)s)",
    )
    ruled = argparse.ArgumentParser(add_help=False)
    ruled.add_argument(
        "--rule", type=PaymentRule, choices=list(PaymentRule), default="second-price",
        help="payment rule (default: %(default)s)",
    )
    sweep = argparse.ArgumentParser(add_help=False, parents=[common, seeded, budgeted])
    sweep.add_argument(
        "--policies", default=",".join(policy.kind for policy in standard_policies(2)),
        help="comma-joined tie-break policies; explicit covers N <= 16 bidders "
             "(default: %(default)s)",
    )
    sweep.add_argument(
        "--no-adversarial", dest="adversarial", action="store_false",
        help="skip the adversarial tie-break pairing (default: included)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", parents=[common],
        help="validate an instance document and list every violation",
    )
    p.add_argument("instance", help="path to {\"valuations\":[...],\"bids\":[...]}")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "check", parents=[sweep, ruled],
        help="check truthfulness for every bidder of an instance",
    )
    p.add_argument("instance", help="instance document path")
    p.add_argument(
        "--deviations", choices=("critical", "grid"), default="critical",
        help="deviation bids to try (default: %(default)s)",
    )
    p.add_argument(
        "--grid-min", type=int, default=None,
        help="lower bid for --deviations=grid, refused without it; raising it "
             "above the opposing bids restricts the run to winning deviations, "
             "which starves the losing cases and trips the vacuity guard "
             "(default: 0)",
    )
    p.add_argument(
        "--grid-max", type=int, default=None,
        help="upper bid for --deviations=grid, refused without it (default: "
             "highest tick in the instance plus one)",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "classify", parents=[common, seeded, ruled],
        help="classify one deviation into its win/lose case",
    )
    p.add_argument("instance", help="instance document path")
    p.add_argument("--bidder", type=int, required=True, help="deviating bidder index")
    p.add_argument("--deviation", type=int, required=True, help="deviation bid in ticks")
    p.add_argument(
        "--policy", default="first-index",
        help="tie-break policy (default: %(default)s)",
    )
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "dominance", parents=[sweep, ruled],
        help="exhaustive truthfulness sweep over all instances within bounds",
    )
    p.add_argument("--n", type=int, default=2, help="number of bidders (default: %(default)s)")
    p.add_argument(
        "--ticks", type=int, default=4,
        help="inclusive upper tick for bids and values (default: %(default)s)",
    )
    p.set_defaults(handler=cmd_dominance)

    p = sub.add_parser(
        "falsify", parents=[sweep],
        help="search for the smallest profitable deviation within bounds",
    )
    p.add_argument(
        "--rule", type=PaymentRule, choices=list(PaymentRule), default="first-price",
        help="payment rule to attack (default: %(default)s)",
    )
    p.add_argument("--n-max", type=int, default=2, help="largest N to try (default: %(default)s)")
    p.add_argument(
        "--ticks", type=int, default=4,
        help="inclusive upper tick for bids and values (default: %(default)s)",
    )
    p.set_defaults(handler=cmd_falsify)

    p = sub.add_parser(
        "simulate", parents=[common, budgeted],
        help="run a seeded Monte Carlo experiment from a config document",
    )
    p.add_argument("config", help="experiment config document path")
    p.add_argument(
        "--seed", type=int, default=None,
        help="seed that overrides the config document's (default: the config's seed)",
    )
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
