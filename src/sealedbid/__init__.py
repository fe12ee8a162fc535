"""Sealed-bid auctions on an integer tick lattice.

An executable model of single-good sealed-bid auctions with exchangeable
payment rules and tie-break policies, a bounded-exhaustive verifier that
checks truthful bidding is weakly dominant under the second-price rule
(with case coverage so a pass cannot be vacuous), a counterexample search
that pins the smallest profitable deviation under mutated rules, and a
deterministic Monte Carlo harness for comparing rules and strategies.
"""

from importlib import import_module

# Each export and the module that defines it, imported on first use (PEP 562),
# so a process loads only the modules its names come from.
_EXPORTS = {
    name: module for module, names in {
        "core": "DEFAULT_BUDGET AuctionInstance BudgetExceededError ExplicitChoice FirstIndex "
                "InvalidInstanceError LastIndex Outcome PaymentRule Seeded TieBreakPolicy "
                "bidder_utility outcome standard_policies",
        "verify": "CaseTag Counterexample DeviationCheckResult VerificationReport "
                  "check_truthfulness dominance_sweep find_counterexample",
        "simulate": "ExperimentConfig Overbid PairedReport Shade SimReport Strategy Truthful "
                    "compare_rules run_experiment write_rounds_csv",
    }.items() for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value
