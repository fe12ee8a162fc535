"""Sealed-bid auctions on an integer tick lattice.

An executable model of single-good sealed-bid auctions with exchangeable
payment rules and tie-break policies, a bounded-exhaustive verifier that
checks truthful bidding is weakly dominant under the second-price rule
(with case coverage so a pass cannot be vacuous), a counterexample search
that pins the smallest profitable deviation under mutated rules, and a
deterministic Monte Carlo harness for comparing rules and strategies.
"""

from .core import (
    DEFAULT_BUDGET,
    AuctionInstance,
    BudgetExceededError,
    ExplicitChoice,
    FirstIndex,
    InvalidInstanceError,
    LastIndex,
    Outcome,
    PaymentRule,
    Seeded,
    TieBreakPolicy,
    bidder_utility,
    outcome,
    standard_policies,
    validate,
)
from .verify import (
    CaseCoverage,
    CaseTag,
    Counterexample,
    DeviationCheckResult,
    VerificationReport,
    assert_case,
    check_dominance,
    check_truthfulness,
    coverage_guard,
    critical_deviations,
    dominance_sweep,
    efficiency_check,
    find_counterexample,
)
from .simulate import (
    ExperimentConfig,
    Overbid,
    PairedReport,
    Shade,
    SimReport,
    Strategy,
    Truthful,
    compare_rules,
    run_experiment,
    write_rounds_csv,
)

__all__ = [
    "AuctionInstance",
    "BudgetExceededError",
    "CaseCoverage",
    "CaseTag",
    "Counterexample",
    "DEFAULT_BUDGET",
    "DeviationCheckResult",
    "ExperimentConfig",
    "ExplicitChoice",
    "FirstIndex",
    "InvalidInstanceError",
    "LastIndex",
    "Outcome",
    "Overbid",
    "PairedReport",
    "PaymentRule",
    "Seeded",
    "Shade",
    "SimReport",
    "Strategy",
    "TieBreakPolicy",
    "Truthful",
    "VerificationReport",
    "assert_case",
    "bidder_utility",
    "check_dominance",
    "check_truthfulness",
    "compare_rules",
    "coverage_guard",
    "critical_deviations",
    "dominance_sweep",
    "efficiency_check",
    "find_counterexample",
    "outcome",
    "run_experiment",
    "standard_policies",
    "validate",
    "write_rounds_csv",
]
