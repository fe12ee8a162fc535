"""Bounded exhaustive verification of truthful bidding.

The executable claim: under the second-price rule, bidding one's own
valuation is weakly dominant.  For each bidder the checker compares the
truthful bid against deviation bids over every opposing-bid vector
within a tick bound, under every supplied tie-break policy and under an
adversarial pairing that gives the tie-break maximal power to punish
truthfulness.  Every comparison is classified into one of four cases by
the bidder's win/lose status before and after the deviation, and each
case carries its own exact assertion.

Two guards keep the sweep honest.  Case coverage counts witnesses per
case and flags a sweep as vacuous when any case never occurred, so a
check cannot "pass" merely because its hypotheses were unsatisfiable.
And ``find_counterexample`` demonstrates that the machinery can falsify:
pointed at the first-price rule it returns the smallest failing instance.

All quantities are exact integers; a reported verdict never depends on
tolerance, traversal order, or parallel partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from typing import Iterable, Sequence, Union

from .core import (
    AuctionInstance,
    BidderId,
    BidProfile,
    DEFAULT_BUDGET,
    InvalidInstanceError,
    Money,
    PaymentRule,
    SignedMoney,
    TieBreakPolicy,
    ValuationProfile,
    check_budget,
    max_excluding,
    outcome,
    select_winner,
    standard_policies,
    validate,
)

DeviationSpec = Union[str, Iterable[Money]]


class CaseTag(Enum):
    """Win/lose status of the bidder under the original then deviated bids."""

    WIN_WIN = "win-win"
    LOSE_LOSE = "lose-lose"
    LOSE_WIN = "lose-win"
    WIN_LOSE = "win-lose"

    @property
    def won_original(self) -> bool:
        return self in (CaseTag.WIN_WIN, CaseTag.WIN_LOSE)

    @property
    def won_deviation(self) -> bool:
        return self in (CaseTag.WIN_WIN, CaseTag.LOSE_WIN)


def _case_of(won_original: bool, won_deviation: bool) -> CaseTag:
    if won_original:
        return CaseTag.WIN_WIN if won_deviation else CaseTag.WIN_LOSE
    return CaseTag.LOSE_WIN if won_deviation else CaseTag.LOSE_LOSE


@dataclass(frozen=True)
class DeviationCheckResult:
    """One truthful-vs-deviation comparison for one bidder."""

    bidder: BidderId
    truthful_bid: Money
    deviation_bid: Money
    truthful_utility: SignedMoney
    deviation_utility: SignedMoney
    case: CaseTag
    passed: bool
    pairing: str  # tie-break policy label, or the adversarial pairing label


@dataclass(frozen=True)
class Counterexample:
    """A recorded profitable deviation: evidence that a mechanism is not
    truthful.  ``bids`` is the truthful profile the deviation departs from."""

    valuations: ValuationProfile
    bids: BidProfile
    bidder: BidderId
    deviation_bid: Money
    policy: str
    truthful_utility: SignedMoney
    deviation_utility: SignedMoney

    def to_dict(self) -> dict:
        return {
            "valuations": list(self.valuations),
            "bids": list(self.bids),
            "bidder": self.bidder,
            "deviation_bid": self.deviation_bid,
            "policy": self.policy,
            "truthful_utility": self.truthful_utility,
            "deviation_utility": self.deviation_utility,
        }


@dataclass(frozen=True)
class CaseCoverage:
    """Witness counts per case; vacuous when any case never occurred."""

    counts: dict

    @classmethod
    def tally(cls, tags: Iterable[CaseTag]) -> "CaseCoverage":
        counts = {tag: 0 for tag in CaseTag}
        for tag in tags:
            counts[tag] += 1
        return cls(counts)

    @property
    def vacuous(self) -> bool:
        return any(self.counts[tag] == 0 for tag in CaseTag)

    def to_dict(self) -> dict:
        return {tag.value: self.counts[tag] for tag in CaseTag}


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate verdict of a sweep, with coverage and the minimal failure."""

    pass_count: int
    fail_count: int
    coverage: CaseCoverage
    counterexample: "Counterexample | None"

    @property
    def evaluated(self) -> int:
        return self.pass_count + self.fail_count

    @property
    def passed(self) -> bool:
        return self.fail_count == 0

    def to_doc(self) -> dict:
        doc = {
            "verdict": "pass" if self.passed else "fail",
            "evaluated_count": self.evaluated,
            "case_counts": self.coverage.to_dict(),
            "vacuous": self.coverage.vacuous,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.to_dict()
        return doc


def deviation_profile(bids: Sequence[Money], bidder: BidderId, new_bid: Money) -> BidProfile:
    """The profile equal to ``bids`` except that ``bidder`` bids ``new_bid``."""
    bids = tuple(bids)
    if not 0 <= bidder < len(bids):
        raise ValueError(f"bidder index {bidder} out of range for N={len(bids)}")
    return bids[:bidder] + (new_bid,) + bids[bidder + 1:]


def classify_case(
    bids: Sequence[Money],
    deviated: Sequence[Money],
    bidder: BidderId,
    policy: TieBreakPolicy,
    deviation_policy: "TieBreakPolicy | None" = None,
) -> CaseTag:
    """Classify a deviation pair by the bidder's win/lose status.

    The profiles may differ only at ``bidder``'s coordinate.  By default
    the same policy evaluates both profiles; a second policy may be given
    to classify a mixed pairing.
    """
    bids = tuple(bids)
    deviated = tuple(deviated)
    if len(bids) != len(deviated):
        raise ValueError("profiles differ in length")
    for j, (a, b) in enumerate(zip(bids, deviated)):
        if j != bidder and a != b:
            raise ValueError(f"profiles differ at index {j}, not only at bidder {bidder}")
    if deviation_policy is None:
        deviation_policy = policy
    return _case_of(
        select_winner(bids, policy) == bidder,
        select_winner(deviated, deviation_policy) == bidder,
    )


def assert_case(case: CaseTag, result: DeviationCheckResult) -> "str | None":
    """Check the exact per-case inequality for a truthful comparison.

    Assumes the original bid was truthful and the payment rule was
    second-price.  Returns None when the case's contract holds, otherwise
    a description of the violated clause.
    """
    u_truth = result.truthful_utility
    u_dev = result.deviation_utility
    if case in (CaseTag.WIN_WIN, CaseTag.LOSE_LOSE):
        if u_truth != u_dev:
            return (
                f"{case.value}: utilities must be equal "
                f"(truthful {u_truth} vs deviation {u_dev})"
            )
        return None
    if case is CaseTag.WIN_LOSE:
        if u_dev != 0:
            return f"win-lose: deviation utility must be zero (got {u_dev})"
        if u_truth < 0:
            return f"win-lose: truthful utility must be nonnegative (got {u_truth})"
        return None
    # LOSE_WIN: bidder only wins by outbidding a price at or above its value.
    if u_truth != 0:
        return f"lose-win: truthful utility must be zero (got {u_truth})"
    if u_dev > 0:
        return f"lose-win: deviation utility must be nonpositive (got {u_dev})"
    return None


def critical_deviations(bids: Sequence[Money], bidder: BidderId) -> tuple[Money, ...]:
    """A finite deviation set sufficient to decide truthfulness.

    Let M be the highest opposing bid.  Any deviation below M loses
    outright, any deviation above M wins outright, and a deviation of
    exactly M ties; under the second-price rule the utility of a winning
    deviation is value - M regardless of the bid.  So one representative
    per class decides the verdict: {0 (when M > 0), M, M + 1}.
    """
    top = max_excluding(bids, bidder)
    members = {top, top + 1}
    if top > 0:
        members.add(0)
    return tuple(sorted(members))


def _evaluate(
    v_i: Money,
    truthful_bids: BidProfile,
    deviated: BidProfile,
    bidder: BidderId,
    policy: TieBreakPolicy,
    rule: PaymentRule,
) -> DeviationCheckResult:
    o_truth = outcome(truthful_bids, policy, rule)
    o_dev = outcome(deviated, policy, rule)
    u_truth = v_i - o_truth.price if o_truth.winner == bidder else 0
    u_dev = v_i - o_dev.price if o_dev.winner == bidder else 0
    return DeviationCheckResult(
        bidder=bidder,
        truthful_bid=truthful_bids[bidder],
        deviation_bid=deviated[bidder],
        truthful_utility=u_truth,
        deviation_utility=u_dev,
        case=_case_of(o_truth.winner == bidder, o_dev.winner == bidder),
        passed=u_truth >= u_dev,
        pairing=policy.describe(),
    )


def _adversarial(per_policy: Sequence[DeviationCheckResult]) -> DeviationCheckResult:
    # The tie-break abstraction permits any argmax-respecting choice, so the
    # strongest reading lets it differ between the two evaluations: take the
    # policy minimizing the truthful utility against the one maximizing the
    # deviation utility.  min/max keep the first extremal row, so the pairing
    # label is deterministic for a fixed policy order.
    worst_truth = min(per_policy, key=lambda r: r.truthful_utility)
    best_dev = max(per_policy, key=lambda r: r.deviation_utility)
    sample = per_policy[0]
    return DeviationCheckResult(
        bidder=sample.bidder,
        truthful_bid=sample.truthful_bid,
        deviation_bid=sample.deviation_bid,
        truthful_utility=worst_truth.truthful_utility,
        deviation_utility=best_dev.deviation_utility,
        case=_case_of(worst_truth.case.won_original, best_dev.case.won_deviation),
        passed=worst_truth.truthful_utility >= best_dev.deviation_utility,
        pairing=f"adversarial({worst_truth.pairing}|{best_dev.pairing})",
    )


def pairing_count(policies: Sequence[TieBreakPolicy], adversarial: bool) -> int:
    """Comparisons generated per deviation bid."""
    return len(policies) + (1 if adversarial and len(policies) > 1 else 0)


def _deviation_set(deviations: DeviationSpec, tick_bound: "Money | None" = None):
    """Resolve a deviation spec once: "critical" stays symbolic, "grid" and
    unit-step ranges stay lazy (a huge grid costs nothing before the budget
    refuses it), and other iterables are sorted into key order."""
    if deviations == "grid" and tick_bound is not None:
        return range(tick_bound + 1)
    if isinstance(deviations, str):
        if deviations != "critical":
            raise ValueError(f"unknown deviation mode {deviations!r}")
        return deviations
    if isinstance(deviations, range) and deviations.step == 1:
        return deviations
    return tuple(sorted(deviations))


def _size(grid) -> int:
    # len() of a range overflows past sys.maxsize; _deviation_set keeps only unit steps.
    return max(0, grid.stop - grid.start) if isinstance(grid, range) else len(grid)


def _inserted(others: BidProfile, bid: Money, bidder: BidderId) -> BidProfile:
    return others[:bidder] + (bid,) + others[bidder:]


def _cells(frames, deviations, rule: PaymentRule, adversarial: bool):
    """The shared enumerator.  Each frame is ``(policies, valuations,
    bidders, truthful)``: ``truthful(bidder)`` builds a truthful profile and
    valuations None means every bidder values what it bids.  A frame yields
    ``(valuations, truthful_bids, rows)`` per (deviation bid, bidder) cell,
    in that order, with one row per policy plus the adversarial pairing."""
    for policies, frame_valuations, bidders, truthful in frames:
        if not policies:
            raise ValueError("at least one tie-break policy is required")
        if deviations == "critical":
            pairs = sorted(
                (new_bid, bidder)
                for bidder in bidders
                for new_bid in critical_deviations(truthful(bidder), bidder)
            )
        else:
            pairs = ((new_bid, bidder) for new_bid in deviations for bidder in bidders)
        for new_bid, bidder in pairs:
            bids = truthful(bidder)
            valuations = frame_valuations or bids
            deviated = bids[:bidder] + (new_bid,) + bids[bidder + 1:]
            rows = [
                _evaluate(valuations[bidder], bids, deviated, bidder, policy, rule)
                for policy in policies
            ]
            if adversarial and len(rows) > 1:
                rows.append(_adversarial(rows))
            yield valuations, bids, rows


def _grid_cells(n_min, n_max, tick_bound, policies, rule, deviations, adversarial, budget,
                valuation=None, bidder=None):
    """Check bounds and budget, then return the cells of N = n_min..n_max,
    every opposing-bid vector in {0..tick_bound}^(N-1), every valuation (or
    just ``valuation``) and every bidder (or just ``bidder``), in key order."""
    if n_max < 2:
        raise ValueError(f"N >= 2 required (got {n_max})")
    if tick_bound < 0:
        raise ValueError(f"tick bound must be nonnegative (got {tick_bound})")
    deviations = _deviation_set(deviations, tick_bound)
    values = range(tick_bound + 1) if valuation is None else (valuation,)
    scopes = []
    rows = 0
    for n in range(n_min, n_max + 1):
        policy_set = policies if policies is not None else standard_policies(n)
        scopes.append((n, policy_set))
        # Past the budget's bit length a power of 2 or more exceeds the budget
        # anyway; capping there keeps the refusal exact and the int small.
        opposing = (tick_bound + 1) ** min(n - 1, budget.bit_length() + 1)
        if deviations == "critical":
            # {0, M, M + 1} per vector, less the 0 when every opposing bid is 0
            per_value = 3 * opposing - 1
        else:
            per_value = opposing * _size(deviations)
        bidders = n if bidder is None else 1
        rows += _size(values) * bidders * per_value * pairing_count(policy_set, adversarial)
        if rows > budget:
            break
    check_budget(rows, budget, "evaluated tuples")

    def frames():
        for n, policy_set in scopes:
            bidders = range(n) if bidder is None else (bidder,)
            for others in product(range(tick_bound + 1), repeat=n - 1):
                for v_i in values:
                    yield policy_set, None, bidders, partial(_inserted, others, v_i)

    return _cells(frames(), deviations, rule, adversarial)


def _counterexample(valuations, bids, row: DeviationCheckResult) -> Counterexample:
    return Counterexample(
        valuations, bids, row.bidder, row.deviation_bid, row.pairing,
        row.truthful_utility, row.deviation_utility,
    )


def _fold(cells) -> VerificationReport:
    """Count every row by case and verdict and keep the first failure, which
    is the minimal counterexample because the stream runs in key order."""
    counts = {tag: 0 for tag in CaseTag}
    pass_count = fail_count = 0
    first = None
    for valuations, bids, rows in cells:
        for row in rows:
            counts[row.case] += 1
            if row.passed:
                pass_count += 1
            else:
                fail_count += 1
                if first is None:
                    first = _counterexample(valuations, bids, row)
    return VerificationReport(pass_count, fail_count, CaseCoverage(counts), first)


def check_truthfulness(
    valuations: Sequence[Money],
    others: Sequence[Money],
    bidder: BidderId,
    policies: Sequence[TieBreakPolicy],
    rule: PaymentRule = PaymentRule.SECOND_PRICE,
    deviations: DeviationSpec = "critical",
    adversarial: bool = True,
) -> list[DeviationCheckResult]:
    """Compare the truthful bid of one bidder against deviation bids.

    ``others`` holds the opposing bids (length N - 1); the bidder's own
    truthful bid, equal to its valuation, is inserted at its index.
    ``deviations`` is either the string "critical" or an explicit
    iterable of deviation bids (a grid).  Results are ordered by
    deviation bid, then policy, with the adversarial pairing (when
    enabled) closing each deviation's block.
    """
    valuations = tuple(valuations)
    others = tuple(others)
    if not 0 <= bidder < len(valuations):
        raise ValueError(f"bidder index {bidder} out of range for N={len(valuations)}")
    if len(others) != len(valuations) - 1:
        raise ValueError(
            f"expected {len(valuations) - 1} opposing bids, got {len(others)}"
        )
    truthful_bids = _inserted(others, valuations[bidder], bidder)
    violations = validate(AuctionInstance(valuations, truthful_bids))
    if violations:
        raise InvalidInstanceError(violations)
    frame = (policies, valuations, (bidder,), lambda _: truthful_bids)
    cells = _cells([frame], _deviation_set(deviations), rule, adversarial)
    return [row for _, _, rows in cells for row in rows]


def check_instance(
    instance: AuctionInstance,
    policies: Sequence[TieBreakPolicy],
    rule: PaymentRule = PaymentRule.SECOND_PRICE,
    deviations: DeviationSpec = "critical",
    adversarial: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check every bidder of one instance; a bidder's truthful profile is
    the instance's bids with its own bid set to its valuation.
    ``deviations`` is "critical" (each bidder's own critical set) or an
    iterable shared by all bidders.  Cells run in (deviation bid, bidder,
    pairing) order, so the counterexample is minimal under that key."""
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    deviations = _deviation_set(deviations)
    valuations, bids = instance.valuations, instance.bids
    n = len(bids)
    if deviations == "critical":
        # Bidder b's set is {0, M, M + 1} less the 0 when every other bid is
        # 0: for all N bidders when no bid is positive, for one when one is.
        positive = sum(1 for bid in bids if bid > 0)
        per_pairing = 3 * n - (n if positive == 0 else int(positive == 1))
    else:
        per_pairing = n * _size(deviations)
    check_budget(per_pairing * pairing_count(policies, adversarial), budget, "evaluated tuples")

    def truthful(b: BidderId) -> BidProfile:
        return bids[:b] + (valuations[b],) + bids[b + 1:]

    return _fold(_cells([(policies, valuations, range(n), truthful)], deviations, rule, adversarial))


def coverage_guard(results: Iterable[DeviationCheckResult]) -> CaseCoverage:
    """Count witnesses per case; callers treat a vacuous sweep as a failure."""
    return CaseCoverage.tally(result.case for result in results)


def check_dominance(
    v_i: Money,
    bidder: BidderId,
    n_bidders: int,
    tick_bound: Money,
    policies: Sequence[TieBreakPolicy],
    rule: PaymentRule = PaymentRule.SECOND_PRICE,
    deviations: DeviationSpec = "grid",
    adversarial: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check one bidder's truthfulness against every opposing-bid vector.

    :func:`dominance_sweep` restricted to valuation ``v_i`` and one bidder
    index, so cells run in (opposing bids, deviation bid, pairing) order.
    ``deviations`` may be "grid" (the full grid 0..tick_bound),
    "critical", or an explicit iterable.
    """
    if not 0 <= bidder < n_bidders:
        raise ValueError(f"bidder index {bidder} out of range for N={n_bidders}")
    if v_i < 0:
        raise InvalidInstanceError([f"negative tick (valuations[{bidder}] = {v_i})"])
    return _fold(_grid_cells(
        n_bidders, n_bidders, tick_bound, policies, rule, deviations, adversarial, budget,
        valuation=v_i, bidder=bidder,
    ))


def dominance_sweep(
    n_bidders: int,
    tick_bound: Money,
    policies: "Sequence[TieBreakPolicy] | None" = None,
    rule: PaymentRule = PaymentRule.SECOND_PRICE,
    deviations: DeviationSpec = "grid",
    adversarial: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Full sweep over every opposing-bid vector, bidder valuation,
    deviation bid, bidder index and policy pairing, in that order, so the
    reported counterexample is the minimum under that key.  A run of more
    than ``budget`` rows is refused before any work.
    """
    return _fold(_grid_cells(
        n_bidders, n_bidders, tick_bound, policies, rule, deviations, adversarial, budget
    ))


def find_counterexample(
    rule: PaymentRule,
    n_max: int,
    tick_bound: Money,
    policies: "Sequence[TieBreakPolicy] | None" = None,
    adversarial: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> "Counterexample | None":
    """Smallest profitable deviation within bounds, or None.

    The first failure of the sweep over N = 2..n_max, whose cells run in
    the order (N, opposing bids, bidder valuation, deviation bid, bidder
    index, pairing), so it is the lexicographic minimum under that order.
    Deviations range over 0..tick_bound; ``budget`` caps the whole search
    space.  Output is a pure function of the arguments.
    """
    cells = _grid_cells(2, n_max, tick_bound, policies, rule, "grid", adversarial, budget)
    failures = (
        _counterexample(valuations, bids, row)
        for valuations, bids, rows in cells for row in rows if not row.passed
    )
    return next(failures, None)


def efficiency_check(valuations: Sequence[Money], policy: TieBreakPolicy) -> bool:
    """With truthful bids, does the good go to a maximum-valuation bidder?"""
    valuations = tuple(valuations)
    winner = select_winner(valuations, policy)
    return valuations[winner] == max(valuations)
