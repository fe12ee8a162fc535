"""Bounded exhaustive verification of truthful bidding.

The executable claim: under the second-price rule, bidding one's own
valuation is weakly dominant.  For each bidder the checker compares the
truthful bid against deviation bids over every opposing-bid vector
within a tick bound, under every supplied tie-break policy and under an
adversarial pairing that gives the tie-break maximal power to punish
truthfulness.  Every comparison is classified into one of four cases by
the bidder's win/lose status before and after the deviation.  Each case's
exact second-price contract is judged outside the package, by acceptance
criterion 2's oracle in ``tests/conftest.py``, over N <= 3 and T <= 4; no
CLI verdict checks it.

Two guards keep the sweep honest.  Case coverage counts witnesses per
case and flags a sweep as vacuous when any case never occurred, so a
check cannot "pass" merely because its hypotheses were unsatisfiable.
And ``find_counterexample`` demonstrates that the machinery can falsify:
pointed at the first-price rule it returns the smallest failing instance.

All quantities are exact integers; a reported verdict never depends on
tolerance, traversal order, or parallel partitioning.
"""

from __future__ import annotations

import sys
from collections import Counter
from enum import Enum
from itertools import islice, product, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .core import (
    AuctionInstance,
    BidderId,
    BidProfile,
    DEFAULT_BUDGET,
    InvalidInstanceError,
    Money,
    PaymentRule,
    Record,
    SignedMoney,
    TieBreakPolicy,
    ValuationProfile,
    bidder_count_violation,
    bidder_violation,
    budget_violation,
    check_budget,
    outcome,
    standard_policies,
    tick_violation,
    tick_violations,
)

DeviationSpec = Union[str, Iterable[Money]]


class CaseTag(Enum):
    """Win/lose status of the bidder under the original then deviated bids."""

    WIN_WIN = "win-win"
    LOSE_LOSE = "lose-lose"
    LOSE_WIN = "lose-win"
    WIN_LOSE = "win-lose"

    @classmethod
    def of(cls, won_before: bool, won_after: bool) -> "CaseTag":
        """The case of a bidder that won (or lost) under the original, then the deviated, bids."""
        return cls("-".join("win" if won else "lose" for won in (won_before, won_after)))


class DeviationCheckResult(NamedTuple):
    """One truthful-vs-deviation comparison for one bidder.  A search builds one
    per row, so it is a named tuple built positionally: a keyword call costs ~60 % more."""

    bidder: BidderId
    truthful_bid: Money
    deviation_bid: Money
    truthful_utility: SignedMoney
    deviation_utility: SignedMoney
    case: CaseTag
    passed: bool
    pairing: str  # tie-break policy label, or the adversarial pairing label


class Counterexample(Record):
    """A recorded profitable deviation: evidence that a mechanism is not
    truthful.  ``bids`` is the truthful profile the deviation departs from."""

    valuations: ValuationProfile
    bids: BidProfile
    bidder: BidderId
    deviation_bid: Money
    policy: str
    truthful_utility: SignedMoney
    deviation_utility: SignedMoney


class VerificationReport(Record):
    """Aggregate verdict of a sweep: counts, witnesses per ``CaseTag``, minimal failure."""

    pass_count: int
    fail_count: int
    case_counts: dict
    counterexample: "Counterexample | None"

    @property
    def evaluated(self) -> int:
        return self.pass_count + self.fail_count

    @property
    def passed(self) -> bool:
        return self.fail_count == 0

    @property
    def vacuous(self) -> bool:
        """Whether some case never occurred: callers treat a vacuous sweep as a failure."""
        return any(self.case_counts[tag] == 0 for tag in CaseTag)

    def to_dict(self) -> dict:
        """The verdict document: derived from the counts, not the fields by name."""
        doc = {
            "verdict": "pass" if self.passed else "fail",
            "evaluated_count": self.evaluated,
            "case_counts": {tag.value: self.case_counts[tag] for tag in CaseTag},
            "vacuous": self.vacuous,
        }
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample.to_dict()
        return doc


def deviation_profile(bids: Sequence[Money], bidder: BidderId, new_bid: Money) -> BidProfile:
    """The profile equal to ``bids`` except that ``bidder`` bids ``new_bid``."""
    bids = tuple(bids)
    if fault := bidder_violation(bidder, len(bids)):
        raise ValueError(fault)
    return bids[:bidder] + (new_bid,) + bids[bidder + 1:]


def _critical(top: Money) -> tuple[Money, ...]:
    """A finite deviation set sufficient to decide truthfulness, given the
    highest opposing bid M, ``top``.

    Any deviation below M loses outright, any deviation above M wins
    outright, and a deviation of exactly M ties; under the second-price rule
    the utility of a winning deviation is value - M regardless of the bid.
    So one representative per class decides the verdict: {0 (when M > 0),
    M, M + 1}.
    """
    return (0, top, top + 1) if top else (0, 1)


def pairing_count(policies: Sequence[TieBreakPolicy], adversarial: bool) -> int:
    """Comparisons generated per deviation bid."""
    return len(policies) + (1 if adversarial and len(policies) > 1 else 0)


def _deviation_set(deviations: DeviationSpec, budget: int):
    """Resolve a deviation spec once into its rule: a function from a cell's
    top opposing bid M to that cell's ascending deviation bids, ``_critical``
    for "critical" and the same bids for every M otherwise.  A range stays
    lazy and ascending (a huge grid costs nothing before the budget refuses
    it); other iterables are sorted, read at most ``budget + 1`` deep: each
    bid is at least one row, so that many is over the budget.  A deviation
    bid that is not a tick is invalid input, as it is everywhere else.  The
    budget rule is asked first, as every caller reads the budget after this."""
    if fault := budget_violation(budget):
        raise ValueError(fault)
    if deviations == "critical":
        return _critical
    if isinstance(deviations, str):
        raise ValueError(f"unknown deviation mode {deviations!r}")
    if isinstance(deviations, range):
        deviations = deviations if deviations.step > 0 else deviations[::-1]
        bids = (*deviations[:1], *deviations[-1:])  # a range holds ints: its ends decide
    else:
        # islice stops at most sys.maxsize deep, past any list.
        depth = min(budget, sys.maxsize - 1) + 1
        bids = deviations = tuple(islice(deviations, depth))
    if violations := [fault for bid in bids if (fault := tick_violation("deviation", bid))]:
        raise InvalidInstanceError(violations)
    if isinstance(deviations, tuple):  # sorted once every bid is known to be a tick
        deviations = tuple(sorted(deviations))
    return lambda top: deviations


def _size(grid) -> int:
    # len() of a range overflows past sys.maxsize; _deviation_set keeps ranges ascending.
    if isinstance(grid, range):
        return max(0, -((grid.start - grid.stop) // grid.step))
    return len(grid)


def _inserted(others: BidProfile, bid: Money, bidder: BidderId) -> BidProfile:
    return others[:bidder] + (bid,) + others[bidder:]


class _Interned(dict):
    """A lazy table: a key maps to a small int naming ``compute(key)`` in
    ``values``, computed on first use; equal values share one int."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        self.values: list = []
        self._ids: dict = {}

    def __missing__(self, key) -> int:
        value = self.compute(key)
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self.values)
            self.values.append(value)
        self[key] = ident
        return ident


class _Scope(NamedTuple):
    """One policy list's share of a run.

    ``blocks()`` yields, per opposing-bid vector in key order, ``(values,
    deviation bids, blocks)`` with one block per bidder: ``(bidder,
    truthful keys, deviated keys)``, a truthful key per value and a
    deviated key per deviation bid, each key a bid profile.  A block's
    cells pair each truthful key with each deviated key, since the profile
    deviated to bid d is the truthful profile for value d.  ``table`` is
    the outcome table: a profile maps to its entry, a tuple of one
    ``Outcome`` per policy, evaluated through ``outcome`` on first use,
    so each (profile, policy) pair is evaluated once per run.
    It is keyed by profile alone, never by policy (``ExplicitChoice`` is
    unhashable), which is sound because every ``select`` is a pure
    function of the bids.  ``views`` maps (entry, bidder) to that bidder's
    view of the entry: per policy, the price it pays if it wins, else
    None.  ``templates`` maps a cell's class to its rows' template (see
    ``_template``), memoized for the ordered scan; the fold tallies
    templates without keeping them.  ``valuations`` None means every bidder
    values what it bids.
    """

    table: _Interned
    views: _Interned
    templates: _Interned
    blocks: Callable[[], Iterator[tuple]]
    valuations: "ValuationProfile | None"


def _scope(policies, rule, adversarial, blocks, valuations=None) -> _Scope:
    if not policies:
        raise ValueError("at least one tie-break policy is required")

    def entry(bids) -> tuple:
        # tuple() of a list, not of a generator: CPython resizes a generator's
        # tuple, and each one freed as a duplicate then strands on a free list.
        return tuple([outcome(bids, policy, rule) for policy in policies])

    table = _Interned(entry)
    views = _Interned(lambda pair: tuple([
        price if winner == pair[1] else None for winner, price in table.values[pair[0]]
    ]))
    labels = [policy.describe() for policy in policies]
    paired = pairing_count(policies, adversarial) > len(policies)
    rows = {}  # equal rows of different templates share one tuple
    templates = _Interned(lambda key: tuple([rows.setdefault(row, row) for row in _template(
        labels, paired, key[0], views.values[key[1]], views.values[key[2]]
    )]))
    return _Scope(table, views, templates, blocks, valuations)


def _grid_scope(n, grid, deviations, policies, rule, adversarial):
    """The blocks of one bidder count: per opposing-bid vector, bidder b's
    profile at bid x is ``_inserted(others, x, b)``.  Every bidder takes
    every valuation in ``grid``, 0..T, and faces the same opposing bids, so
    the same deviation bids, and over the full grid its deviated keys are
    its truthful keys."""
    shared = deviations(0) == grid

    def blocks():
        for others in product(grid, repeat=n - 1):
            new_bids = deviations(max(others))
            group = []
            for b in range(n):
                truths = tuple([_inserted(others, value, b) for value in grid])
                devs = truths if shared else tuple([_inserted(others, bid, b) for bid in new_bids])
                group.append((b, truths, devs))
            yield grid, new_bids, group

    return _scope(policies, rule, adversarial, blocks)


def _instance_scope(instance, bidders, policies, rule, deviations, adversarial, budget):
    """Resolve the deviations and refuse a run over ``budget`` rows, both before
    any work; then one block per cell, in (deviation bid, bidder) order.  Bidder
    b, a valid index, has its opposing bids and truthful profile (the instance's
    bids with b's bid set to its valuation, keyed by itself) built once; its
    deviation bids are the rule's at its top opposing bid."""
    deviations = _deviation_set(deviations, budget)
    valuations, bids = instance.valuations, instance.bids
    opposing = {b: bids[:b] + bids[b + 1:] for b in bidders}
    truths = {b: _inserted(others, valuations[b], b) for b, others in opposing.items()}
    per_bidder = [deviations(max(opposing[b])) for b in bidders]
    rows = sum(_size(new_bids) for new_bids in per_bidder)
    check_budget(rows * pairing_count(policies, adversarial), budget, "evaluated tuples")

    def blocks():
        # Each bidder's bids ascend, so the merge is in (deviation bid, bidder) order, lazily.
        from heapq import merge  # here: the grid commands never need it

        streams = [zip(new_bids, repeat(b)) for b, new_bids in zip(bidders, per_bidder)]
        for new_bid, b in merge(*streams):
            deviated = _inserted(opposing[b], new_bid, b)
            yield (valuations[b],), (new_bid,), [(b, (truths[b],), (deviated,))]

    return _scope(policies, rule, adversarial, blocks, valuations=valuations)


def _template(labels, paired, value, truthful_view, deviated_view) -> list[tuple]:
    """A class's rows without bidder or deviation bid: per policy, plus the
    adversarial pairing when ``paired``, ``(truthful utility, deviation
    utility, case, passed, label)`` from the bidder's views of its two
    profiles' entries.  The value is the truthful bid in every scope."""
    rows = []
    for label, p_truth, p_dev in zip(labels, truthful_view, deviated_view):
        won_truth, won_dev = p_truth is not None, p_dev is not None
        u_truth = value - p_truth if won_truth else 0
        u_dev = value - p_dev if won_dev else 0
        rows.append((u_truth, u_dev, won_truth, won_dev, label))
    if paired:
        # The tie-break abstraction permits any argmax-respecting choice, so the
        # strongest reading lets it differ between the two evaluations: take the
        # policy minimizing the truthful utility against the one maximizing the
        # deviation utility.  min/max keep the first extremal row, so the pairing
        # label is deterministic for a fixed policy order.
        u_truth, _, won_truth, _, truth_label = min(rows, key=itemgetter(0))
        _, u_dev, _, won_dev, dev_label = max(rows, key=itemgetter(1))
        label = f"adversarial({truth_label}|{dev_label})"
        rows.append((u_truth, u_dev, won_truth, won_dev, label))
    return [(u_truth, u_dev, CaseTag.of(won_truth, won_dev), u_truth >= u_dev, label)
            for u_truth, u_dev, won_truth, won_dev, label in rows]


def _view_rows(scope: _Scope):
    """``scope.blocks()`` with each block read by its bidder: per
    opposing-bid vector ``(values, deviation bids, rows)``, a row per block
    ``(bidder, truthful keys, truthful view row, deviated view row)``."""
    table, views = scope.table, scope.views
    for values, new_bids, blocks in scope.blocks():
        rows = []
        for bidder, truths, devs in blocks:
            truth_views = tuple([views[table[key], bidder] for key in truths])
            dev_views = truth_views if devs is truths else tuple([
                views[table[key], bidder] for key in devs
            ])
            rows.append((bidder, truths, truth_views, dev_views))
        yield values, new_bids, rows


def _row_stream(scopes):
    """``(scope, truthful key, rows)`` per cell, in key order (value,
    deviation bid, bidder within each opposing-bid vector).  A cell's rows
    are its class's template with bidder and bids filled in; the class is
    (value, truthful view, deviated view), on which alone they depend."""
    for scope in scopes:
        templates, built = scope.templates, scope.templates.values
        for values, new_bids, rows in _view_rows(scope):
            for i, value in enumerate(values):
                for j, new_bid in enumerate(new_bids):
                    for bidder, truths, truth_views, dev_views in rows:
                        template = built[templates[value, truth_views[i], dev_views[j]]]
                        yield scope, truths[i], [DeviationCheckResult(
                            bidder, value, new_bid, u_truth, u_dev, case, passed, label
                        ) for u_truth, u_dev, case, passed, label in template]


def _first_failure(scopes) -> "Counterexample | None":
    """The first failing row in key order, which is the minimal counterexample."""
    for scope, truth, rows in _row_stream(scopes):
        for row in rows:
            if not row.passed:
                return Counterexample(
                    scope.valuations or truth, truth, row.bidder, row.deviation_bid, row.pairing,
                    row.truthful_utility, row.deviation_utility,
                )
    return None


def _grid_scopes(n_min, n_max, tick_bound, policies, rule, deviations, adversarial,
                 budget) -> Iterator[_Scope]:
    """Check bounds and budget, then return one scope per N = n_min..n_max
    over every opposing-bid vector in {0..tick_bound}^(N-1), every valuation
    and every bidder, built lazily so that a finished N's tables are freed
    before the next fills."""
    if fault := bidder_count_violation(n_max):
        raise ValueError(fault)
    if fault := tick_violation("tick_bound", tick_bound):
        raise InvalidInstanceError([fault])
    grid = range(tick_bound + 1)
    deviations = _deviation_set(grid if deviations == "grid" else deviations, budget)
    scopes, rows = [], 0
    for n in range(n_min, n_max + 1):
        policy_set = policies if policies is not None else standard_policies(n)
        scopes.append((n, policy_set))
        # Past the budget's bit length a power of 2 or more exceeds the budget
        # anyway; capping there keeps the refusal exact and the int small.
        opposing = (tick_bound + 1) ** min(n - 1, budget.bit_length() + 1)
        # Only the all-zero opposing vector has M = 0; a rule's size is equal for all M > 0.
        per_value = _size(deviations(0)) + (opposing - 1) * _size(deviations(1))
        rows += _size(grid) * n * per_value * pairing_count(policy_set, adversarial)
        if rows > budget:
            break
    check_budget(rows, budget, "evaluated tuples")
    return (_grid_scope(n, grid, deviations, policy_set, rule, adversarial)
            for n, policy_set in scopes)


def _fold(scope: _Scope) -> VerificationReport:
    """Count one scope's blocks by (values, truthful view row, deviated
    view row) and expand each distinct triple once into its cells' classes,
    weighted by its count; then tally each class's template, weighted by
    the class's count, so the counts equal a row-by-row fold's, without
    building a row record.  Each template is computed once, so it is not
    kept in the scope's memo.  When a row failed, the counterexample comes
    from the ordered scan that ``find_counterexample`` runs."""
    compute = scope.templates.compute
    blocks = Counter(
        (values, truth_views, dev_views)
        for values, _, rows in _view_rows(scope) for _, _, truth_views, dev_views in rows
    )
    classes = Counter()
    for (values, truth_views, dev_views), count in blocks.items():
        for (value, truth_view), dev_view in product(zip(values, truth_views), dev_views):
            classes[value, truth_view, dev_view] += count
    counts = {tag: 0 for tag in CaseTag}
    pass_count = fail_count = 0
    for key, count in classes.items():
        for _, _, case, passed, _ in compute(key):
            counts[case] += count
            if passed:
                pass_count += count
            else:
                fail_count += count
    first = _first_failure([scope]) if fail_count else None
    return VerificationReport(pass_count, fail_count, counts, first)


def check_truthfulness(
    valuations: Sequence[Money],
    others: Sequence[Money],
    bidder: BidderId,
    policies: Sequence[TieBreakPolicy],
    rule: PaymentRule = PaymentRule.SECOND_PRICE,
    deviations: DeviationSpec = "critical",
    adversarial: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> list[DeviationCheckResult]:
    """Compare the truthful bid of one bidder against deviation bids.

    ``others`` holds the opposing bids (length N - 1); the bidder's own
    truthful bid, equal to its valuation, is inserted at its index.
    ``deviations`` is either the string "critical" or an explicit
    iterable of deviation bids (a grid).  Results are ordered by
    deviation bid, then policy, with the adversarial pairing (when
    enabled) closing each deviation's block.  A run of more than
    ``budget`` rows is refused before any work.
    """
    valuations, others = tuple(valuations), tuple(others)
    if fault := bidder_violation(bidder, len(valuations)):
        raise ValueError(fault)
    if len(others) != len(valuations) - 1:
        raise ValueError(f"expected {len(valuations) - 1} opposing bids, got {len(others)}")
    # Each tick is named by the caller's argument, not by the profile built from them.
    if violations := tick_violations("valuations", valuations) + tick_violations("others", others):
        raise InvalidInstanceError(violations)
    instance = AuctionInstance(valuations, _inserted(others, valuations[bidder], bidder))
    scope = _instance_scope(instance, (bidder,), policies, rule, deviations, adversarial, budget)
    return [row for _, _, rows in _row_stream([scope]) for row in rows]


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
    return _fold(_instance_scope(
        instance, range(instance.n_bidders), policies, rule, deviations, adversarial, budget
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
    [scope] = _grid_scopes(
        n_bidders, n_bidders, tick_bound, policies, rule, deviations, adversarial, budget
    )
    return _fold(scope)


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
    return _first_failure(
        _grid_scopes(2, n_max, tick_bound, policies, rule, "grid", adversarial, budget)
    )

