"""Bounded exhaustive verification of truthful bidding.

The executable claim: under the second-price rule, bidding one's own
valuation is weakly dominant.  For each bidder the checker compares the
truthful bid against deviation bids over every opposing-bid vector within a
tick bound, under every supplied tie-break policy and under an adversarial
pairing of the truthful bid's worst listed policy with the deviation's best.
The policies are asked only where a bid ties the top opposing bid M: under
any of them a bid below M loses and one above M wins.  It ranges over the
listed policies only, so for N >= 4 a tie can hide a failure that no listed
policy realises (ROADMAP item 15).  Every comparison is classified into one
of four cases by the bidder's win/lose status before and after the
deviation.  Each case's exact second-price contract is judged outside the
package, by acceptance criterion 2's oracle in ``tests/conftest.py``, over
N <= 3 and T <= 4; no CLI verdict checks it.

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
    rule_violation,
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

    __hash__ = object.__hash__  # equal only to itself: interned rows hash it per row

    @classmethod
    def of(cls, won_before: bool, won_after: bool) -> "CaseTag":
        """The case of a bidder that won (or lost) under the original, then the deviated, bids."""
        return cls("-".join("win" if won else "lose" for won in (won_before, won_after)))


# (won before, won after) -> case, for _template: CaseTag.of builds a string per call.
_CASES = {won: CaseTag.of(*won) for won in product((False, True), repeat=2)}


class DeviationCheckResult(NamedTuple):
    """One truthful-vs-deviation comparison for one bidder.  Only
    ``check_truthfulness`` returns these; the walk reads the class
    templates and builds none."""

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
    ``values``, computed on first use; ``intern`` names any value, once."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        self.values: list = []
        self._ids: dict = {}

    def intern(self, value) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = self._ids[value] = len(self.values)
            self.values.append(value)
        return ident

    def __missing__(self, key) -> int:
        self[key] = ident = self.intern(self.compute(key))
        return ident


class _Scope(NamedTuple):
    """A run's one cell source, view rule, template memo and valuations.

    ``cells()`` yields ``(values, deviation bids, cells)`` per group of
    cells in key order, a cell being ``(bidder, opposing bids, block)``;
    ``view_row(bids, M, tie)`` gives a block's view ids (see ``_scope``).
    ``templates`` maps a comparison's class, (value, truthful view, deviated
    view), to its template's id in ``templates.values`` (see ``_template``).
    Every run reads it through ``classes``, so each class's template is
    computed once.  ``valuations`` None means every bidder values its bid.
    """

    cells: Callable[[], Iterator[tuple]]
    view_row: Callable[[Sequence[Money], Money, "int | None"], list]
    templates: _Interned
    valuations: "ValuationProfile | None"

    def classes(self, values, new_bids, top, tie) -> Iterator[int]:
        """A block's template ids, lazily, in key order."""
        templates, truth_views = self.templates, self.view_row(values, top, tie)
        dev_views = truth_views if new_bids is values else self.view_row(new_bids, top, tie)
        return (templates[value, truth_view, dev_view]
                for (value, truth_view), dev_view in product(zip(values, truth_views), dev_views))


def _scope(groups, rows, budget, policies, rule, adversarial, valuations=None) -> _Scope:
    """Refuse a run over ``budget`` (it has ``rows`` rows), then an empty
    policy list, then a rule that is no ``PaymentRule``, all before any
    work; then return the run's one scope.  ``groups()`` yields ``(values,
    deviation bids, M, cells)`` in key order, a cell being ``(bidder,
    opposing bids)`` whose top is M.  A view, a bidder's price per policy
    if it wins, else None, is the rule's at every bid x but M: a loss below
    M under any pick of a top bidder, a win above it at M (second price) or
    x (first price).  Only a tie, x = M, reads the outcome table, at
    ``_inserted(others, M, bidder)``, once per cell whose values or
    deviation bids hold M; the cell's block is (values, deviation bids, M,
    that view's id or None), and all views share one id space.  The outcome
    table maps a profile to one ``Outcome`` per policy, each evaluated once
    per run, keyed by profile alone (``ExplicitChoice`` is unhashable), sound
    as every ``select`` is a pure function of the bids.  A class's template
    enters ``templates`` as one tuple of its rows, so equal templates share
    one id."""
    check_budget(rows, budget, "evaluated tuples")
    if not policies:
        raise ValueError("at least one tie-break policy is required")
    if fault := rule_violation(rule):
        raise ValueError(fault)

    def entry(bids) -> tuple:
        # tuple() of a list, not of a generator: CPython resizes a generator's
        # tuple, and each one freed as a duplicate then strands on a free list.
        return tuple([outcome(bids, policy, rule) for policy in policies])

    table = _Interned(entry)
    views = _Interned(lambda pair: tuple([
        price if winner == pair[1] else None for winner, price in table.values[pair[0]]
    ]))
    labels, width = [policy.describe() for policy in policies], len(policies)
    lose, first_price = views.intern((None,) * width), rule is PaymentRule.FIRST_PRICE
    paired = pairing_count(policies, adversarial) > len(policies)
    templates = _Interned(lambda key: _template(
        labels, paired, key[0], views.values[key[1]], views.values[key[2]]))

    def view_row(bids, top, tie) -> list:
        return [lose if bid < top else tie if bid == top
                else views.intern((bid if first_price else top,) * width) for bid in bids]

    def cells():
        for values, new_bids, top, group in groups():
            read = top in values or top in new_bids
            yield values, new_bids, [(b, others, (values, new_bids, top, views[
                table[_inserted(others, top, b)], b] if read else None)) for b, others in group]

    return _Scope(cells, view_row, templates, valuations)


def _instance_scope(valuations, opposing, policies, rule, deviations, adversarial, budget):
    """Resolve the deviations, then return the scope of an instance:
    ``opposing`` maps each bidder, a valid index, to its opposing bids, and
    its deviation bids are the rule's at their top.  A group is one cell, in
    (deviation bid, bidder) order; the caller checked every profile."""
    deviations = _deviation_set(deviations, budget)
    per_bidder = {b: deviations(max(others)) for b, others in opposing.items()}
    rows = pairing_count(policies, adversarial) * sum(map(_size, per_bidder.values()))

    def groups():
        # Each bidder's bids ascend, so the merge is in (deviation bid, bidder) order, lazily.
        from heapq import merge  # here: the grid commands never need it

        for d, b in merge(*[zip(new_bids, repeat(b)) for b, new_bids in per_bidder.items()]):
            yield (valuations[b],), (d,), max(opposing[b]), [(b, opposing[b])]

    return _scope(groups, rows, budget, policies, rule, adversarial, valuations)


def _template(labels, paired, value, truthful_view, deviated_view) -> tuple[tuple, ...]:
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
        # The pairing lets the tie-break differ between the two evaluations, but
        # only among the listed policies' rows: take the policy minimizing the
        # truthful utility against the one maximizing the deviation utility.  An
        # argmax member that no listed policy picks is never scored (ROADMAP
        # item 15).  min/max keep the first extremal row, so the pairing label is
        # deterministic for a fixed policy order.
        u_truth, _, won_truth, _, truth_label = min(rows, key=itemgetter(0))
        _, u_dev, _, won_dev, dev_label = max(rows, key=itemgetter(1))
        label = f"adversarial({truth_label}|{dev_label})"
        rows.append((u_truth, u_dev, won_truth, won_dev, label))
    return tuple([(u_truth, u_dev, _CASES[won_truth, won_dev], u_truth >= u_dev, label)
                  for u_truth, u_dev, won_truth, won_dev, label in rows])


def _grid_scope(n_min, n_max, tick_bound, policies, rule, deviations, adversarial,
                budget) -> _Scope:
    """Check bounds, then return the one scope of N = n_min..n_max.  No
    policies means ``standard_policies(n_max)``: its covering table picks
    the same member of every argmax set for each smaller N.  One set of
    tables serves every N, as profiles of different N differ in length and a
    class does not depend on N.  A group is, per N, one opposing-bid vector
    in {0..tick_bound}^(N-1), its cells every bidder in order, its values
    the whole grid: full-grid deviations are that same range object, so a
    group reads its truthful views once for both."""
    if fault := bidder_count_violation(n_max):
        raise ValueError(fault)
    if fault := tick_violation("tick_bound", tick_bound):
        raise InvalidInstanceError([fault])
    grid = range(tick_bound + 1)
    deviations = _deviation_set(grid if deviations == "grid" else deviations, budget)
    if deviations(0) == grid:  # an explicit full grid: its range object serves as the values
        grid = deviations(0)
    policies = standard_policies(n_max) if policies is None else policies
    pairings, rows = pairing_count(policies, adversarial), 0
    for n in range(n_min, n_max + 1):
        # Past the budget's bit length a power of 2 or more exceeds the budget
        # anyway; capping there keeps the refusal exact and the int small.
        opposing = (tick_bound + 1) ** min(n - 1, budget.bit_length() + 1)
        # Only the all-zero opposing vector has M = 0; a rule's size is equal for all M > 0.
        per_value = _size(deviations(0)) + (opposing - 1) * _size(deviations(1))
        rows += _size(grid) * n * per_value * pairings
        if rows > budget:
            break

    def groups():
        for n in range(n_min, n_max + 1):
            for others in product(grid, repeat=n - 1):
                yield grid, deviations(top := max(others)), top, [(b, others) for b in range(n)]

    return _scope(groups, rows, budget, policies, rule, adversarial)


def _walk(scope: _Scope, search: bool = False) -> tuple[Iterable, "Counterexample | None"]:
    """Walk the scope's cells once.  Each distinct block, (values,
    deviation bids, M, tie view id), builds its two view rows and is
    expanded once into its cells' template ids and its first failing
    (class index, template row), and counted per cell: the walk returns
    each block's ``[ids, first failure, count]``.  The counterexample is
    the first failing row in key order (value, deviation bid, bidder within
    each group, pairing), the minimal one: from the first group holding a
    failure, the least over its cells, the earlier bidder winning a tie.
    Its truthful profile is built then, once.  A ``search`` stops there."""
    built, blocks, first = scope.templates.values, {}, None
    for values, new_bids, cells in scope.cells():
        hits = []
        for bidder, others, block in cells:
            entry = blocks.get(block)
            if entry is None:
                ids = tuple(scope.classes(*block))
                hit = next(((k, row) for k, ident in enumerate(ids)
                            for row in built[ident] if not row[3]), None)
                entry = blocks[block] = [ids, hit, 0]
            entry[2] += 1
            if entry[1] and first is None:
                hits.append((*entry[1], bidder, others))
        if hits:
            k, (u_truth, u_dev, _, _, label), bidder, others = min(hits, key=itemgetter(0))
            i, j = divmod(k, len(new_bids))
            bids = _inserted(others, values[i], bidder)
            first = Counterexample(scope.valuations or bids, bids, bidder, new_bids[j],
                                   label, u_truth, u_dev)
            if search:
                break
    return blocks.values(), first


def _fold(scope: _Scope) -> VerificationReport:
    """Tally the walk's blocks: each distinct block's template ids by its
    count of cells, then each distinct template once, weighted by its
    tally, so the counts equal a row-by-row fold's, without building a row
    record.  The counterexample is the walk's."""
    blocks, first = _walk(scope)
    tally = Counter()
    for ids, _, count in blocks:
        for ident in ids:
            tally[ident] += count
    counts = {tag: 0 for tag in CaseTag}
    pass_count = fail_count = 0
    for ident, count in tally.items():
        for _, _, case, passed, _ in scope.templates.values[ident]:
            counts[case] += count
            if passed:
                pass_count += count
            else:
                fail_count += count
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
    if fault := bidder_count_violation(len(valuations)):
        raise InvalidInstanceError([fault])
    if fault := bidder_violation(bidder, len(valuations)):
        raise ValueError(fault)
    if len(others) != len(valuations) - 1:
        raise ValueError(f"expected {len(valuations) - 1} opposing bids, got {len(others)}")
    # Each tick is named by the caller's argument, not by the profile built from them.
    if violations := tick_violations("valuations", valuations) + tick_violations("others", others):
        raise InvalidInstanceError(violations)
    scope = _instance_scope(valuations, {bidder: others}, policies, rule, deviations,
                            adversarial, budget)
    built = scope.templates.values
    return [DeviationCheckResult(bidder, value, new_bid, *row)
            for values, new_bids, cells in scope.cells() for bidder, _, block in cells
            for (value, new_bid), ident in zip(product(values, new_bids), scope.classes(*block))
            for row in built[ident]]


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
    bids = instance.bids
    opposing = {b: bids[:b] + bids[b + 1:] for b in range(instance.n_bidders)}
    return _fold(_instance_scope(instance.valuations, opposing, policies, rule, deviations,
                                 adversarial, budget))


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
    return _fold(_grid_scope(
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
    space; no policies means ``standard_policies(n_max)``.  Output is a
    pure function of the arguments.
    """
    return _walk(
        _grid_scope(2, n_max, tick_bound, policies, rule, "grid", adversarial, budget), search=True
    )[1]

