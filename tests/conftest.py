"""Naive reference oracles, and one instrumentation fixture.

The brute-force oracle here is intentionally naive: materialize every
tuple, filter the failures, sort.  It evaluates auctions with
``core.outcome`` alone and shares no code with the enumerator, outcome
table or fold in ``verify``, which must agree with it exactly.  The
auction oracle, ``naive_outcome``, and the simulation oracle built on
it, ``naive_rounds``, recompute each auction and round from ``seeding``
and plain Python, without ``core.outcome``, strategies' ``bid`` or
policies' ``select``.  ``order_statistic_targets`` gives the exact means
that a simulation's sampled means estimate, from order statistics alone.
``assert_case`` judges a row by its case's exact second-price contract.
``interpolate`` is a Lagrange oracle on exact Fractions, from the
standard library alone.
The ``evaluations`` fixture records what a run evaluates and samples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import count, product
from math import comb
from types import SimpleNamespace

import pytest

from sealedbid import cli, simulate, verify
from sealedbid.core import PaymentRule, outcome, standard_policies
from sealedbid.seeding import hash_text, mix64
from sealedbid.verify import CaseTag, Counterexample, DeviationCheckResult

CASES = {
    (True, True): CaseTag.WIN_WIN,
    (True, False): CaseTag.WIN_LOSE,
    (False, True): CaseTag.LOSE_WIN,
    (False, False): CaseTag.LOSE_LOSE,
}


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
            return (f"{case.value}: utilities must be equal "
                    f"(truthful {u_truth} vs deviation {u_dev})")
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


def oracle_cell(bids, dev, bidder, policies, rule, adversarial=True):
    """Rows of one (truthful profile, deviation bid, bidder) cell, rebuilt
    from ``outcome`` alone: ``(u_truth, u_dev, won_truth, won_dev, label)``
    per policy, then (when ``adversarial`` and there are several policies)
    the adversarial pairing of the policy minimizing the truthful utility
    against the one maximizing the deviation utility (first extremal row on
    ties)."""
    v_i = bids[bidder]
    deviated = bids[:bidder] + (dev,) + bids[bidder + 1:]
    rows = []
    for policy in policies:
        o_truth = outcome(bids, policy, rule)
        o_dev = outcome(deviated, policy, rule)
        won_truth, won_dev = o_truth.winner == bidder, o_dev.winner == bidder
        u_truth = v_i - o_truth.price if won_truth else 0
        u_dev = v_i - o_dev.price if won_dev else 0
        rows.append((u_truth, u_dev, won_truth, won_dev, policy.describe()))
    if adversarial and len(rows) > 1:
        indices = range(len(rows))
        worst = rows[min(indices, key=lambda k: rows[k][0])]
        best = rows[max(indices, key=lambda k: rows[k][1])]
        rows.append((
            worst[0], best[1], worst[2], best[3], f"adversarial({worst[4]}|{best[4]})",
        ))
    return rows


def sweep_rows(n_values, tick_bound, rule=PaymentRule.SECOND_PRICE):
    """Every comparison row of the full-grid sweep: all bidder counts in
    ``n_values``, all valuations, all opposing-bid vectors, all deviation
    bids in 0..tick_bound, all four policy kinds plus the adversarial
    pairing.  Utilities, case and pass/fail come from ``oracle_cell``,
    not from the package's enumerator."""
    rows = []
    for n_bidders in n_values:
        policies = standard_policies(n_bidders)
        for others in product(range(tick_bound + 1), repeat=n_bidders - 1):
            for v_i in range(tick_bound + 1):
                for bidder in range(n_bidders):
                    bids = others[:bidder] + (v_i,) + others[bidder:]
                    for dev in range(tick_bound + 1):
                        for u_truth, u_dev, won_truth, won_dev, label in oracle_cell(
                            bids, dev, bidder, policies, rule
                        ):
                            rows.append(DeviationCheckResult(
                                bidder=bidder,
                                truthful_bid=v_i,
                                deviation_bid=dev,
                                truthful_utility=u_truth,
                                deviation_utility=u_dev,
                                case=CASES[won_truth, won_dev],
                                passed=u_truth >= u_dev,
                                pairing=label,
                            ))
    return rows


@pytest.fixture(scope="session")
def vickrey_rows():
    """The standard second-price sweep: N in {2,3}, ticks 0..4."""
    return sweep_rows((2, 3), 4)


def oracle_report(n_bidders, tick_bound, policies, rule, deviations, adversarial):
    """``(pass count, fail count, case counts, counterexample)`` of a grid
    sweep, from every ``oracle_cell`` row in key order: opposing bids,
    valuation, deviation bid, bidder, pairing.  ``deviations`` is "grid",
    "critical" or a list."""
    counts = {tag: 0 for tag in CaseTag}
    passed = failed = 0
    first = None
    for others in product(range(tick_bound + 1), repeat=n_bidders - 1):
        if deviations == "grid":
            devs = range(tick_bound + 1)
        elif deviations == "critical":
            top = max(others)
            devs = sorted({top, top + 1} | ({0} if top > 0 else set()))
        else:
            devs = sorted(deviations)
        for v_i in range(tick_bound + 1):
            for dev in devs:
                for b in range(n_bidders):
                    bids = others[:b] + (v_i,) + others[b:]
                    for u_truth, u_dev, won_truth, won_dev, label in oracle_cell(
                        bids, dev, b, policies, rule, adversarial
                    ):
                        counts[CASES[won_truth, won_dev]] += 1
                        if u_truth >= u_dev:
                            passed += 1
                            continue
                        failed += 1
                        if first is None:
                            first = Counterexample(bids, bids, b, dev, label, u_truth, u_dev)
    return passed, failed, counts, first


def bruteforce_minimal_counterexample(rule, n_max, tick_bound):
    """Reference implementation of the minimal-counterexample search.

    Enumerates every (N, opposing bids, valuation, deviation, bidder,
    pairing) tuple, recomputes both utilities from outcomes alone,
    collects every profitable deviation, and sorts by the ordering key.
    """
    failures = []
    for n_bidders in range(2, n_max + 1):
        policies = standard_policies(n_bidders)
        for others in product(range(tick_bound + 1), repeat=n_bidders - 1):
            for v_i in range(tick_bound + 1):
                for dev in range(tick_bound + 1):
                    for bidder in range(n_bidders):
                        bids = others[:bidder] + (v_i,) + others[bidder:]
                        rows = oracle_cell(bids, dev, bidder, policies, rule)
                        for rank, (u_truth, u_dev, _, _, label) in enumerate(rows):
                            if u_dev > u_truth:
                                key = (n_bidders, others, v_i, dev, bidder, rank)
                                failures.append((key, Counterexample(
                                    valuations=bids,
                                    bids=bids,
                                    bidder=bidder,
                                    deviation_bid=dev,
                                    policy=label,
                                    truthful_utility=u_truth,
                                    deviation_utility=u_dev,
                                )))
    if not failures:
        return None
    failures.sort(key=lambda pair: pair[0])
    return failures[0][1]


def naive_outcome(bids, policy, rule):
    """``(winner, price)`` of one auction, recomputed in plain Python: a
    unique top bidder wins, else the tie-break policy is read by kind; the
    rule is read by its value."""
    ties = [b for b, bid in enumerate(bids) if bid == max(bids)]
    if len(ties) == 1:
        winner = ties[0]
    elif policy.kind == "first-index":
        winner = ties[0]
    elif policy.kind == "last-index":
        winner = ties[-1]
    elif policy.kind == "seeded":
        winner = ties[hash_text(policy.seed, ",".join(map(str, bids))) % len(ties)]
    else:
        winner = policy.choice[tuple(ties)]
    price = sorted(bids)[-2] if rule.value == "second-price" else bids[winner]
    return winner, price


def naive_rounds(config):
    """Every round of a simulation config as ``(valuations, bids, winner,
    price)``, recomputed one round at a time from the config's fields:
    bidder b's value is ``value_low + mix64(seed, round, b) % span``; the
    strategy is read by kind, and the auction is ``naive_outcome``'s."""
    span = config.value_high - config.value_low + 1
    strategy = config.strategy
    rounds = []
    for index in range(config.n_rounds):
        values = tuple(config.value_low + mix64(config.seed, index, b) % span
                       for b in range(config.n_bidders))
        if strategy.kind == "truthful":
            bids = values
        elif strategy.kind == "shade":
            bids = tuple(v * strategy.numerator // strategy.denominator for v in values)
        else:
            bids = tuple(v + strategy.delta for v in values)
        rounds.append((values, bids, *naive_outcome(bids, config.policy, config.rule)))
    return rounds


def interpolate(values, x):
    """The value at ``x`` of the polynomial of degree below ``len(values)``
    that takes ``values[k]`` at each k = 0, 1, ..., by Lagrange's formula
    on exact Fractions."""
    total = Fraction(0)
    for j, value in enumerate(values):
        value = Fraction(value)
        for k in range(len(values)):
            if k != j:
                value *= Fraction(x - k, j - k)
        total += value
    return total


def polynomial_sum(term, count, degree):
    """``term(0) + ... + term(count - 1)``, exactly, for a polynomial ``term``
    of at most ``degree``: the prefix sums are a polynomial of degree + 1 in
    their length, so interpolation through the first degree + 2 of them
    gives any other."""
    sums = [Fraction(0)]
    for q in range(degree + 1):
        sums.append(sums[-1] + term(q))
    return sums[count] if count < len(sums) else interpolate(sums, count)


def order_statistic_mean(g, span, n_bidders, second, period):
    """E[g(X)] for X the highest (or, with ``second``, the second-highest) of
    ``n_bidders`` offsets drawn uniformly from 0..span-1, by Abel summation:
    g(0) + the sum over i of (g(i) - g(i - 1)) P(X >= i), where P(X < i) is
    F^N, or F^N + N F^(N-1) (1 - F), at F = i / span.  Along each residue
    class i = r + period * q, g's increment must be a polynomial in q of
    degree at most 2, so that each class sums exactly by interpolation."""
    def tail(i):
        below = Fraction(i, span)
        return 1 - below ** n_bidders - (
            n_bidders * below ** (n_bidders - 1) * (1 - below) if second else 0)

    total = Fraction(g(0))
    for r in range(1, min(period, span - 1) + 1):
        total += polynomial_sum(
            lambda q: (g(r + period * q) - g(r + period * q - 1)) * tail(r + period * q),
            (span - 1 - r) // period + 1, n_bidders + 2)
    return total


def order_statistic_targets(config):
    """``(mean revenue, revenue variance, efficiency rate)`` that a config's
    sampled means estimate, for values uniform on value_low..value_high, from
    order statistics: a nondecreasing strategy s prices the round at s of the
    top value under first price and of the second-highest under second price.
    The strategy is read by kind, as ``naive_rounds`` reads it; a shade of
    a/b is periodic in b.  A round is efficient when the winner, one of the t
    bidders at the top bid, holds the top value.  The tie-break sees only
    bids, and the values behind one bid level are i.i.d. uniform over its
    p values, so that is the chance that one of t such draws is their
    maximum: the sum over k of (1/p) (k/p)^(t-1).  A strictly increasing
    strategy has p = 1 at every level, so its rate is 1."""
    low, span, n_bidders = config.value_low, config.value_high - config.value_low + 1, \
        config.n_bidders
    strategy, second = config.strategy, config.rule.value == "second-price"
    if strategy.kind == "shade":
        def bid(value):
            return value * strategy.numerator // strategy.denominator
        period = strategy.denominator
    else:
        def bid(value):
            return value + (strategy.delta if strategy.kind == "overbid" else 0)
        period = 1
    mean, square = (order_statistic_mean(lambda i, power=power: bid(low + i) ** power, span,
                                         n_bidders, second, period) for power in (1, 2))
    if period == 1:
        return mean, square - mean ** 2, Fraction(1)
    efficiency, below = Fraction(0), 0
    for size in Counter(map(bid, range(low, low + span))).values():  # levels in bid order
        for ties in range(1, n_bidders + 1):
            top = sum(Fraction(k, size) ** (ties - 1) for k in range(1, size + 1)) / size
            efficiency += (comb(n_bidders, ties) * Fraction(size, span) ** ties
                           * Fraction(below, span) ** (n_bidders - ties) * top)
        below += size
    return mean, square - mean ** 2, efficiency


def tiles(ranges, n_rounds, longest) -> bool:
    """Whether ``ranges``, ``(start, stop)`` pairs in call order, cover rounds
    ``0..n_rounds-1`` in order, each round once, each range nonempty and at
    most ``longest`` rounds long."""
    starts = [start for start, _ in ranges]
    stops = [stop for _, stop in ranges]
    return (starts == [0, *stops[:-1]] and stops[-1:] == [n_rounds]
            and all(0 < stop - start <= longest for start, stop in ranges))


def naive_means(rounds):
    """``(mean revenue, mean winner utility, efficiency rate)`` of ``naive_rounds``."""
    count = len(rounds)
    return (
        Fraction(sum(price for _, _, _, price in rounds), count),
        Fraction(sum(values[winner] - price for values, _, winner, price in rounds), count),
        Fraction(sum(values[winner] == max(values) for values, _, winner, _ in rounds), count),
    )


@pytest.fixture
def evaluations(monkeypatch):
    """What a run evaluates, in call order: ``profiles``, one ``(bids, policy,
    rule)`` per profile that ``outcome`` (as bound in ``verify``, ``simulate``
    and ``cli``) receives, each ``bids`` the object passed, and one ``(index,
    policy, rule)`` per round, or tabled profile, that a
    ``simulate._play_lanes`` call plays, the index running on across calls;
    and ``sampled``, the ``(start, stop)`` range of each
    ``simulate._offset_lanes`` call, which every sampler makes once."""
    seen = SimpleNamespace(profiles=[], sampled=[])
    indices = count()

    def counted(bids, policy, rule):
        seen.profiles.append((bids, policy, rule))
        return outcome(bids, policy, rule)

    def counted_lanes(config, lanes, rounds, keep):
        seen.profiles.extend((next(indices), config.policy, config.rule) for _ in range(rounds))
        return play_lanes(config, lanes, rounds, keep)

    def sampling(config, start, stop):
        seen.sampled.append((start, stop))
        return offset_lanes(config, start, stop)

    for module in (verify, simulate, cli):
        monkeypatch.setattr(module, "outcome", counted)
    play_lanes, offset_lanes = simulate._play_lanes, simulate._offset_lanes
    monkeypatch.setattr(simulate, "_play_lanes", counted_lanes)
    monkeypatch.setattr(simulate, "_offset_lanes", sampling)
    return seen
