"""Seeded Monte Carlo comparison of payment rules and bidding strategies.

Rounds draw valuation profiles from a counter-based generator keyed by
(seed, round, bidder), so the valuation stream is a pure function of the
config and two configs sharing a seed see identical draws (common random
numbers).  Statistics are exact rationals accumulated from integer
sums; reports are bit-identical across runs and platforms.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from typing import IO, Mapping, Sequence

from .core import (
    BidderId,
    BidProfile,
    DEFAULT_BUDGET,
    FirstIndex,
    LastIndex,
    Money,
    PaymentRule,
    Record,
    SignedMoney,
    TieBreakPolicy,
    ValuationProfile,
    bidder_count_violation,
    check_budget,
    outcome,
    policy_from_dict,
    read_fields,
    record_from_dict,
    rule_violation,
    seed_violation,
    tick_violation,
)
from .seeding import GOLDEN, MASK64, mix64, splitmix64


class Strategy(ABC):
    """Maps a bidder's value to its bid, element-wise over a profile.

    ``bid`` must be a pure function of the value, as ``TieBreakPolicy.select``
    must be of the bids: reports are reproducible only if it is, and the
    simulation plays each distinct valuation profile of a small profile
    space once and reuses the round's bids, winner and price.  It must also
    be nondecreasing in the value: ``ExperimentConfig`` checks only the bid
    at ``value_high`` against the tick rule, and a run refuses, at the block
    that first draws it, a bid below the bid at ``value_low`` or 2^64 or
    more above it.
    """

    @abstractmethod
    def bid(self, value: Money) -> Money:
        """Bid placed by a bidder whose value is ``value``."""

    def to_dict(self) -> dict:
        """The document of a strategy that is not a ``Record``: its kind alone."""
        return {"kind": self.kind}


class Truthful(Record, Strategy):
    """Bid exactly the value."""

    kind = "truthful"

    def bid(self, value: Money) -> Money:
        return value


class Shade(Record, Strategy):
    """Bid below value: floor(value * numerator / denominator)."""

    kind = "shade"
    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator <= 0 or self.denominator <= 0:
            raise ValueError("shade factor needs positive numerator and denominator")
        if self.numerator >= self.denominator:
            raise ValueError(f"shade factor must be below one "
                             f"(got shade({self.numerator}/{self.denominator}))")

    def bid(self, value: Money) -> Money:
        return value * self.numerator // self.denominator


class Overbid(Record, Strategy):
    """Bid a fixed amount above value."""

    kind = "overbid"
    delta: int

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"overbid delta must be nonnegative (got {self.delta})")

    def bid(self, value: Money) -> Money:
        return value + self.delta


def strategy_from_dict(doc: Mapping) -> Strategy:
    """Parse a strategy from its document."""
    return record_from_dict(doc, "strategy", (Truthful, Shade, Overbid))


class ExperimentConfig(Record, label="config"):
    """Fully determines an experiment, including all of its randomness: bidder
    b's value in round r is ``value_low + mix64(seed, r, b) % span``, where
    ``span = value_high - value_low + 1`` is at most 2^64, so that every tick
    can be drawn (``sample_valuations`` states its bias)."""

    n_bidders: int
    n_rounds: int
    value_low: Money
    value_high: Money
    rule: PaymentRule
    strategy: Strategy
    policy: TieBreakPolicy
    seed: int

    def __post_init__(self):
        if fault := rule_violation(self.rule) or bidder_count_violation(self.n_bidders):
            raise ValueError(fault)  # as outcome would, but before any round
        if self.n_rounds < 1:
            raise ValueError(f"round count must be positive (got {self.n_rounds})")
        for bound in ("value_low", "value_high"):
            if fault := tick_violation(bound, getattr(self, bound)):
                raise ValueError(fault)
        if self.value_low > self.value_high:
            raise ValueError(f"value_low {self.value_low} exceeds value_high {self.value_high}")
        # A draw is a 64-bit word reduced mod span: a wider span has ticks no round can draw.
        if self.value_high - self.value_low >= 1 << 64:
            raise ValueError(f"value span value_high - value_low + 1 exceeds 2**64 "
                             f"(value_low {self.value_low}, value_high {self.value_high})")
        # Every strategy bids nondecreasingly in the value: its bid at value_high
        # is the highest a run can place, price or print.
        top = self.strategy.bid(self.value_high)
        if fault := tick_violation("strategy.bid(value_high)", top):
            raise ValueError(fault)
        # A report prints sums over the rounds of prices and utilities, each within
        # max(value_high, top), and compare_rules the difference of two such sums.
        bound = 2 * self.n_rounds * max(self.value_high, top)
        if fault := tick_violation("2 * n_rounds * max(value_high, strategy.bid(value_high))",
                                   bound):
            raise ValueError(fault)
        if fault := seed_violation(self.seed):
            raise ValueError(fault)
        for name in ("strategy", "policy"):  # a report writes both: refuse one it cannot
            try:
                getattr(self, name).to_dict()
            except AttributeError as error:  # a strategy or policy class with no kind
                raise ValueError(f"{name} cannot be written to a report: {error}") from error

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        return read_fields(
            cls, doc, {"seed": 0}, rule=PaymentRule(doc.get("rule", "second-price")),
            strategy=strategy_from_dict(doc.get("strategy", {"kind": "truthful"})),
            policy=policy_from_dict(doc.get("policy", {"kind": "first-index"})),
        )

    def check_budget(self, budget: int):
        """Refuse, before any round runs, a run sampling over ``budget`` values."""
        check_budget(self.n_rounds * self.n_bidders, budget, "sampled values")


# The rounds that one sampler call in the round loop draws.  Each splitmix64
# step then runs on one 4 KiB integer; a longer block saves little time per
# round and adds to peak memory (about 0.5 MiB at 1,024 rounds).
SAMPLE_BLOCK = 256


def _lanes(words: Sequence[int]) -> int:
    """One integer holding ``words`` as 128-bit lanes, the first the lowest.
    Each word must lie in 0..2^64 - 1: ``struct`` raises on any other."""
    return int.from_bytes(struct.pack("<" + "Q8x" * len(words), *words), "little")


# Sized for an untabled run's full block and its last one.  A tabled run's
# blocks with new profiles mostly miss it, at under 0.1 ms each.
@lru_cache(maxsize=2)
def _lane_constants(count: int) -> tuple[int, int, int, int]:
    """``ones``, holding 1 in each of ``count`` 128-bit lanes; the mask and
    increment repeated in each; and the lanes of ``range(count)``."""
    ones = int.from_bytes((1).to_bytes(16, "little") * count, "little")
    return ones, ones * MASK64, ones * GOLDEN, _lanes(range(count))


def _offset_lanes(config: ExperimentConfig, start: int, stop: int):
    """For rounds ``start..stop-1``, an iterator of one integer per bidder,
    made when it is reached, whose 128-bit lane i holds the bidder's offset
    ``mix64(seed, start + i, b) % span``."""
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError(f"round range {start}..{stop} outside 0 <= start <= stop <= 2**64")
    ones, mask, golden, index = _lane_constants(stop - start)
    prefix = splitmix64((start * ones + index) ^ mix64(config.seed) * ones, mask, golden)
    words = (splitmix64(prefix ^ bidder * ones, mask, golden)
             for bidder in range(config.n_bidders))
    span = config.value_high - config.value_low + 1
    if span & span - 1 == 0:  # a power of 2, 2^64 among them
        return (word & ones * (span - 1) for word in words)
    shift = 63 + span.bit_length()  # 64 + l
    multiplier = -(-(1 << shift) // span)  # m, rounded up
    down = multiplier * span - (1 << shift) > 1 << shift - 64
    multiplier -= down  # rounded down, on w + 1
    low_bits = ones * ((1 << 128 - shift) - 1)
    return (word - ((word + ones if down else word) * multiplier >> shift & low_bits) * span
            for word in words)


def _words(lanes: int, count: int) -> tuple[int, ...]:
    """The low words of the first ``count`` 128-bit lanes of ``lanes``."""
    return struct.unpack("<" + "Q8x" * count, lanes.to_bytes(16 * count, "little"))


def sample_valuations(config: ExperimentConfig, start: int, stop: int) -> list[ValuationProfile]:
    """Valuations for rounds ``start..stop-1``, where ``0 <= start <= stop <= 2**64``:
    in round r bidder b draws ``value_low + mix64(seed, r, b) % span``.

    The rounds are sampled together, one 128-bit lane of a single integer
    each, so each ``splitmix64`` call, given the lane-repeated mask and
    increment, steps the whole block at once.  One step on ``head ^ r``,
    where the chain head ``mix64(seed)`` is computed once per call, gives
    every round's prefix ``mix64(seed, r)``; one on ``prefix ^ b`` gives
    bidder b's words w.  A round index is below 2^64, so each lane holds a
    word, as the lane-wise step requires.

    One bidder at a time, the words are reduced mod span in their lanes,
    exactly: a power-of-2 span is a lane mask; otherwise, with ``l =
    floor(log2 span)`` and ``m = ceil(2^(64+l) / span)``, the quotient is
    ``q = (w * m) >> (64 + l)`` when ``m * span - 2^(64+l) <= 2^l``, else
    ``((w + 1) * (m - 1)) >> (64 + l)``, and the offset ``w - q * span``.
    Each product is below 2^128, so it stays in its lane, and ``q <
    2^(64-l)``, so one lane mask drops the bits the shift pulls in from the
    lane above.  ``value_low`` is added to each offset word, so a value
    may pass 2^64.

    Not exactly uniform on [value_low, value_high]: each tick's chance is
    1 / span up to a relative error of span / 2^64 (``ExperimentConfig``
    refuses a span above 2^64)."""
    lanes, count, low = _offset_lanes(config, start, stop), stop - start, config.value_low
    return list(zip(*[[low + word for word in _words(lane, count)] for lane in lanes]))


def sample_indices(config: ExperimentConfig, start: int, stop: int) -> tuple[int, ...]:
    """Each round's profile index, for rounds ``start..stop-1``:
    ``sample_valuations``'s offsets ``value - value_low`` read as base-span
    digits, bidder 0 the most significant, combined lane-wise by Horner's
    rule.  An index must fit a lane's low word: a config with more than
    2^64 profiles is refused."""
    span, index = config.value_high - config.value_low + 1, 0
    if span ** min(config.n_bidders, 65) > 1 << 64:  # span >= 2 passes within 65 bidders
        raise ValueError(f"profile space {span}**{config.n_bidders} exceeds 2**64")
    for lane in _offset_lanes(config, start, stop):
        index = index * span + lane
    return _words(index, stop - start)


class SimReport(Record):
    """Exact-rational summary statistics of one experiment."""

    config: ExperimentConfig
    rounds: int
    mean_revenue: Fraction
    mean_winner_utility: Fraction
    efficiency_rate: Fraction

    def to_dict(self) -> dict:
        """The record's document, with the config's seed repeated at the top."""
        return {**super().to_dict(), "seed": self.config.seed}


# A config whose valuation profile space, span ** n_bidders, holds at most
# this many profiles plays and folds each distinct profile once, weighted by
# its count of rounds; above it no table is kept, so memory stays bounded
# whatever the value range or the round count.
PROFILE_TABLE_LIMIT = 4096


def _tabled(config: ExperimentConfig) -> bool:
    """Whether ``config``'s profile space holds at most ``PROFILE_TABLE_LIMIT``
    profiles, so that a run counts its distinct profiles and plays each once
    (a count freed with the run)."""
    span = config.value_high - config.value_low + 1
    # A span of 2 or more passes the limit within its bit length of bidders.
    return span ** min(config.n_bidders, PROFILE_TABLE_LIMIT.bit_length()) <= PROFILE_TABLE_LIMIT


def _play_lanes(config: ExperimentConfig, lanes: Sequence[int], count: int, keep: bool):
    """Play ``count`` rounds under ``config`` in 128-bit lanes, given
    ``lanes``, one integer per bidder whose lane i holds round i's value
    offset ``value - value_low`` (a tabled run passes its new profiles as
    the rounds).

    A bid lane holds offsets from ``strategy.bid(value_low)``: the value
    lane itself for ``Truthful`` and ``Overbid``; for any other strategy
    each word's bid, packed back into lanes, and refused unless it lies
    within 2^64 - 1 above that base.  The top bid, the second bid and, if
    kept, the winner are lanes too.  With G bit 64 of each lane, ``g = ((x
    | G) - y) & G`` holds G in a lane where x >= y: both words are below
    2^64, so a lane borrows only from its own guard bit.  Its spread ``g -
    (g >> 64)`` is a select mask m, all ones in the low word of each such
    lane, applied as ``a ^ ((a ^ b) & m)``; the mask of x > y is the
    low-word complement of y >= x's.  A bidder takes the top from a lower
    bid, and under ``LastIndex`` from an equal one too, so ``FirstIndex``
    and ``LastIndex`` need no ``select``.  Any other policy's ``select``
    runs through ``outcome``, in round order, on tied rounds (top ==
    second) only, as ``TieBreakPolicy`` states.  So a fault is raised at
    the round, and with the message, of a per-round play.

    The price lane holds offsets from the base bid: the top bid under first
    price and the second under second price, whoever wins.  Where bids are
    value offsets, the winner's value lane is the top bid's and the
    efficiency lane, 1 where the winner holds the top value, is all ones;
    else the winners' values are packed into a lane and compared with the
    top value's.  Returns the rounds' valuations with ``keep`` (else None);
    their bids and winners, one entry per round, None unless kept; and the
    price, winner value offset and efficiency lanes."""
    low, (ones, full) = config.value_low, _lane_constants(count)[:2]
    guard, base, policy = ones << 64, config.strategy.bid(low), config.policy

    def at_least(x: int, y: int) -> int:  # all ones in a lane's low word where x >= y, else 0
        g = ((x | guard) - y) & guard
        return g - (g >> 64)

    reuse = type(config.strategy) in (Truthful, Overbid)
    # Unpack each round's values and bids where a select, a strategy or a sink needs them.
    keep = keep or not reuse or type(policy) not in (FirstIndex, LastIndex)
    last = type(policy) is LastIndex
    values, columns, top, second, winner, peak = [], [], 0, 0, 0, 0
    for bidder, lane in enumerate(lanes):
        if keep:
            words = _words(lane, count)
            values.append([low + word for word in words] if low else words)
        if reuse:
            bids = lane
            column = keep and (values[-1] if base == low else [base + word for word in words])
        else:  # the top value, which a winner at the top bid may lack
            peak ^= (peak ^ lane) & at_least(lane, peak)
            column = list(map(config.strategy.bid, values[-1]))
            if min(column) < base or max(column) - base > MASK64:
                raise ValueError(
                    f"strategy {config.strategy.kind!r} bids outside {base}..{base + MASK64}: "
                    f"a strategy must bid nondecreasingly, within 2**64 - 1 ticks of its "
                    f"bid at value_low")
            bids = _lanes([bid - base for bid in column])
        if keep:
            columns.append(column)
        if not bidder:
            top = bids
            continue
        mask = at_least(bids, top) if last else full ^ at_least(top, bids)
        swap = (top ^ bids) & mask
        lower = bids ^ swap  # the lower of the bid and the top
        top ^= swap
        second ^= (second ^ lower) & at_least(lower, second)
        if keep:
            winner ^= (winner ^ bidder * ones) & mask
    bids = winners = None
    if keep:
        bids, winners, rounds = list(zip(*columns)), list(_words(winner, count)), ()
        if type(policy) not in (FirstIndex, LastIndex):
            ties = at_least(second, top)
            rounds = [r for r, tie in enumerate(_words(ties, count)) if tie] if ties else ()
        for r in rounds:
            winners[r] = outcome(bids[r], policy, config.rule)[0]
    price = top if config.rule is PaymentRule.FIRST_PRICE else second
    # A top bidder's value offset is its bid offset, where the strategy reuses the lanes.
    if reuse:
        return (list(zip(*values)) if keep else None), bids, winners, price, top, ones
    won = _lanes([values[pick][r] - low for r, pick in enumerate(winners)])
    return list(zip(*values)), bids, winners, price, won, at_least(won, peak) & ones


def _simulate(configs: Sequence[ExperimentConfig], budget: int, sink=None):
    """The one round loop, a sampled block at a time, played by
    ``_play_lanes`` under each config in turn (all share the first one's
    sampling parameters, so ``_tabled`` is asked once, of the first, and
    each block's lanes are read once for every config).  Untabled, the
    lanes are the block's ``_offset_lanes``, and each config adds each
    block's price, winner value and efficiency lanes into run-wide lane
    totals, read after the last block: a run has at most 2^64 rounds, so each lane
    of a total stays below 2^120, and the read takes both 64-bit halves of
    each.  Tabled, a run-wide count of the rounds' profile indices picks
    each block's new ones; their base-span digits are the lanes, played
    first seen first (so a fault is raised at the round that would raise
    it untabled), and each distinct profile's price, winner value and
    efficiency are folded once at the end, weighted by its count.  Either
    way the prices are offsets from the base bid ``strategy.bid(value_low)``,
    which the report adds once per round.  Price words are unpacked only
    where a round's price is read: the tabled columns, the sink and a
    comparison's differences.  Each sampler and the player are looked up
    per block, so a wrapper sees every call.  ``sink(start, keys, new,
    profiles, plays)`` runs once per block: ``profiles`` are the valuations
    just played, ``new`` their keys and ``keys`` each round's key, and
    ``plays`` holds each config's ``(bids, winners, prices)`` over
    ``profiles``.  Tabled, a key is a profile index and ``new`` the block's
    indices new to the run; untabled, ``keys`` and ``new`` are both the
    block's positions.  Returns the reports and the least and greatest
    price difference of two configs over each block's rounds, or new
    profiles."""
    sampling = configs[0]
    sampling.check_budget(budget)
    rounds, low, keep = sampling.n_rounds, sampling.value_low, sink is not None
    span, bases = sampling.value_high - low + 1, [config.strategy.bid(low) for config in configs]
    # Each config's price offsets, winner value offsets and efficient rounds:
    # untabled, a lane total of each; tabled, a column of each, one entry
    # per distinct profile.
    totals = [[0, 0, 0] for _ in configs]
    columns = [([], [], []) for _ in configs]
    tabled, counts, spans = _tabled(sampling), Counter(), []
    for start in range(0, rounds, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, rounds)
        if tabled:
            seen = len(counts)
            counts.update(keys := sample_indices(sampling, start, stop))
            new = list(counts)[seen:]
            lanes = [_lanes([index // span ** place % span for index in new])
                     for place in reversed(range(sampling.n_bidders))]
        else:
            keys = new = range(stop - start)
            lanes = list(_offset_lanes(sampling, start, stop))
        count, profiles, plays = len(new), (), [((), (), ())] * len(configs)
        if count:
            plays = []
            for config, base, total, column in zip(configs, bases, totals, columns):
                profiles, bids, winners, *figures = _play_lanes(config, lanes, count, keep)
                if tabled:
                    for entries, lane in zip(column, figures):
                        entries.extend(_words(lane, count))
                else:
                    total[:] = map(add, total, figures)
                if keep or len(configs) == 2:
                    prices = _words(figures[0], count)
                    plays.append((bids, winners, [base + price for price in prices] if base
                                  else prices))
            if len(plays) == 2:
                diffs = list(map(sub, plays[0][2], plays[1][2]))
                spans.append((min(diffs), max(diffs)))
        if keep:
            sink(start, keys, new, profiles, plays)
    if tabled:
        weights = list(counts.values())
        totals = [[sum(map(mul, weights, figures)) for figures in column] for column in columns]
    else:
        width = min(rounds, SAMPLE_BLOCK)  # the lanes of the first block, the widest
        totals = [[sum(_words(lanes, width)) + (sum(_words(lanes >> 64, width)) << 64)
                   for lanes in total] for total in totals]
    return [SimReport(config, rounds, *(Fraction(figure, rounds) for figure in (
                revenue + base * rounds, value + (low - base) * rounds - revenue, efficient)))
            for config, base, (revenue, value, efficient) in zip(configs, bases, totals)], spans


def run_experiment(config: ExperimentConfig, budget: int = DEFAULT_BUDGET) -> SimReport:
    """Run all rounds and summarize revenue, winner utility, efficiency.

    Integer sums divided once at the end; two runs with equal configs
    produce bit-identical reports.
    """
    return _simulate([config], budget)[0][0]


class PairedReport(Record):
    """Two experiments on the same valuation stream, with exact differences
    (first minus second) and the per-round revenue difference range."""

    report_a: SimReport
    report_b: SimReport
    mean_revenue_diff: Fraction
    mean_winner_utility_diff: Fraction
    efficiency_rate_diff: Fraction
    revenue_diff_min: SignedMoney
    revenue_diff_max: SignedMoney

    def to_dict(self) -> dict:
        """The record's document, with the two reports keyed ``a`` and ``b``."""
        doc = super().to_dict()
        doc["a"], doc["b"] = doc.pop("report_a"), doc.pop("report_b")
        return doc


def compare_rules(
    config_a: ExperimentConfig,
    config_b: ExperimentConfig,
    budget: int = DEFAULT_BUDGET,
) -> PairedReport:
    """Run two configs on the same sampled valuation stream: they must agree
    on every sampling parameter (bidders, rounds, value bounds, seed) and may
    differ in rule, strategy, or tie-break.  The revenue difference range is
    taken per block, over its rounds, or over a tabled run's new profiles.
    """
    for field in ("n_bidders", "n_rounds", "value_low", "value_high", "seed"):
        if getattr(config_a, field) != getattr(config_b, field):
            raise ValueError(f"mismatched sampling parameters: {field} differs "
                             f"({getattr(config_a, field)} vs {getattr(config_b, field)})")
    (report_a, report_b), spans = _simulate([config_a, config_b], budget)
    return PairedReport(
        report_a=report_a,
        report_b=report_b,
        mean_revenue_diff=report_a.mean_revenue - report_b.mean_revenue,
        mean_winner_utility_diff=report_a.mean_winner_utility - report_b.mean_winner_utility,
        efficiency_rate_diff=report_a.efficiency_rate - report_b.efficiency_rate,
        revenue_diff_min=min(low for low, _ in spans),
        revenue_diff_max=max(high for _, high in spans),
    )


def _row_text(valuations: ValuationProfile, bids: BidProfile, winner: BidderId,
              price: Money) -> str:
    """A round's CSV row after its index."""
    return f"{' '.join(map(str, valuations))},{' '.join(map(str, bids))},{winner},{price}"


def write_rounds_csv(config: ExperimentConfig, stream: IO[str],
                     budget: int = DEFAULT_BUDGET) -> SimReport:
    """Run the experiment, dumping per-round (values, bids, winner, price)
    rows as CSV, and return the report of the same rounds.

    Profile columns hold space-joined ticks so each round stays one row; no
    field ever needs CSV quoting, so rows are written as plain text, one
    joined string per sampled block.  The text after the round index is
    built once per played profile, keyed as the sink is handed it, and
    each round's is looked up by its key: a tabled run so renders each
    distinct profile once, and an untabled one each round once.  The
    header goes out with the first block, so nothing is written when the
    budget refuses the run.
    """
    texts = {}  # each played profile's text by its key: at most a block untabled

    def write(start, keys, new, profiles, plays):
        texts.update(zip(new, map(_row_text, profiles, *plays[0])))
        rows = "".join([f"{index},{texts[key]}\n" for index, key in enumerate(keys, start)])
        stream.write(rows if start else "round,valuations,bids,winner,price\n" + rows)

    return _simulate([config], budget, write)[0][0]
