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
from operator import eq, getitem, mul, sub
from typing import IO, Mapping, Sequence

from .core import (
    BidderId,
    BidProfile,
    DEFAULT_BUDGET,
    Money,
    PaymentRule,
    Record,
    SignedMoney,
    TieBreakPolicy,
    ValuationProfile,
    bidder_count_violation,
    check_budget,
    outcome,
    outcomes,
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
    at ``value_high`` against the tick rule.
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


def apply_strategy(valuations: Sequence[Money], strategy: Strategy) -> BidProfile:
    """Element-wise application of a strategy to a valuation profile."""
    return tuple(map(strategy.bid, valuations))


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


# The rounds that one ``sample_valuations`` call in the round loop draws.  Each
# splitmix64 step then runs on one 4 KiB integer; a longer block saves little
# time per round and adds to peak memory (about 0.5 MiB at 1,024 rounds).
SAMPLE_BLOCK = 256

_LANE_ONE = (1).to_bytes(16, "little")  # one 128-bit lane holding the word 1


def _lanes(words) -> int:
    """One integer holding ``words`` as 128-bit lanes, the first the lowest."""
    return int.from_bytes(b"".join(word.to_bytes(16, "little") for word in words), "little")


LANE_INDEX = _lanes(range(SAMPLE_BLOCK))  # lane r holds r


def sample_valuations(config: ExperimentConfig, start: int, stop: int) -> list[ValuationProfile]:
    """Valuations for rounds ``start..stop-1``, where ``0 <= start <= stop <= 2**64``:
    in round r bidder b draws ``value_low + mix64(seed, r, b) % span``.

    The rounds are sampled together, one 128-bit lane of a single integer
    each, so each ``splitmix64`` call, given the lane-repeated mask and
    increment, steps the whole block at once.  One step on ``head ^ r``,
    where the chain head ``mix64(seed)`` is computed once per call, gives
    every round's prefix ``mix64(seed, r)``; one on ``prefix ^ b`` gives
    bidder b's draws.  A round index is below 2^64, so each lane holds a
    word, as the lane-wise step requires.

    The round lanes are ``start * ones + LANE_INDEX``, cut to the block; a
    range longer than ``SAMPLE_BLOCK`` builds its own index.

    Not exactly uniform on [value_low, value_high]: each tick's chance is
    1 / span up to a relative error of span / 2^64 (``ExperimentConfig``
    refuses a span above 2^64)."""
    if not 0 <= start <= stop <= 1 << 64:
        raise ValueError(f"round range {start}..{stop} outside 0 <= start <= stop <= 2**64")
    count = stop - start
    ones = int.from_bytes(_LANE_ONE * count, "little")
    mask, golden = ones * MASK64, ones * GOLDEN
    index = LANE_INDEX & mask if count <= SAMPLE_BLOCK else _lanes(range(count))
    prefix = splitmix64((start * ones + index) ^ mix64(config.seed) * ones, mask, golden)
    low, span = config.value_low, config.value_high - config.value_low + 1
    words = "<" + "Q8x" * count  # each lane's low word; its high one is skipped
    draws = (splitmix64(prefix ^ bidder * ones, mask, golden).to_bytes(16 * count, "little")
             for bidder in range(config.n_bidders))
    columns = [[low + word % span for word in struct.unpack(words, draw)] for draw in draws]
    return list(zip(*columns))


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
    (a table freed with the run)."""
    span = config.value_high - config.value_low + 1
    # A span of 2 or more passes the limit within its bit length of bidders.
    return span ** min(config.n_bidders, PROFILE_TABLE_LIMIT.bit_length()) <= PROFILE_TABLE_LIMIT


def _play(config: ExperimentConfig, profiles: Sequence[ValuationProfile], tabled: bool):
    """``(bids, winners, prices)`` of ``profiles`` under ``config``: three
    columns, one entry per valuation profile.  Tabled, ``profiles`` are a
    block's profiles new to the run and each is played by ``outcome``;
    untabled, they are the block and ``outcomes`` plays its bids column once.
    Each is looked up at each play, so a wrapper sees every real evaluation."""
    strategy, policy, rule = config.strategy, config.policy, config.rule
    bids = profiles if type(strategy) is Truthful else [
        apply_strategy(valuations, strategy) for valuations in profiles]
    if not tabled:
        return (bids, *outcomes(bids, policy, rule))
    played = [outcome(profile, policy, rule) for profile in bids]
    return bids, [winner for winner, _ in played], [price for _, price in played]


def _fold(totals, profiles, plays, weights=None):
    """Add to each config's ``totals`` (revenue, winner utility, efficient
    rounds) ``weights[i]`` rounds, or one, of each ``profiles[i]``, played as
    each config's ``(winners, prices)`` in ``plays``.  For two configs,
    returns the least and greatest price difference, first minus second."""
    tops = list(map(max, profiles))
    for total, (winners, prices) in zip(totals, plays):
        values = list(map(getitem, profiles, winners))
        columns = prices, values, map(eq, values, tops)
        if weights is not None:
            columns = [map(mul, weights, column) for column in columns]
        revenue, value, efficient = map(sum, columns)
        total[0] += revenue
        total[1] += value - revenue
        total[2] += efficient
    if len(plays) == 2:
        diffs = list(map(sub, plays[0][1], plays[1][1]))
        return min(diffs), max(diffs)


def _simulate(configs: Sequence[ExperimentConfig], budget: int, sink=None):
    """The one round loop, a sampled block at a time (``sample_valuations``
    is looked up per block, so a wrapper sees every call), played under
    every config (all share the first one's sampling parameters, so
    ``_tabled`` is asked once, of the first).  Untabled, each block is
    played and folded whole.  Tabled, a run-wide count of the profiles
    picks each block's new ones, played first seen first (so a fault is
    raised at the round that would raise it untabled), and each distinct
    profile is folded once at the end, weighted by its count.
    ``sink(start, block, profiles, plays)`` runs once per block: round
    ``start + i`` has valuations ``block[i]``; ``plays`` holds each config's
    ``(bids, winners, prices)`` over ``profiles``.  Untabled, ``profiles``
    is ``block`` itself; tabled, it is a new list of the block's profiles
    new to the run.  Returns the reports and the ranges ``_fold`` gave."""
    sampling = configs[0]
    sampling.check_budget(budget)
    rounds = sampling.n_rounds
    totals = [[0, 0, 0] for _ in configs]  # revenue, winner utility, efficient rounds
    tabled = _tabled(sampling)
    counts = Counter()  # tabled: each distinct profile's rounds
    columns = [([], []) for _ in configs]  # tabled: winners and prices per distinct profile
    spans = []
    for start in range(0, rounds, SAMPLE_BLOCK):
        block = profiles = sample_valuations(sampling, start, min(start + SAMPLE_BLOCK, rounds))
        if tabled:
            seen = len(counts)
            counts.update(block)
            profiles = list(counts)[seen:]
        plays = [_play(config, profiles, tabled) for config in configs]
        if tabled:
            for (winners, prices), (_, new_winners, new_prices) in zip(columns, plays):
                winners += new_winners
                prices += new_prices
        else:
            spans.append(_fold(totals, block, [play[1:] for play in plays]))
        if sink is not None:
            sink(start, block, profiles, plays)
    if tabled:
        spans.append(_fold(totals, list(counts), columns, list(counts.values())))
    return [SimReport(config, rounds, *(Fraction(value, rounds) for value in total))
            for config, total in zip(configs, totals)], spans


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
    taken per block, or once over the distinct profiles of a tabled run.
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
    joined string per sampled block.  A tabled run, told apart by a sink
    handed a list other than the block, builds the text after the round
    index once per distinct profile and looks each round's up by its
    valuation profile.  The header goes out with the first block, so nothing
    is written when the budget refuses the run.
    """
    texts = {}  # tabled: each distinct profile's text

    def write(start, block, profiles, plays):
        rows = map(_row_text, profiles, *plays[0])
        if profiles is not block:
            texts.update(zip(profiles, rows))
            rows = map(texts.__getitem__, block)
        rows = "".join(map("{},{}\n".format, range(start, start + len(block)), rows))
        stream.write(rows if start else "round,valuations,bids,winner,price\n" + rows)

    return _simulate([config], budget, write)[0][0]
