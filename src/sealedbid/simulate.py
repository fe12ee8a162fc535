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
from fractions import Fraction
from functools import cache
from operator import eq, getitem, sub
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

    def describe(self) -> str:
        """Stable label for reports: the strategy's ``kind`` unless it says more."""
        return self.kind

    def to_dict(self) -> dict:
        return {"kind": self.describe()}


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
            raise ValueError(f"shade factor must be below one (got {self.describe()})")

    def bid(self, value: Money) -> Money:
        return value * self.numerator // self.denominator

    def describe(self) -> str:
        return f"shade({self.numerator}/{self.denominator})"


class Overbid(Record, Strategy):
    """Bid a fixed amount above value."""

    kind = "overbid"
    delta: int

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"overbid delta must be nonnegative (got {self.delta})")

    def bid(self, value: Money) -> Money:
        return value + self.delta

    def describe(self) -> str:
        return f"overbid({self.delta})"


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
# this many profiles computes what it makes of each distinct profile once
# and looks up its repeats in a table; above it no table is kept, so memory
# stays bounded whatever the value range or the round count.
PROFILE_TABLE_LIMIT = 4096


def _tabled(config: ExperimentConfig) -> bool:
    """Whether ``config``'s profile space holds at most ``PROFILE_TABLE_LIMIT``
    profiles, so that a run memoizes what it makes of each one (a table
    freed with the run)."""
    span = config.value_high - config.value_low + 1
    # A span of 2 or more passes the limit within its bit length of bidders.
    return span ** min(config.n_bidders, PROFILE_TABLE_LIMIT.bit_length()) <= PROFILE_TABLE_LIMIT


def _player(config: ExperimentConfig):
    """``config``'s ``play(block) -> (bids, winners, prices)``: three columns,
    one entry per valuation profile of ``block``.  A tabled config calls
    ``outcome`` once per distinct profile; any other calls ``outcomes`` once
    per block, on the block's bids column.  Each is looked up at each play of
    a block, so a wrapper sees every real evaluation."""
    strategy, policy, rule = config.strategy, config.policy, config.rule

    if _tabled(config):
        @cache
        def play_once(valuations: ValuationProfile) -> tuple[BidProfile, BidderId, Money]:
            bids = apply_strategy(valuations, strategy)
            winner, price = outcome(bids, policy, rule)
            return bids, winner, price

        def play(block: Sequence[ValuationProfile]):
            return tuple(zip(*map(play_once, block)))
    else:
        def play(block: Sequence[ValuationProfile]):
            bids = block if type(strategy) is Truthful else [
                apply_strategy(valuations, strategy) for valuations in block]
            return (bids, *outcomes(bids, policy, rule))

    return play


def _simulate(configs: Sequence[ExperimentConfig], budget: int, sink=None) -> list[SimReport]:
    """The one round loop, a sampled block at a time: sample ``SAMPLE_BLOCK``
    rounds per ``sample_valuations`` call (looked up per block, so a wrapper
    sees every call), play the block under every config (all share the first
    one's sampling parameters), fold each config's columns into exact integer
    sums, and call ``sink(start, block, plays)`` once per block, where round
    ``start + i`` has valuations ``block[i]`` and ``plays`` holds each
    config's ``(bids, winners, prices)`` columns.  The sums are divided once,
    at the end."""
    sampling = configs[0]
    sampling.check_budget(budget)
    rounds = sampling.n_rounds
    totals = [[0, 0, 0] for _ in configs]  # revenue, winner utility, efficient rounds
    players = [(_player(config), total) for config, total in zip(configs, totals)]
    for start in range(0, rounds, SAMPLE_BLOCK):
        block = sample_valuations(sampling, start, min(start + SAMPLE_BLOCK, rounds))
        tops = list(map(max, block))
        plays = []
        for play, total in players:
            played = _, winners, prices = play(block)
            values = list(map(getitem, block, winners))
            revenue = sum(prices)
            total[0] += revenue
            total[1] += sum(values) - revenue
            total[2] += sum(map(eq, values, tops))
            plays.append(played)
        if sink is not None:
            sink(start, block, plays)
    return [SimReport(config, rounds, *(Fraction(value, rounds) for value in total))
            for config, total in zip(configs, totals)]


def run_experiment(config: ExperimentConfig, budget: int = DEFAULT_BUDGET) -> SimReport:
    """Run all rounds and summarize revenue, winner utility, efficiency.

    Integer sums divided once at the end; two runs with equal configs
    produce bit-identical reports.
    """
    return _simulate([config], budget)[0]


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
    """Run two configs on the same sampled valuation stream.

    The configs must agree on every sampling parameter (bidders, rounds,
    value bounds, seed) and may differ in rule, strategy, or tie-break.
    """
    for field in ("n_bidders", "n_rounds", "value_low", "value_high", "seed"):
        if getattr(config_a, field) != getattr(config_b, field):
            raise ValueError(f"mismatched sampling parameters: {field} differs "
                             f"({getattr(config_a, field)} vs {getattr(config_b, field)})")
    lows, highs = [], []  # each block's least and greatest revenue difference

    def track(start, block, plays):
        diffs = list(map(sub, plays[0][2], plays[1][2]))
        lows.append(min(diffs))
        highs.append(max(diffs))

    report_a, report_b = _simulate([config_a, config_b], budget, track)
    return PairedReport(
        report_a=report_a,
        report_b=report_b,
        mean_revenue_diff=report_a.mean_revenue - report_b.mean_revenue,
        mean_winner_utility_diff=report_a.mean_winner_utility - report_b.mean_winner_utility,
        efficiency_rate_diff=report_a.efficiency_rate - report_b.efficiency_rate,
        revenue_diff_min=min(lows),
        revenue_diff_max=max(highs),
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
    joined string per sampled block, the text after the round index built
    once per distinct profile of a small space.
    Nothing is written when the budget refuses the run.
    """
    config.check_budget(budget)
    stream.write("round,valuations,bids,winner,price\n")
    row_text = cache(_row_text) if _tabled(config) else _row_text

    def write(start, block, plays):
        texts = map(row_text, block, *plays[0])
        stream.write("".join(map("{},{}\n".format, range(start, start + len(block)), texts)))

    return _simulate([config], budget, write)[0]
