"""Seeded Monte Carlo comparison of payment rules and bidding strategies.

Rounds draw valuation profiles from a counter-based generator keyed by
(seed, round, bidder), so the valuation stream is a pure function of the
config and two configs sharing a seed see identical draws (common random
numbers).  Statistics are exact rationals accumulated from integer
sums; reports are bit-identical across runs and platforms.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator, Mapping, Sequence

from .core import (
    BidderId,
    BidProfile,
    DEFAULT_BUDGET,
    Money,
    PaymentRule,
    SignedMoney,
    TieBreakPolicy,
    ValuationProfile,
    check_budget,
    outcome,
    policy_from_dict,
)
from .seeding import mix64


class Strategy(ABC):
    """Maps a bidder's value to its bid, element-wise over a profile."""

    @abstractmethod
    def bid(self, value: Money) -> Money:
        """Bid placed by a bidder whose value is ``value``."""

    @abstractmethod
    def describe(self) -> str:
        """Stable label for reports."""

    def to_dict(self) -> dict:
        return {"kind": self.describe()}


@dataclass(frozen=True)
class Truthful(Strategy):
    """Bid exactly the value."""

    def bid(self, value: Money) -> Money:
        return value

    def describe(self) -> str:
        return "truthful"


@dataclass(frozen=True)
class Shade(Strategy):
    """Bid below value: floor(value * numerator / denominator)."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator <= 0 or self.denominator <= 0:
            raise ValueError("shade factor needs positive numerator and denominator")
        if self.numerator >= self.denominator:
            raise ValueError(
                f"shade factor must be below one "
                f"(got {self.numerator}/{self.denominator})"
            )

    def bid(self, value: Money) -> Money:
        return value * self.numerator // self.denominator

    def describe(self) -> str:
        return f"shade({self.numerator}/{self.denominator})"

    def to_dict(self) -> dict:
        return {
            "kind": "shade",
            "numerator": self.numerator,
            "denominator": self.denominator,
        }


@dataclass(frozen=True)
class Overbid(Strategy):
    """Bid a fixed amount above value."""

    delta: Money

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError(f"overbid delta must be nonnegative (got {self.delta})")

    def bid(self, value: Money) -> Money:
        return value + self.delta

    def describe(self) -> str:
        return f"overbid({self.delta})"

    def to_dict(self) -> dict:
        return {"kind": "overbid", "delta": self.delta}


def strategy_from_dict(doc: Mapping) -> Strategy:
    """Parse a strategy from its serialized form."""
    kind = doc.get("kind")
    if kind == "truthful":
        return Truthful()
    if kind == "shade":
        num, den = doc.get("numerator"), doc.get("denominator")
        if type(num) is not int or type(den) is not int:
            raise ValueError("shade strategy needs integer numerator and denominator")
        return Shade(num, den)
    if kind == "overbid":
        delta = doc.get("delta")
        if type(delta) is not int:
            raise ValueError("overbid strategy needs an integer delta")
        return Overbid(delta)
    raise ValueError(f"unknown strategy kind {kind!r}")


def apply_strategy(valuations: Sequence[Money], strategy: Strategy) -> BidProfile:
    """Element-wise application of a strategy to a valuation profile."""
    return tuple(strategy.bid(value) for value in valuations)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines an experiment, including all of its randomness."""

    n_bidders: int
    n_rounds: int
    value_low: Money
    value_high: Money
    rule: PaymentRule
    strategy: Strategy
    policy: TieBreakPolicy
    seed: int

    def __post_init__(self):
        if self.n_bidders < 2:
            raise ValueError(f"N >= 2 required (got {self.n_bidders})")
        if self.n_rounds < 1:
            raise ValueError(f"round count must be positive (got {self.n_rounds})")
        if self.value_low < 0:
            raise ValueError(f"negative tick (value_low = {self.value_low})")
        if self.value_low > self.value_high:
            raise ValueError(
                f"value_low {self.value_low} exceeds value_high {self.value_high}"
            )
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed {self.seed} outside unsigned 64-bit range")

    def to_dict(self) -> dict:
        return {
            "n_bidders": self.n_bidders,
            "n_rounds": self.n_rounds,
            "value_low": self.value_low,
            "value_high": self.value_high,
            "rule": self.rule.value,
            "strategy": self.strategy.to_dict(),
            "policy": self.policy.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExperimentConfig":
        def integer(key: str, default=None):
            value = doc.get(key, default)
            if type(value) is not int:
                raise ValueError(f"config field {key!r} must be an integer (got {value!r})")
            return value

        rule_name = doc.get("rule", "second-price")
        strategy_doc = doc.get("strategy", {"kind": "truthful"})
        policy_doc = doc.get("policy", {"kind": "first-index"})
        if not isinstance(strategy_doc, Mapping):
            raise ValueError("config field 'strategy' must be an object")
        if not isinstance(policy_doc, Mapping):
            raise ValueError("config field 'policy' must be an object")
        return cls(
            n_bidders=integer("n_bidders"),
            n_rounds=integer("n_rounds"),
            value_low=integer("value_low"),
            value_high=integer("value_high"),
            rule=PaymentRule.from_name(rule_name),
            strategy=strategy_from_dict(strategy_doc),
            policy=policy_from_dict(policy_doc),
            seed=integer("seed", 0),
        )


def sample_valuations(config: ExperimentConfig, round_index: int) -> ValuationProfile:
    """Valuations for one round: i.i.d. uniform integer ticks on
    [value_low, value_high], each a pure function of (seed, round, bidder)."""
    span = config.value_high - config.value_low + 1
    return tuple(
        config.value_low + mix64(config.seed, round_index, bidder) % span
        for bidder in range(config.n_bidders)
    )


@dataclass(frozen=True)
class RoundRecord:
    """One simulated auction round."""

    index: int
    valuations: ValuationProfile
    bids: BidProfile
    winner: BidderId
    price: Money


def iter_rounds(config: ExperimentConfig) -> Iterator[RoundRecord]:
    """Sample, strategize, and evaluate each round in order."""
    for index in range(config.n_rounds):
        valuations = sample_valuations(config, index)
        bids = apply_strategy(valuations, config.strategy)
        result = outcome(bids, config.policy, config.rule)
        yield RoundRecord(index, valuations, bids, result.winner, result.price)


@dataclass(frozen=True)
class SimReport:
    """Exact-rational summary statistics of one experiment."""

    config: ExperimentConfig
    rounds: int
    mean_revenue: Fraction
    mean_winner_utility: Fraction
    efficiency_rate: Fraction

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "mean_revenue": fraction_text(self.mean_revenue),
            "mean_winner_utility": fraction_text(self.mean_winner_utility),
            "efficiency_rate": fraction_text(self.efficiency_rate),
            "config": self.config.to_dict(),
            "seed": self.config.seed,
        }


def fraction_text(value: Fraction) -> str:
    """Canonical "p/q" rendering, lowest terms, denominator always shown."""
    return f"{value.numerator}/{value.denominator}"


def run_experiment(config: ExperimentConfig, budget: int = DEFAULT_BUDGET) -> SimReport:
    """Run all rounds and summarize revenue, winner utility, efficiency.

    Integer sums divided once at the end; two runs with equal configs
    produce bit-identical reports.
    """
    check_budget(config.n_rounds * config.n_bidders, budget, "sampled values")
    total_revenue = 0
    total_winner_utility = 0
    efficient_rounds = 0
    for record in iter_rounds(config):
        total_revenue += record.price
        total_winner_utility += record.valuations[record.winner] - record.price
        if record.valuations[record.winner] == max(record.valuations):
            efficient_rounds += 1
    rounds = config.n_rounds
    return SimReport(
        config=config,
        rounds=rounds,
        mean_revenue=Fraction(total_revenue, rounds),
        mean_winner_utility=Fraction(total_winner_utility, rounds),
        efficiency_rate=Fraction(efficient_rounds, rounds),
    )


@dataclass(frozen=True)
class PairedReport:
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
        return {
            "a": self.report_a.to_dict(),
            "b": self.report_b.to_dict(),
            "mean_revenue_diff": fraction_text(self.mean_revenue_diff),
            "mean_winner_utility_diff": fraction_text(self.mean_winner_utility_diff),
            "efficiency_rate_diff": fraction_text(self.efficiency_rate_diff),
            "revenue_diff_min": self.revenue_diff_min,
            "revenue_diff_max": self.revenue_diff_max,
        }


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
            raise ValueError(
                f"mismatched sampling parameters: {field} differs "
                f"({getattr(config_a, field)} vs {getattr(config_b, field)})"
            )
    check_budget(config_a.n_rounds * config_a.n_bidders, budget, "sampled values")

    totals_a = [0, 0, 0]  # revenue, winner utility, efficient rounds
    totals_b = [0, 0, 0]
    diff_min = None
    diff_max = None
    for rec_a, rec_b in zip(iter_rounds(config_a), iter_rounds(config_b)):
        for totals, rec in ((totals_a, rec_a), (totals_b, rec_b)):
            totals[0] += rec.price
            totals[1] += rec.valuations[rec.winner] - rec.price
            totals[2] += 1 if rec.valuations[rec.winner] == max(rec.valuations) else 0
        diff = rec_a.price - rec_b.price
        diff_min = diff if diff_min is None else min(diff_min, diff)
        diff_max = diff if diff_max is None else max(diff_max, diff)

    rounds = config_a.n_rounds

    def summarize(config: ExperimentConfig, totals: list) -> SimReport:
        return SimReport(
            config=config,
            rounds=rounds,
            mean_revenue=Fraction(totals[0], rounds),
            mean_winner_utility=Fraction(totals[1], rounds),
            efficiency_rate=Fraction(totals[2], rounds),
        )

    report_a = summarize(config_a, totals_a)
    report_b = summarize(config_b, totals_b)
    return PairedReport(
        report_a=report_a,
        report_b=report_b,
        mean_revenue_diff=report_a.mean_revenue - report_b.mean_revenue,
        mean_winner_utility_diff=report_a.mean_winner_utility - report_b.mean_winner_utility,
        efficiency_rate_diff=report_a.efficiency_rate - report_b.efficiency_rate,
        revenue_diff_min=diff_min,
        revenue_diff_max=diff_max,
    )


def write_rounds_csv(config: ExperimentConfig, stream: IO[str], budget: int = DEFAULT_BUDGET):
    """Dump per-round (values, bids, winner, price) rows as CSV.

    Profile columns hold space-joined ticks so each round stays one row.
    """
    check_budget(config.n_rounds * config.n_bidders, budget, "sampled values")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["round", "valuations", "bids", "winner", "price"])
    for record in iter_rounds(config):
        writer.writerow([
            record.index,
            " ".join(str(v) for v in record.valuations),
            " ".join(str(b) for b in record.bids),
            record.winner,
            record.price,
        ])
