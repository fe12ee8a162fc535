"""Monte Carlo harness: determinism, exact statistics, rule comparison."""

import io
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sealedbid import simulate
from sealedbid.core import BudgetExceededError, FirstIndex, PaymentRule, Seeded
from sealedbid.seeding import MASK64, mix64
from sealedbid.simulate import (
    ExperimentConfig,
    Overbid,
    Shade,
    Truthful,
    apply_strategy,
    compare_rules,
    run_experiment,
    sample_valuations,
    strategy_from_dict,
    write_rounds_csv,
)

SECOND = PaymentRule.SECOND_PRICE
FIRST = PaymentRule.FIRST_PRICE


def config(**overrides):
    base = dict(
        n_bidders=3, n_rounds=100, value_low=0, value_high=9,
        rule=SECOND, strategy=Truthful(), policy=FirstIndex(), seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStrategies:
    def test_truthful_is_identity(self):
        assert apply_strategy((3, 6, 4), Truthful()) == (3, 6, 4)

    def test_shade_floor_halving(self):
        assert apply_strategy((3, 6, 4), Shade(1, 2)) == (1, 3, 2)

    def test_overbid_adds_delta(self):
        assert apply_strategy((3, 6, 4), Overbid(2)) == (5, 8, 6)

    def test_shade_factor_must_be_below_one(self):
        with pytest.raises(ValueError):
            Shade(2, 2)
        with pytest.raises(ValueError):
            Shade(3, 2)
        with pytest.raises(ValueError):
            Shade(0, 2)

    def test_overbid_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            Overbid(-1)

    def test_strategy_documents_round_trip(self):
        for strategy in (Truthful(), Shade(2, 3), Overbid(4)):
            clone = strategy_from_dict(strategy.to_dict())
            assert clone == strategy and hash(clone) == hash(strategy)

    def test_unknown_strategy_kind(self):
        with pytest.raises(ValueError):
            strategy_from_dict({"kind": "bluff"})


class TestSampling:
    def test_same_round_same_profile(self):
        cfg = config()
        assert sample_valuations(cfg, 3) == sample_valuations(cfg, 3)

    def test_degenerate_bounds(self):
        cfg = config(value_low=5, value_high=5)
        assert sample_valuations(cfg, 0) == (5, 5, 5)

    def test_values_within_bounds(self):
        cfg = config(value_low=2, value_high=6)
        for round_index in range(50):
            for value in sample_valuations(cfg, round_index):
                assert 2 <= value <= 6

    def test_uniformity_within_five_percent(self):
        # fixed-seed frequency check against the expected 1/5 per tick
        cfg = config(n_bidders=2, n_rounds=10**4, value_low=0, value_high=4, seed=0)
        counts = Counter()
        for round_index in range(cfg.n_rounds):
            counts.update(sample_valuations(cfg, round_index))
        draws = cfg.n_rounds * cfg.n_bidders
        for tick in range(5):
            frequency = counts[tick] / draws
            assert abs(frequency - 0.2) <= 0.01

    def test_rounds_differ(self):
        cfg = config()
        profiles = {sample_valuations(cfg, r) for r in range(20)}
        assert len(profiles) > 1

    @given(
        seed=st.integers(min_value=0, max_value=MASK64),
        round_index=st.integers(min_value=0, max_value=MASK64),
        n_bidders=st.integers(min_value=2, max_value=6),
        value_low=st.integers(min_value=0, max_value=2**70),
        span=st.integers(min_value=1, max_value=2**70),
    )
    @example(seed=MASK64, round_index=0, n_bidders=2, value_low=0, span=1)
    @example(seed=MASK64, round_index=MASK64, n_bidders=3, value_low=5, span=2**64 + 7)
    def test_draws_are_mix64_bit_for_bit(self, seed, round_index, n_bidders, value_low, span):
        cfg = config(n_bidders=n_bidders, value_low=value_low,
                     value_high=value_low + span - 1, seed=seed)
        assert sample_valuations(cfg, round_index) == tuple(
            value_low + mix64(seed, round_index, bidder) % span for bidder in range(n_bidders)
        )


class TestExperimentConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            config(n_bidders=1)
        with pytest.raises(ValueError):
            config(n_rounds=0)
        with pytest.raises(ValueError):
            config(value_low=5, value_high=4)
        with pytest.raises(ValueError):
            config(value_low=-1)
        with pytest.raises(ValueError):
            config(seed=-1)

    def test_document_round_trip(self):
        cfg = config(strategy=Shade(1, 2), policy=Seeded(5), rule=FIRST)
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg and hash(clone) == hash(cfg) and repr(clone) == repr(cfg)

    def test_from_dict_defaults(self):
        cfg = ExperimentConfig.from_dict(
            {"n_bidders": 2, "n_rounds": 10, "value_low": 0, "value_high": 4}
        )
        assert cfg.rule is SECOND
        assert cfg.strategy == Truthful()
        assert cfg.seed == 0

    def test_from_dict_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"n_bidders": 2, "n_rounds": "10", "value_low": 0, "value_high": 4}
            )


class TestRunExperiment:
    def test_bit_identical_reports(self):
        assert run_experiment(config()) == run_experiment(config())

    def test_frozen_reference_report(self):
        # statistics confirmed by an independent pass over the same stream
        report = run_experiment(config())
        assert report.mean_revenue == Fraction(203, 50)
        assert report.mean_winner_utility == Fraction(14, 5)
        assert report.efficiency_rate == 1

    def test_mean_revenue_equals_recomputed_second_highest(self):
        cfg = config(n_rounds=400, seed=123)
        report = run_experiment(cfg)
        total = sum(
            sorted(sample_valuations(cfg, r))[-2] for r in range(cfg.n_rounds)
        )
        assert report.mean_revenue == Fraction(total, cfg.n_rounds)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_truthful_second_price_is_efficient_on_any_seed(self, seed):
        report = run_experiment(config(n_rounds=20, seed=seed))
        assert report.efficiency_rate == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            run_experiment(config(n_rounds=1000), budget=100)

    def test_records_are_built_only_for_a_sink(self, monkeypatch):
        built = []
        real = simulate.RoundRecord

        def counting(*args):
            built.append(None)
            return real(*args)

        monkeypatch.setattr(simulate, "RoundRecord", counting)
        report = run_experiment(config())
        assert built == []
        assert (report.mean_revenue, report.mean_winner_utility,
                report.efficiency_rate) == (Fraction(203, 50), Fraction(14, 5), 1)
        assert write_rounds_csv(config(), io.StringIO()) == report
        assert len(built) == config().n_rounds

    def test_report_document_uses_rational_strings(self):
        doc = run_experiment(config()).to_dict()
        assert doc["mean_revenue"] == "203/50"
        assert doc["efficiency_rate"] == "1/1"
        assert doc["config"]["strategy"] == {"kind": "truthful"}
        assert doc["seed"] == 7


class TestCompareRules:
    def test_identical_configs_give_zero_diffs(self):
        paired = compare_rules(config(), config())
        assert paired.mean_revenue_diff == 0
        assert paired.mean_winner_utility_diff == 0
        assert paired.efficiency_rate_diff == 0
        assert paired.revenue_diff_min == 0
        assert paired.revenue_diff_max == 0

    def test_shading_never_raises_second_price_revenue(self):
        paired = compare_rules(
            config(n_rounds=2000, seed=11),
            config(n_rounds=2000, seed=11, strategy=Shade(1, 2)),
        )
        assert paired.revenue_diff_min >= 0
        assert paired.mean_revenue_diff > 0

    def test_first_price_collects_the_top_bid(self):
        # per round, first minus second price revenue = top - second-highest
        cfg_first = config(n_rounds=500, seed=3, n_bidders=2, rule=FIRST)
        cfg_second = config(n_rounds=500, seed=3, n_bidders=2)
        paired = compare_rules(cfg_first, cfg_second)
        assert paired.revenue_diff_min >= 0
        total_gap = sum(
            max(vals) - sorted(vals)[-2]
            for vals in (sample_valuations(cfg_first, r) for r in range(500))
        )
        assert paired.mean_revenue_diff == Fraction(total_gap, 500)

    def test_samples_each_round_once(self, monkeypatch):
        calls = []
        real = simulate.sample_valuations

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(simulate, "sample_valuations", counting)
        compare_rules(config(n_rounds=40), config(n_rounds=40, rule=FIRST))
        assert len(calls) == 40

    def test_rejects_mismatched_sampling_parameters(self):
        with pytest.raises(ValueError, match="mismatched sampling"):
            compare_rules(config(), config(seed=8))
        with pytest.raises(ValueError, match="mismatched sampling"):
            compare_rules(config(), config(n_rounds=99))


class TestCsv:
    def test_golden_head(self):
        buf = io.StringIO()
        write_rounds_csv(config(n_rounds=4), buf)
        assert buf.getvalue() == (
            "round,valuations,bids,winner,price\n"
            "0,6 8 2,6 8 2,1,6\n"
            "1,2 6 1,2 6 1,1,2\n"
            "2,3 4 4,3 4 4,1,4\n"
            "3,7 9 3,7 9 3,1,7\n"
        )

    def test_shaded_bids_differ_from_valuations(self):
        buf = io.StringIO()
        write_rounds_csv(config(n_rounds=4, strategy=Shade(1, 2)), buf)
        lines = buf.getvalue().splitlines()
        assert lines[1].split(",")[2] == "3 4 1"
