"""Monte Carlo harness: determinism, exact statistics, rule comparison."""

import io
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_means, naive_rounds, order_statistic_targets, tiles
from sealedbid import simulate
from sealedbid.core import (
    BudgetExceededError,
    ExplicitChoice,
    FirstIndex,
    LastIndex,
    PaymentRule,
    Seeded,
    TieBreakPolicy,
    outcome,
)
from sealedbid.reporting import canonical_json
from sealedbid.seeding import MASK64, mix64
from sealedbid.simulate import (
    PROFILE_TABLE_LIMIT,
    SAMPLE_BLOCK,
    ExperimentConfig,
    Overbid,
    Shade,
    Strategy,
    Truthful,
    compare_rules,
    run_experiment,
    sample_indices,
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
        assert [Truthful().bid(value) for value in (3, 6, 4)] == [3, 6, 4]

    def test_shade_floor_halving(self):
        assert [Shade(1, 2).bid(value) for value in (3, 6, 4)] == [1, 3, 2]

    def test_overbid_adds_delta(self):
        assert [Overbid(2).bid(value) for value in (3, 6, 4)] == [5, 8, 6]

    def test_shade_factor_must_be_below_one(self):
        with pytest.raises(ValueError):
            Shade(2, 2)
        with pytest.raises(ValueError):
            Shade(3, 2)
        with pytest.raises(ValueError):
            Shade(0, 2)
        with pytest.raises(ValueError) as info:
            Shade(3, 2)
        assert str(info.value) == "shade factor must be below one (got shade(3/2))"

    def test_overbid_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            Overbid(-1)

    @pytest.mark.parametrize("cls, fields, fault", [
        (Shade, {"numerator": 1.5, "denominator": 4}, "shade field 'numerator' must be an integer (got 1.5)"),
        (Shade, {"numerator": 1, "denominator": True}, "shade field 'denominator' must be an integer (got True)"),
        (Overbid, {"delta": 0.5}, "overbid field 'delta' must be an integer (got 0.5)"),
        (Overbid, {"delta": True}, "overbid field 'delta' must be an integer (got True)"),
    ], ids=["shade-float", "shade-bool", "overbid-float", "overbid-bool"])
    def test_a_non_int_field_is_refused_at_construction(self, cls, fields, fault):
        """Refused as the strategy's document is, before any round runs."""
        for make in (lambda: cls(**fields), lambda: strategy_from_dict({"kind": cls.kind, **fields})):
            with pytest.raises(ValueError) as info:
                make()
            assert str(info.value) == fault

    def test_a_config_refuses_a_bid_past_the_digit_cap(self):
        with pytest.raises(ValueError) as info:
            config(strategy=Overbid(10**5000))
        assert str(info.value) == (
            "tick too large (strategy.bid(value_high) + 1 has more than 4300 digits)")

    @pytest.mark.parametrize("strategy, doc", [
        (Truthful(), {"kind": "truthful"}),
        (Shade(3, 4), {"kind": "shade", "numerator": 3, "denominator": 4}),
        (Overbid(2), {"kind": "overbid", "delta": 2}),
    ], ids=["truthful", "shade", "overbid"])
    def test_strategy_documents_round_trip(self, strategy, doc):
        assert strategy.to_dict() == doc
        clone = strategy_from_dict(doc)
        assert clone == strategy and hash(clone) == hash(strategy)

    def test_a_strategy_that_is_not_a_record_writes_its_kind(self):
        class Halve(Strategy):
            kind = "halve"

            def bid(self, value):
                return value // 2

        report = run_experiment(config(strategy=Halve()))
        assert report.to_dict()["config"]["strategy"] == {"kind": "halve"}
        assert '"strategy":{"kind":"halve"}' in canonical_json(report.to_dict())

    @pytest.mark.parametrize("doc", [
        {"kind": "bluff"}, {"kind": "overbid"}, {"kind": "overbid", "delta": True},
        {"kind": "shade", "numerator": 1}, [1],
    ])
    def test_malformed_strategy_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            strategy_from_dict(doc)


class TestSampling:
    def test_same_round_same_profile(self):
        cfg = config()
        assert sample_valuations(cfg, 3, 5) == sample_valuations(cfg, 0, 5)[3:]

    def test_degenerate_bounds(self):
        cfg = config(value_low=5, value_high=5)
        assert sample_valuations(cfg, 0, 2) == [(5, 5, 5), (5, 5, 5)]

    def test_values_within_bounds(self):
        cfg = config(value_low=2, value_high=6)
        for valuations in sample_valuations(cfg, 0, 50):
            for value in valuations:
                assert 2 <= value <= 6

    def test_uniformity_within_five_percent(self):
        # fixed-seed frequency check against the expected 1/5 per tick
        cfg = config(n_bidders=2, n_rounds=10**4, value_low=0, value_high=4, seed=0)
        counts = Counter()
        for valuations in sample_valuations(cfg, 0, cfg.n_rounds):
            counts.update(valuations)
        draws = cfg.n_rounds * cfg.n_bidders
        for tick in range(5):
            frequency = counts[tick] / draws
            assert abs(frequency - 0.2) <= 0.01

    def test_rounds_differ(self):
        cfg = config()
        profiles = set(sample_valuations(cfg, 0, 20))
        assert len(profiles) > 1

    # A negative round is not mix64's, a reversed range has no length, and from
    # round 2^64 on the rounds would repeat round 0 onward.
    @pytest.mark.parametrize("start, stop", [
        (-3, -1), (-1, 2), (5, 3), (2**64, 2**64 + 1), (2**64 - 1, 2**64 + 1),
    ])
    def test_refuses_a_round_range_outside_0_to_2_to_the_64(self, start, stop):
        with pytest.raises(ValueError, match=rf"^round range {start}\.\.{stop} outside "
                                             r"0 <= start <= stop <= 2\*\*64$"):
            sample_valuations(config(), start, stop)

    def test_an_empty_range_ends_at_2_to_the_64(self):
        assert sample_valuations(config(), 2**64, 2**64) == []

    @given(
        seed=st.integers(min_value=0, max_value=MASK64),
        start=st.integers(min_value=0, max_value=2**64 - (2 * SAMPLE_BLOCK + 1)),
        length=st.integers(min_value=0, max_value=2 * SAMPLE_BLOCK + 1),
        n_bidders=st.integers(min_value=2, max_value=6),
        value_low=st.integers(min_value=0, max_value=2**70),
        span=st.integers(min_value=1, max_value=2**64),
    )
    @example(seed=MASK64, start=0, length=1, n_bidders=2, value_low=0, span=1)
    @example(seed=MASK64, start=MASK64, length=1, n_bidders=3, value_low=5, span=2**64)
    @example(seed=0, start=SAMPLE_BLOCK, length=SAMPLE_BLOCK, n_bidders=4, value_low=2**70,
             span=10**6 + 1)
    @example(seed=7, start=2**64 - (2 * SAMPLE_BLOCK + 1), length=2 * SAMPLE_BLOCK + 1,
             n_bidders=2, value_low=0, span=2**64 - 1)
    def test_draws_are_mix64_bit_for_bit(self, seed, start, length, n_bidders, value_low, span):
        cfg = config(n_bidders=n_bidders, value_low=value_low,
                     value_high=value_low + span - 1, seed=seed)
        assert sample_valuations(cfg, start, start + length) == [
            tuple(value_low + mix64(seed, r, bidder) % span for bidder in range(n_bidders))
            for r in range(start, start + length)
        ]

    # Every bit length of span, so that about half the spans that are not a
    # power of 2 need the rounded-down multiplier: with the rounded-up one
    # alone, some lanes of those come out wrong or negative.
    @given(
        seed=st.integers(min_value=0, max_value=MASK64),
        start=st.integers(min_value=0, max_value=2**64 - (SAMPLE_BLOCK + 1)),
        length=st.integers(min_value=0, max_value=SAMPLE_BLOCK + 1),
        span=st.integers(1, 64).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits)),
        value_low=st.sampled_from([0, 5, 2**70]) | st.integers(min_value=0, max_value=2**70),
    )
    @example(seed=1, start=0, length=3, span=1, value_low=0)
    @example(seed=2, start=9, length=40, span=2, value_low=5)
    @example(seed=3, start=0, length=SAMPLE_BLOCK, span=7, value_low=2**70)
    @example(seed=4, start=2**64 - 5, length=5, span=8, value_low=0)
    @example(seed=5, start=0, length=SAMPLE_BLOCK + 1, span=2**63, value_low=5)
    @example(seed=6, start=2**64 - 9, length=9, span=2**63 + 1, value_low=2**70)
    @example(seed=7, start=2**64 - 1, length=1, span=2**64 - 1, value_low=0)
    @example(seed=8, start=2**64 - SAMPLE_BLOCK, length=SAMPLE_BLOCK, span=2**64, value_low=5)
    @example(seed=9, start=100, length=SAMPLE_BLOCK, span=10**6 + 1, value_low=2**70)
    @example(seed=MASK64, start=2**64 - 3, length=3, span=2**64, value_low=2**70)
    def test_lane_offsets_are_mix64_mod_span(self, seed, start, length, span, value_low):
        # The lane core's integers, one per bidder, hold in 128-bit lane i
        # round start + i's offset below span and nothing past the last lane;
        # sample_valuations adds value_low to each.
        cfg = config(n_bidders=2, value_low=value_low, value_high=value_low + span - 1,
                     seed=seed)
        rounds = range(start, start + length)
        for bidder, lane in enumerate(simulate._offset_lanes(cfg, start, start + length)):
            words = [lane >> 128 * i & (1 << 128) - 1 for i in range(length)]
            assert (words, lane >> 128 * length) == (
                [mix64(seed, r, bidder) % span for r in rounds], 0)
        assert sample_valuations(cfg, start, start + length) == [
            (value_low + mix64(seed, r, 0) % span, value_low + mix64(seed, r, 1) % span)
            for r in rounds]

    # (n_bidders, span, value_low): one profile, exactly 4,096, and values past 2^64
    TABLED = [(3, 1, 0), (12, 2, 0), (3, 8, 2**70), (2, 64, 5), (4, 8, 0)]

    @pytest.mark.parametrize("n_bidders, span, value_low", TABLED, ids=str)
    @pytest.mark.parametrize("start, stop", [(0, 2 * SAMPLE_BLOCK + 1), (2**64 - 40, 2**64)],
                             ids=["from-0", "to-2-to-the-64"])
    def test_profile_indices_decode_to_the_valuations(self, n_bidders, span, value_low,
                                                      start, stop):
        cfg = config(n_bidders=n_bidders, value_low=value_low,
                     value_high=value_low + span - 1)
        assert span**n_bidders <= PROFILE_TABLE_LIMIT
        indices = sample_indices(cfg, start, stop)
        assert all(0 <= index < span**n_bidders for index in indices)
        decoded = [tuple(value_low + index // span**place % span
                         for place in reversed(range(n_bidders))) for index in indices]
        assert decoded == sample_valuations(cfg, start, stop)

    # 2^32 squared is the last profile space whose index fits a lane's word.
    @pytest.mark.parametrize("n_bidders, span", [(2, 2**32 + 1), (65, 2), (3, 2**64)], ids=str)
    def test_an_index_past_2_to_the_64_is_refused(self, n_bidders, span):
        widest = config(n_bidders=2, value_high=2**32 - 1)
        assert [divmod(index, 2**32) for index in sample_indices(widest, 0, 3)] == (
            sample_valuations(widest, 0, 3))
        with pytest.raises(ValueError, match=rf"^profile space {span}\*\*{n_bidders} "
                                             r"exceeds 2\*\*64$"):
            sample_indices(config(n_bidders=n_bidders, value_high=span - 1), 0, 3)


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

    @pytest.mark.parametrize("value_low", [0, 5, 2**70])
    def test_refuses_a_span_above_2_to_the_64(self, value_low):
        # A draw is a 64-bit word mod span: a wider span has ticks no round draws.
        config(value_low=value_low, value_high=value_low + 2**64 - 1)
        with pytest.raises(ValueError, match=r"^value span value_high - value_low \+ 1 exceeds "
                                             r"2\*\*64 \(value_low \d+, value_high \d+\)$"):
            config(value_low=value_low, value_high=value_low + 2**64 + 6)

    def test_document_round_trip(self):
        cfg = config(strategy=Shade(1, 2), policy=Seeded(5), rule=FIRST)
        doc = {
            "n_bidders": 3, "n_rounds": 100, "value_low": 0, "value_high": 9,
            "rule": "first-price", "strategy": {"kind": "shade", "numerator": 1, "denominator": 2},
            "policy": {"kind": "seeded", "seed": 5}, "seed": 7,
        }
        assert cfg.to_dict() == doc
        clone = ExperimentConfig.from_dict(doc)
        assert clone == cfg and hash(clone) == hash(cfg) and repr(clone) == repr(cfg)

    def test_refuses_a_strategy_or_policy_that_a_report_cannot_write(self):
        class Halve(Strategy):  # no kind, so no document
            def bid(self, value):
                return value // 2

        class Lowest(TieBreakPolicy):  # no kind and no describe, so no label
            def select(self, bids):
                return bids.index(max(bids))

        with pytest.raises(ValueError, match=r"^strategy cannot be written to a report: .*'kind'"):
            config(strategy=Halve())
        with pytest.raises(ValueError, match=r"^policy cannot be written to a report: .*'kind'"):
            config(policy=Lowest())

    def test_from_dict_defaults(self):
        cfg = ExperimentConfig.from_dict(
            {"n_bidders": 2, "n_rounds": 10, "value_low": 0, "value_high": 4}
        )
        assert cfg.rule is SECOND
        assert cfg.strategy == Truthful()
        assert cfg.seed == 0

    @pytest.mark.parametrize("field", ["n_bidders", "n_rounds", "seed"])
    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None], ids=repr)
    def test_refuses_a_count_that_is_not_an_int(self, field, value):
        with pytest.raises(ValueError, match=f"^config field '{field}' must be an integer"):
            config(**{field: value})

    @pytest.mark.parametrize("rule", ["second-price", "first-price", None, 0])
    def test_refuses_a_rule_that_is_not_a_member(self, rule):
        with pytest.raises(ValueError, match="payment rule must be a PaymentRule member"):
            config(rule=rule)

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
        total = sum(sorted(values)[-2] for values, _, _, _ in naive_rounds(cfg))
        assert report.mean_revenue == Fraction(total, cfg.n_rounds)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_truthful_second_price_is_efficient_on_any_seed(self, seed):
        report = run_experiment(config(n_rounds=20, seed=seed))
        assert report.efficiency_rate == 1

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            run_experiment(config(n_rounds=1000), budget=100)

    @pytest.mark.parametrize("run", [
        run_experiment,
        lambda cfg: write_rounds_csv(cfg, io.StringIO()),
        lambda cfg: compare_rules(cfg, cfg),
    ], ids=["run_experiment", "write_rounds_csv", "compare_rules"])
    def test_a_run_asks_the_budget_once(self, monkeypatch, run):
        asked = []
        real = simulate.check_budget

        def counted(*args):
            asked.append(args)
            return real(*args)

        monkeypatch.setattr(simulate, "check_budget", counted)
        run(config())
        assert asked == [(300, 10**7, "sampled values")]

    @pytest.mark.parametrize("value_high", [9, 10**6], ids=["tabled", "untabled"])
    @pytest.mark.parametrize("run", [
        run_experiment,
        lambda cfg: write_rounds_csv(cfg, io.StringIO()),
        lambda cfg: compare_rules(cfg, cfg),
    ], ids=["run_experiment", "write_rounds_csv", "compare_rules"])
    def test_a_run_asks_the_profile_table_rule_once(self, monkeypatch, run, value_high):
        asked = []
        real = simulate._tabled
        monkeypatch.setattr(simulate, "_tabled", lambda cfg: asked.append(cfg) or real(cfg))
        cfg = config(value_high=value_high)
        run(cfg)
        assert asked == [cfg]

    def test_records_are_built_only_for_a_sink(self, monkeypatch):
        # A sink is called once per sampled block with each config's play
        # columns, (bids, winners, prices), not a record built per round.  With
        # the profile table on, the columns cover only the block's profiles that
        # no earlier block drew: one bids tuple, and one row text, per distinct profile.
        sinks, blocks, texts = [], [], []
        real, real_text = simulate._simulate, simulate._row_text

        def spying(configs, budget, sink=None):
            sinks.append(sink)
            if sink is None:
                return real(configs, budget)
            return real(configs, budget, lambda *args: blocks.append(args) or sink(*args))

        monkeypatch.setattr(simulate, "_simulate", spying)
        monkeypatch.setattr(simulate, "_row_text",
                            lambda *row: texts.append(row) or real_text(*row))
        report = run_experiment(config())
        assert sinks == [None]
        assert (report.mean_revenue, report.mean_winner_utility,
                report.efficiency_rate) == (Fraction(203, 50), Fraction(14, 5), 1)
        assert write_rounds_csv(config(), io.StringIO()) == report
        for cfg in (config(), config(n_rounds=2 * SAMPLE_BLOCK + 1)):
            blocks.clear()
            texts.clear()
            write_rounds_csv(cfg, io.StringIO())
            ranges = [(start, start + len(keys)) for start, keys, _, _, _ in blocks]
            assert tiles(ranges, cfg.n_rounds, SAMPLE_BLOCK)
            assert len(ranges) == -(-cfg.n_rounds // SAMPLE_BLOCK)
            assert all(len(play) == 3 and all(len(column) == len(new)
                                              for column in (profiles, *play))
                       for _, _, new, profiles, [play] in blocks)
            played = [key for _, _, new, _, _ in blocks for key in new]
            distinct = {key for _, keys, _, _, _ in blocks for key in keys}
            assert len(played) == len(set(played)) == len(distinct) == len(texts)
            bids = {id(profile): profile for _, _, _, _, [(column, _, _)] in blocks
                    for profile in column}
            assert len(bids) == len(distinct)

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
        total_gap = sum(max(values) - sorted(values)[-2]
                        for values, _, _, _ in naive_rounds(cfg_first))
        assert paired.mean_revenue_diff == Fraction(total_gap, 500)

    def test_samples_each_round_once(self, evaluations):
        compare_rules(config(n_rounds=600), config(n_rounds=600, rule=FIRST))
        assert tiles(evaluations.sampled, 600, SAMPLE_BLOCK)

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


def csv_text(rounds):
    """``write_rounds_csv``'s text for ``naive_rounds``."""
    return "round,valuations,bids,winner,price\n" + "".join(
        f"{index},{' '.join(map(str, values))},{' '.join(map(str, bids))},{winner},{price}\n"
        for index, (values, bids, winner, price) in enumerate(rounds))


def explicit_without(n_bidders, missing):
    """An ``ExplicitChoice`` picking the first of every argmax set but ``missing``."""
    return ExplicitChoice({ties: ties[0] for size in range(1, n_bidders + 1)
                           for ties in combinations(range(n_bidders), size) if ties != missing})


def first_uncovered(cfg):
    """The first round of a truthful ``cfg`` whose argmax set its explicit
    policy lacks, and the message ``outcome`` raises there, from ``mix64``."""
    span = cfg.value_high - cfg.value_low + 1
    for index in range(cfg.n_rounds):
        bids = [cfg.value_low + mix64(cfg.seed, index, b) % span for b in range(cfg.n_bidders)]
        ties = [b for b, bid in enumerate(bids) if bid == max(bids)]
        if tuple(ties) not in cfg.policy.choice:
            return index, f"explicit tie-break has no choice for argmax set {ties}"
    return None


class TestFaults:
    """A round that faults stops the run at its block, with the message that
    round's ``outcome`` gives, and leaves the CSV rows of the earlier blocks.
    N = 4 over 3 blocks; values 0..7 keep a table (4,096 profiles) and 0..8
    (6,561) do not.  The seeds put each first fault past the first block."""

    FAULTING = {"tabled": dict(value_high=7, seed=9), "untabled": dict(value_high=8, seed=79)}

    def faulting(self, sampling, missing=(0, 1, 2, 3), **overrides):
        return config(**{"n_bidders": 4, "n_rounds": 3 * SAMPLE_BLOCK, **self.FAULTING[sampling],
                         "policy": explicit_without(4, missing), **overrides})

    @pytest.mark.parametrize("sampling", FAULTING)
    def test_a_run_raises_the_first_faulting_rounds_message(self, sampling):
        cfg = self.faulting(sampling)
        index, message = first_uncovered(cfg)
        assert index >= SAMPLE_BLOCK
        with pytest.raises(ValueError) as raised:
            run_experiment(cfg)
        assert str(raised.value) == message

    @pytest.mark.parametrize("sampling", FAULTING)
    def test_the_csv_keeps_the_rows_before_the_faulting_block(self, sampling):
        cfg = self.faulting(sampling)
        index, message = first_uncovered(cfg)
        written = index // SAMPLE_BLOCK * SAMPLE_BLOCK
        buf = io.StringIO()
        with pytest.raises(ValueError) as raised:
            write_rounds_csv(cfg, buf)
        assert str(raised.value) == message
        prefix = self.faulting(sampling, n_rounds=written)
        assert written and buf.getvalue() == csv_text(naive_rounds(prefix))

    @pytest.mark.parametrize("sampling", FAULTING)
    def test_the_first_config_faults_first_within_a_block(self, sampling):
        # b lacks a three-way tie, which comes earlier in the same block than
        # a's four-way one: a's block is played first.
        cfg_a = self.faulting(sampling)
        cfg_b = self.faulting(sampling, missing=(0, 1, 2), rule=FIRST)
        (index_a, message), (index_b, _) = first_uncovered(cfg_a), first_uncovered(cfg_b)
        assert index_b < index_a and index_b // SAMPLE_BLOCK == index_a // SAMPLE_BLOCK
        with pytest.raises(ValueError) as raised:
            compare_rules(cfg_a, cfg_b)
        assert str(raised.value) == message


def distinct_profiles(cfg):
    """The distinct valuation profiles of ``cfg``'s rounds, drawn from ``mix64``."""
    span = cfg.value_high - cfg.value_low + 1
    return {tuple(cfg.value_low + mix64(cfg.seed, r, b) % span for b in range(cfg.n_bidders))
            for r in range(cfg.n_rounds)}


def explicit_choices(n_bidders):
    """An ``ExplicitChoice`` covering every argmax set, each pick drawn."""
    sets = [ties for size in range(1, n_bidders + 1)
            for ties in combinations(range(n_bidders), size)]
    return st.tuples(*(st.sampled_from(ties) for ties in sets)).map(
        lambda picks: ExplicitChoice(dict(zip(sets, picks))))


@st.composite
def repeating_configs(draw):
    """Two configs over one profile space, with up to ``2 * SAMPLE_BLOCK + 1``
    rounds (so up to three sampled blocks, the last one partial): a small
    one (N <= 3, span <= 4), whose rounds repeat profiles, or one just over
    ``PROFILE_TABLE_LIMIT`` (N = 2, span 65-80), which keeps no table.
    Each config draws its own rule, strategy and tie-break policy."""
    n_bidders, span = draw(st.one_of(
        st.tuples(st.integers(2, 3), st.integers(1, 4)),
        st.tuples(st.just(2), st.integers(65, 80)),
    ))
    low = draw(st.integers(0, 6))
    sampling = dict(
        n_bidders=n_bidders, n_rounds=draw(st.integers(1, 2 * SAMPLE_BLOCK + 1)), value_low=low,
        value_high=low + span - 1, seed=draw(st.integers(0, MASK64)),
    )
    strategies = st.one_of(
        st.just(Truthful()),
        st.integers(2, 5).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Shade(n, d))),
        st.integers(0, 3).map(Overbid),
    )
    policies = st.one_of(
        st.just(FirstIndex()), st.just(LastIndex()),
        st.integers(0, MASK64).map(Seeded), explicit_choices(n_bidders),
    )
    return [ExperimentConfig(**sampling, rule=draw(st.sampled_from(PaymentRule)),
                             strategy=draw(strategies), policy=draw(policies))
            for _ in range(2)]


def test_a_config_holds_only_its_fields():
    """A config caches no per-run state (sampling takes the chain head per
    block), so two configs equal in every field compare, hash, print and
    serialize alike."""
    a, b = config(), config()
    assert vars(b).keys() == set(ExperimentConfig._fields)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and a.to_dict() == b.to_dict()


class TestProfileTable:
    """A config with at most ``PROFILE_TABLE_LIMIT`` valuation profiles plays
    each distinct one, and renders its CSV text, once; tabled or not, every
    report and row is the per-round one."""

    @given(repeating_configs())
    @example([config(n_rounds=SAMPLE_BLOCK, value_high=3),
              config(n_rounds=SAMPLE_BLOCK, value_high=3, rule=FIRST, policy=Seeded(4))])
    @example([config(n_bidders=2, n_rounds=SAMPLE_BLOCK + 1, value_high=64),
              config(n_bidders=2, n_rounds=SAMPLE_BLOCK + 1, value_high=64,
                     strategy=Shade(1, 2), policy=LastIndex())])
    # Three blocks, the last partial.  Untabled: the first-price minus
    # second-price revenue is least only in the second block and greatest
    # only in the last round, so the difference range is folded across blocks.
    @example([config(n_bidders=2, n_rounds=2 * SAMPLE_BLOCK + 1, value_high=64, seed=22622,
                     rule=FIRST),
              config(n_bidders=2, n_rounds=2 * SAMPLE_BLOCK + 1, value_high=64, seed=22622)])
    @example([config(n_rounds=2 * SAMPLE_BLOCK + 1, value_high=3, rule=FIRST,
                     strategy=Overbid(2), policy=Seeded(4)),
              config(n_rounds=2 * SAMPLE_BLOCK + 1, value_high=3, strategy=Shade(1, 2),
                     policy=LastIndex())])
    # Four profiles over three blocks: each stands for over a hundred rounds,
    # and the revenue difference range is taken over repeated profiles.
    @example([config(n_bidders=2, n_rounds=2 * SAMPLE_BLOCK + 1, value_high=1, rule=FIRST,
                     policy=Seeded(4)),
              config(n_bidders=2, n_rounds=2 * SAMPLE_BLOCK + 1, value_high=1,
                     strategy=Overbid(1), policy=LastIndex())])
    # Untabled, LastIndex over shaded bids that tie in 10 rounds: the later
    # tied bidder wins, and in 4 of them holds the lower value.
    @example([config(n_bidders=2, n_rounds=SAMPLE_BLOCK + 1, value_high=64, seed=4,
                     strategy=Shade(1, 2), policy=LastIndex()),
              config(n_bidders=2, n_rounds=SAMPLE_BLOCK + 1, value_high=64, seed=4)])
    # Untabled over the full 64-bit span: a lane of each run-wide total sums
    # up to three words, so the totals pass 2^64 and are read by both halves.
    @example([config(n_rounds=2 * SAMPLE_BLOCK + 7, value_high=2**64 - 1),
              config(n_rounds=2 * SAMPLE_BLOCK + 7, value_high=2**64 - 1, rule=FIRST,
                     strategy=Overbid(3), policy=LastIndex())])
    # Untabled with a base bid strategy.bid(value_low) of 750,000: every
    # price is an offset from it until the report adds it once per round.
    @example([config(n_rounds=2 * SAMPLE_BLOCK + 7, value_low=10**6, value_high=2 * 10**6,
                     rule=FIRST, strategy=Shade(3, 4), policy=Seeded(4)),
              config(n_rounds=2 * SAMPLE_BLOCK + 7, value_low=10**6, value_high=2 * 10**6,
                     strategy=Overbid(5), policy=LastIndex())])
    def test_matches_a_naive_per_round_recomputation(self, configs):
        cfg_a, cfg_b = configs
        rounds_a, rounds_b = naive_rounds(cfg_a), naive_rounds(cfg_b)
        report = run_experiment(cfg_a)
        assert report.rounds == cfg_a.n_rounds
        assert (report.mean_revenue, report.mean_winner_utility,
                report.efficiency_rate) == naive_means(rounds_a)

        paired = compare_rules(cfg_a, cfg_b)
        assert paired.report_a == report and paired.report_b == run_experiment(cfg_b)
        diffs = [a[3] - b[3] for a, b in zip(rounds_a, rounds_b)]
        assert (paired.revenue_diff_min, paired.revenue_diff_max) == (min(diffs), max(diffs))

        buf = io.StringIO()
        assert write_rounds_csv(cfg_a, buf) == report
        assert buf.getvalue() == csv_text(rounds_a)

    def test_the_limit_is_4096_profiles(self):
        assert PROFILE_TABLE_LIMIT == 4096

    # (n_bidders, span) with span ** n_bidders exactly at the limit, and just over it
    AT_LIMIT = [(2, 64), (3, 16), (12, 2)]
    OVER_LIMIT = [(2, 65), (3, 17), (13, 2)]

    @pytest.mark.parametrize("n_bidders, span", AT_LIMIT, ids=str)
    def test_a_config_at_the_limit_plays_each_distinct_profile_once(
            self, evaluations, n_bidders, span):
        assert span ** n_bidders == PROFILE_TABLE_LIMIT
        cfg = config(n_bidders=n_bidders, n_rounds=300, value_high=span - 1)
        distinct = len(distinct_profiles(cfg))
        assert distinct < cfg.n_rounds  # the rounds repeat a profile
        write_rounds_csv(cfg, io.StringIO())
        assert tiles(evaluations.sampled, cfg.n_rounds, SAMPLE_BLOCK)
        assert len(evaluations.profiles) == distinct

    @pytest.mark.parametrize("n_bidders, span", OVER_LIMIT, ids=str)
    def test_a_config_over_the_limit_keeps_no_table(self, evaluations, n_bidders, span):
        assert span ** n_bidders > PROFILE_TABLE_LIMIT
        cfg = config(n_bidders=n_bidders, n_rounds=300, value_high=span - 1)
        assert len(distinct_profiles(cfg)) < cfg.n_rounds  # a table would play fewer
        write_rounds_csv(cfg, io.StringIO())
        assert tiles(evaluations.sampled, cfg.n_rounds, SAMPLE_BLOCK)
        # Every round is played in lanes, once, and no profile by outcome.
        assert [index for index, _, _ in evaluations.profiles] == list(range(cfg.n_rounds))

    def test_each_config_of_a_comparison_keeps_its_own_table(self, evaluations):
        cfg = config(n_rounds=300)
        distinct = len(distinct_profiles(cfg))
        assert distinct < cfg.n_rounds
        compare_rules(cfg, config(n_rounds=300, rule=FIRST, strategy=Shade(1, 2)))
        assert tiles(evaluations.sampled, cfg.n_rounds, SAMPLE_BLOCK)
        assert len(evaluations.profiles) == 2 * distinct


class Parity(TieBreakPolicy):
    """A policy class the simulation does not know: the tied bidder at the
    bid total modulo the tie count."""

    kind = "parity"

    def select(self, bids):
        ties = [b for b, bid in enumerate(bids) if bid == max(bids)]
        return ties[sum(bids) % len(ties)]


class Backwards(FirstIndex):
    """A subclass of a policy the lanes play, with its own pick: the last tied bidder."""

    kind = "backwards"

    def select(self, bids):
        return LastIndex.select(self, bids)


class Steps(Strategy):
    """A strategy the simulation does not know: nondecreasing, and equal on
    pairs of values, so that bids tie where values do not."""

    kind = "steps"

    def bid(self, value):
        return value // 2 * 3 + 1


def per_round(cfg):
    """Every round of ``cfg`` as ``(valuations, bids, winner, price)``: values
    from ``mix64``, bids by the strategy's ``bid``, the auction by one
    ``outcome`` call per round.  A faulting round ends the list, and its
    index and message follow it; else the fault is None."""
    span = cfg.value_high - cfg.value_low + 1
    rounds = []
    for index in range(cfg.n_rounds):
        values = tuple(cfg.value_low + mix64(cfg.seed, index, b) % span
                       for b in range(cfg.n_bidders))
        bids = tuple(map(cfg.strategy.bid, values))
        try:
            rounds.append((values, bids, *outcome(bids, cfg.policy, cfg.rule)))
        except ValueError as error:
            return rounds, (index, str(error))
    return rounds, None


@st.composite
def tied_configs(draw):
    """Two configs over one valuation stream whose rounds tie often: 3 or 4
    values, from a ``value_low`` that may pass 2^64, over 2 or 3 bidders
    (tabled) or 8 to 10 (untabled).  Each draws its rule, a built-in or
    custom strategy, and a policy of each kind, a custom class, or an
    explicit table lacking one tied argmax set (a singleton's pick is
    never asked)."""
    n_bidders = draw(st.one_of(st.integers(2, 3), st.integers(8, 10)))
    low = draw(st.sampled_from([0, 5, 2**64 - 2, 2**64 + 3, 2**70]))
    sampling = dict(
        n_bidders=n_bidders, n_rounds=draw(st.integers(1, 2 * SAMPLE_BLOCK + 1)), value_low=low,
        value_high=low + draw(st.integers(2, 3)), seed=draw(st.integers(0, MASK64)),
    )
    strategies = st.one_of(
        st.just(Truthful()), st.just(Steps()),
        st.integers(2, 5).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: Shade(n, d))),
        st.sampled_from([0, 3, 2**70]).map(Overbid),
    )
    missing = st.sampled_from([ties for size in (2, 3)
                               for ties in combinations(range(n_bidders), size)])
    policies = st.one_of(
        st.just(FirstIndex()), st.just(LastIndex()), st.integers(0, MASK64).map(Seeded),
        st.just(ExplicitChoice.covering(n_bidders)), st.just(Parity()), st.just(Backwards()),
        missing.map(lambda ties: explicit_without(n_bidders, ties)),
    )
    return [ExperimentConfig(**sampling, rule=draw(st.sampled_from(PaymentRule)),
                             strategy=draw(strategies), policy=draw(policies))
            for _ in range(2)]


class TestLanePlay:
    """A block, or a tabled run's new profiles, is played in lanes; every
    report, difference range, CSV byte and fault is the per-round one."""

    @settings(max_examples=60, deadline=None)
    @given(tied_configs())
    @example([config(n_bidders=8, n_rounds=SAMPLE_BLOCK + 7, value_high=2, seed=s,
                     rule=rule, policy=policy)
              for s, rule, policy in ((3, FIRST, Seeded(9)), (3, SECOND, LastIndex()))])
    def test_matches_per_round_outcomes_and_the_naive_fold(self, configs):
        cfg_a, cfg_b = configs
        assert simulate._tabled(cfg_a) == (cfg_a.n_bidders <= 3)
        (rounds_a, fault_a), (rounds_b, fault_b) = per_round(cfg_a), per_round(cfg_b)
        buf = io.StringIO()
        if fault_a is None:
            report = run_experiment(cfg_a)
            assert (report.mean_revenue, report.mean_winner_utility,
                    report.efficiency_rate) == naive_means(rounds_a)
            assert write_rounds_csv(cfg_a, buf) == report
            assert buf.getvalue() == csv_text(rounds_a)
        else:
            index, message = fault_a
            for run in (run_experiment, lambda cfg: write_rounds_csv(cfg, buf)):
                with pytest.raises(ValueError) as raised:
                    run(cfg_a)
                assert str(raised.value) == message
            written = rounds_a[:index // SAMPLE_BLOCK * SAMPLE_BLOCK]
            assert buf.getvalue() == (csv_text(written) if written else "")

        # The run stops at the first faulting block, and within it at the first config's fault.
        faults = [(fault[0] // SAMPLE_BLOCK, order, fault[1])
                  for order, fault in enumerate((fault_a, fault_b)) if fault is not None]
        if faults:
            with pytest.raises(ValueError) as raised:
                compare_rules(cfg_a, cfg_b)
            assert str(raised.value) == min(faults)[2]
            return
        paired = compare_rules(cfg_a, cfg_b)
        assert paired.report_a == run_experiment(cfg_a)
        assert paired.report_b == run_experiment(cfg_b)
        diffs = [a[3] - b[3] for a, b in zip(rounds_a, rounds_b)]
        assert (paired.revenue_diff_min, paired.revenue_diff_max) == (min(diffs), max(diffs))

    @pytest.mark.parametrize("value_high", [9, 99], ids=["tabled", "untabled"])
    def test_refuses_a_strategy_that_bids_below_its_bid_at_value_low(self, value_high):
        class Falling(Strategy):
            kind = "falling"

            def bid(self, value):
                return 200 - value

        # A decreasing strategy breaks the contract that Strategy states.
        cfg = config(n_bidders=2, value_high=value_high, strategy=Falling())
        assert simulate._tabled(cfg) == (value_high == 9)
        with pytest.raises(ValueError, match=r"^strategy 'falling' bids outside 200\.\."):
            run_experiment(cfg)


# Configs whose sampled means are checked against their exact targets: the
# bench simulate config first (exact mean revenue 600,000.1, efficiency 1),
# then four more untabled ones (a value_low past 2^64, a shade under a seeded
# tie-break, a tied explicit one, the widest span) and the bench simulate-csv
# config, the one tabled (exact mean revenue 951/256 = 3.71484375).
TARGETED = {
    "bench-simulate": config(n_bidders=4, n_rounds=100_000, value_high=10**6),
    "overbid-high": config(n_rounds=20_000, value_low=10**20, value_high=10**20 + 9_999,
                           rule=FIRST, strategy=Overbid(7), policy=LastIndex()),
    "shade-seeded": config(n_bidders=5, n_rounds=20_000, value_high=999,
                           strategy=Shade(3, 4), policy=Seeded(1)),
    "shade-tied": config(n_bidders=8, n_rounds=20_000, value_high=2, rule=FIRST,
                         strategy=Shade(1, 2), policy=ExplicitChoice.covering(8)),
    "widest": config(n_bidders=2, n_rounds=20_000, value_high=MASK64),
    "csv-tabled": config(n_rounds=50_000, value_high=7, rule=FIRST, strategy=Shade(3, 4),
                         policy=Seeded(0)),
}
# Fixed before any run was looked at: under a correct sampler each check
# fails by chance with probability about 6e-5.
Z_BOUND = 4


class TestExactTargets:
    """Each sampled mean lies within ``Z_BOUND`` standard errors of the
    exact mean that order statistics give for its config."""

    def test_the_bench_config_targets_600000_1_and_full_efficiency(self):
        mean, _, efficiency = order_statistic_targets(TARGETED["bench-simulate"])
        assert (round(mean, 1), efficiency) == (Fraction(6_000_001, 10), 1)

    @pytest.mark.parametrize("seed", [0, 1009, 7])
    @pytest.mark.parametrize("name", TARGETED)
    def test_sampled_means_estimate_their_targets(self, name, seed):
        cfg = ExperimentConfig(**{**{field: getattr(TARGETED[name], field)
                                     for field in ExperimentConfig._fields}, "seed": seed})
        assert simulate._tabled(cfg) == (name == "csv-tabled")
        mean, variance, efficiency = order_statistic_targets(cfg)
        report = run_experiment(cfg)
        z = (report.mean_revenue - mean) / (variance / cfg.n_rounds) ** 0.5
        assert abs(z) < Z_BOUND, f"{name} seed {seed}: revenue z = {z:.2f}"
        if efficiency == 1:  # a strictly increasing strategy: every round is efficient
            assert report.efficiency_rate == 1
        else:
            spread = (efficiency * (1 - efficiency) / cfg.n_rounds) ** 0.5
            z = (report.efficiency_rate - efficiency) / spread
            assert abs(z) < Z_BOUND, f"{name} seed {seed}: efficiency z = {z:.2f}"
