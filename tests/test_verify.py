"""Truthfulness verification: cases, coverage, sweeps, counterexamples."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bruteforce_minimal_counterexample, sweep_rows
from sealedbid import verify
from sealedbid.core import (
    AuctionInstance,
    BudgetExceededError,
    FirstIndex,
    InvalidInstanceError,
    LastIndex,
    PaymentRule,
    standard_policies,
)
from sealedbid.verify import (
    CaseCoverage,
    CaseTag,
    Counterexample,
    DeviationCheckResult,
    assert_case,
    check_dominance,
    check_instance,
    check_truthfulness,
    classify_case,
    coverage_guard,
    critical_deviations,
    deviation_profile,
    dominance_sweep,
    efficiency_check,
    find_counterexample,
)

SECOND = PaymentRule.SECOND_PRICE
FIRST = PaymentRule.FIRST_PRICE


class TestDeviationProfile:
    def test_replaces_one_coordinate(self):
        assert deviation_profile((3, 5, 4), 1, 2) == (3, 2, 4)

    def test_identity_when_bid_unchanged(self):
        assert deviation_profile((3, 5, 4), 1, 5) == (3, 5, 4)

    def test_two_bidders(self):
        assert deviation_profile((7, 7), 0, 9) == (9, 7)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            deviation_profile((7, 7), 2, 9)


class TestClassifyCase:
    def test_win_lose(self):
        assert classify_case((3, 5, 4), (3, 2, 4), 1, FirstIndex()) is CaseTag.WIN_LOSE

    def test_win_win_identity(self):
        assert classify_case((3, 5, 4), (3, 5, 4), 1, FirstIndex()) is CaseTag.WIN_WIN

    def test_lose_win(self):
        assert classify_case((3, 2, 4), (3, 9, 4), 1, FirstIndex()) is CaseTag.LOSE_WIN

    def test_lose_lose(self):
        assert classify_case((3, 2, 4), (3, 1, 4), 1, FirstIndex()) is CaseTag.LOSE_LOSE

    def test_rejects_profiles_differing_elsewhere(self):
        with pytest.raises(ValueError):
            classify_case((3, 5, 4), (2, 5, 4), 1, FirstIndex())

    def test_mixed_policy_pairing(self):
        # tie under both profiles: first-index wins it, last-index loses it
        tag = classify_case((7, 7), (7, 7), 0, FirstIndex(), LastIndex())
        assert tag is CaseTag.WIN_LOSE


def result_row(case, u_truth, u_dev):
    return DeviationCheckResult(
        bidder=0, truthful_bid=0, deviation_bid=0,
        truthful_utility=u_truth, deviation_utility=u_dev,
        case=case, passed=u_truth >= u_dev, pairing="first-index",
    )


class TestAssertCase:
    def test_win_win_equal_utilities_pass(self):
        assert assert_case(CaseTag.WIN_WIN, result_row(CaseTag.WIN_WIN, 2, 2)) is None

    def test_win_win_unequal_utilities_fail(self):
        reason = assert_case(CaseTag.WIN_WIN, result_row(CaseTag.WIN_WIN, 2, 1))
        assert reason is not None and "equal" in reason

    def test_lose_win_nonpositive_deviation_pass(self):
        assert assert_case(CaseTag.LOSE_WIN, result_row(CaseTag.LOSE_WIN, 0, -2)) is None

    def test_lose_win_positive_deviation_fail(self):
        reason = assert_case(CaseTag.LOSE_WIN, result_row(CaseTag.LOSE_WIN, 0, 2))
        assert reason is not None and "nonpositive" in reason

    def test_win_lose_pass(self):
        assert assert_case(CaseTag.WIN_LOSE, result_row(CaseTag.WIN_LOSE, 2, 0)) is None

    def test_win_lose_nonzero_deviation_fail(self):
        assert assert_case(CaseTag.WIN_LOSE, result_row(CaseTag.WIN_LOSE, 2, 1)) is not None


class TestCriticalDeviations:
    def test_positive_top(self):
        assert critical_deviations((9, 5, 4), 0) == (0, 5, 6)

    def test_zero_top(self):
        assert critical_deviations((9, 0), 0) == (0, 1)

    def test_no_duplicate_when_top_is_zero(self):
        members = critical_deviations((3, 0, 0), 0)
        assert members == (0, 1)
        assert len(set(members)) == len(members)

    def test_equivalent_to_grid_ticks_up_to_nine(self):
        # verdict parity on every two-bidder instance, both payment rules
        for rule in (SECOND, FIRST):
            policies = standard_policies(2)
            for other in range(10):
                for v_i in range(10):
                    critical = check_truthfulness(
                        (v_i, other), (other,), 0, policies, rule, "critical"
                    )
                    grid = check_truthfulness(
                        (v_i, other), (other,), 0, policies, rule, range(10)
                    )
                    assert all(r.passed for r in critical) == all(r.passed for r in grid)


class TestCheckTruthfulness:
    def test_winning_truthful_beats_losing_deviation(self):
        results = check_truthfulness((5, 3, 1), (3, 1), 0, [FirstIndex()], SECOND, [0])
        row = results[0]
        assert (row.truthful_utility, row.deviation_utility) == (2, 0)
        assert row.case is CaseTag.WIN_LOSE
        assert row.passed

    def test_overbid_wins_at_a_loss(self):
        results = check_truthfulness((2, 4, 1), (4, 1), 0, [FirstIndex()], SECOND, [6])
        row = results[0]
        assert (row.truthful_utility, row.deviation_utility) == (0, -2)
        assert row.case is CaseTag.LOSE_WIN
        assert row.passed

    def test_one_row_per_deviation_policy_pair(self):
        policies = standard_policies(2)
        results = check_truthfulness((3, 1), (1,), 0, policies, SECOND, [0, 1, 2])
        # four policies plus one adversarial pairing per deviation
        assert len(results) == 3 * (len(policies) + 1)

    def test_adversarial_row_label(self):
        results = check_truthfulness((7, 7), (7,), 0, standard_policies(2), SECOND, [7])
        labels = [r.pairing for r in results]
        assert labels[-1].startswith("adversarial(")

    def test_rejects_invalid_instance(self):
        with pytest.raises(InvalidInstanceError):
            check_truthfulness((3, -1), (-1,), 0, [FirstIndex()], SECOND, [0])

    @given(
        st.integers(min_value=0, max_value=9),
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3).map(tuple),
    )
    def test_second_price_always_passes(self, v_i, others):
        results = check_truthfulness(
            (v_i,) + others, others, 0,
            standard_policies(len(others) + 1),
            SECOND, range(10),
        )
        assert all(r.passed for r in results)


class TestCoverage:
    def test_all_cases_witnessed(self):
        results = check_dominance(2, 0, 2, 4, standard_policies(2))
        # check_dominance itself reports coverage; rebuild it with the guard
        assert not results.coverage.vacuous
        assert all(count > 0 for count in results.coverage.counts.values())

    def test_empty_results_are_vacuous(self):
        assert coverage_guard([]).vacuous

    def test_winning_only_deviations_are_vacuous(self):
        rows = check_truthfulness(
            (3, 1), (1,), 0, standard_policies(2), SECOND, [2, 3, 4]
        )
        coverage = coverage_guard(rows)
        assert coverage.counts[CaseTag.LOSE_LOSE] == 0
        assert coverage.vacuous

    def test_tick_bound_zero_passes_but_is_vacuous(self):
        report = check_dominance(0, 0, 2, 0, standard_policies(2))
        assert report.passed
        assert report.coverage.vacuous

    def test_vacuous_iff_some_count_zero(self):
        full = CaseCoverage({tag: 1 for tag in CaseTag})
        assert not full.vacuous
        for missing in CaseTag:
            counts = {tag: (0 if tag is missing else 1) for tag in CaseTag}
            assert CaseCoverage(counts).vacuous


class TestDominance:
    def test_second_price_two_bidders_passes(self):
        report = check_dominance(2, 0, 2, 4, standard_policies(2))
        assert report.passed and not report.coverage.vacuous

    def test_first_price_fails_with_counterexample(self):
        report = dominance_sweep(2, 4, rule=FIRST)
        assert not report.passed
        assert report.counterexample is not None
        ce = report.counterexample
        assert ce.deviation_utility > ce.truthful_utility

    def test_budget_guard_trips(self):
        with pytest.raises(BudgetExceededError):
            dominance_sweep(3, 4, budget=100)

    def test_report_document_shape(self):
        doc = dominance_sweep(2, 2).to_doc()
        assert doc["verdict"] == "pass"
        assert doc["vacuous"] is False
        assert set(doc["case_counts"]) == {t.value for t in CaseTag}
        assert doc["evaluated_count"] == sum(doc["case_counts"].values())


class TestFindCounterexample:
    def test_second_price_has_none(self):
        assert find_counterexample(SECOND, 3, 4) is None

    def test_first_price_minimal_matches_oracle(self):
        oracle = bruteforce_minimal_counterexample(FIRST, 2, 4)
        assert find_counterexample(FIRST, 2, 4) == oracle

    def test_first_price_minimal_frozen(self):
        # value computed by the brute-force oracle, pinned as a regression
        assert find_counterexample(FIRST, 2, 4) == Counterexample(
            valuations=(1, 0),
            bids=(1, 0),
            bidder=0,
            deviation_bid=0,
            policy="first-index",
            truthful_utility=0,
            deviation_utility=1,
        )

    def test_returned_counterexample_self_consistent(self):
        ce = find_counterexample(FIRST, 2, 4)
        assert ce.deviation_utility > ce.truthful_utility

    def test_deterministic_across_calls(self):
        first = find_counterexample(FIRST, 3, 3)
        second = find_counterexample(FIRST, 3, 3)
        assert first == second

    def test_budget_guard_trips(self):
        with pytest.raises(BudgetExceededError):
            find_counterexample(FIRST, 3, 4, budget=50)


class TestEfficiency:
    def test_unique_maximum(self):
        assert efficiency_check((3, 6, 4), FirstIndex())

    def test_tie_any_policy(self):
        for policy in standard_policies(2):
            assert efficiency_check((5, 5), policy)

    def test_exhaustive_small_grid(self):
        policies = standard_policies(3)
        for values in product(range(5), repeat=3):
            for policy in policies:
                assert efficiency_check(values, policy)


class TestSweepAggregationOrderIndependence:
    def test_rows_agree_with_dominance_sweep_counts(self):
        rows = sweep_rows((2,), 3)
        report = dominance_sweep(2, 3)
        assert len(rows) == report.evaluated
        tally = coverage_guard(rows)
        assert tally.counts == report.coverage.counts


def grid_rows(n_bidders, ticks, values, bidders, deviations, pairings=5):
    """Closed-form row count: opposing vectors x valuations x bidders x
    deviations x pairings."""
    return (ticks + 1) ** (n_bidders - 1) * values * bidders * deviations * pairings


INSTANCE = AuctionInstance((5, 3, 7, 2), (4, 3, 6, 2))

# (label, run(budget) -> report or None, exact rows the run evaluates)
BUDGETED_RUNS = [
    ("sweep-grid", lambda b: dominance_sweep(3, 2, budget=b), grid_rows(3, 2, 3, 3, 3)),
    (
        "sweep-critical",
        lambda b: dominance_sweep(3, 2, deviations="critical", budget=b),
        3 * 3 * (3 * 3 ** 2 - 1) * 5,
    ),
    (
        "sweep-explicit",
        lambda b: dominance_sweep(2, 3, deviations=[3, 0], budget=b),
        grid_rows(2, 3, 4, 2, 2),
    ),
    (
        "check-dominance",
        lambda b: check_dominance(1, 2, 3, 2, standard_policies(3), budget=b),
        grid_rows(3, 2, 1, 1, 3),
    ),
    (
        "check-dominance-critical",
        lambda b: check_dominance(
            0, 0, 2, 3, standard_policies(2), deviations="critical", budget=b),
        (3 * 4 - 1) * 5,
    ),
    (
        "check-critical",
        lambda b: check_instance(INSTANCE, standard_policies(4), budget=b),
        4 * 3 * 5,
    ),
    (
        "check-critical-zero-bids",
        lambda b: check_instance(
            AuctionInstance((1, 2, 0), (0, 0, 0)), standard_policies(3), budget=b),
        3 * 2 * 5,
    ),
    (
        "check-critical-one-positive-bid",
        lambda b: check_instance(
            AuctionInstance((1, 2, 0), (0, 4, 0)), standard_policies(3), budget=b),
        (3 * 3 - 1) * 5,
    ),
    (
        "check-grid",
        lambda b: check_instance(
            INSTANCE, standard_policies(4), FIRST, range(9), budget=b),
        4 * 9 * 5,
    ),
    (
        "falsify-exhausting",
        lambda b: find_counterexample(SECOND, 3, 2, budget=b),
        grid_rows(2, 2, 3, 2, 3) + grid_rows(3, 2, 3, 3, 3),
    ),
]


class TestPreflightBudget:
    """A budget equal to the exact row count runs to completion; one less
    is refused before the first outcome is computed."""

    @pytest.fixture
    def counters(self, monkeypatch):
        counts = {"outcome": 0, "rows": 0}
        real_outcome, real_row = verify.outcome, verify.DeviationCheckResult

        def outcome(*args):
            counts["outcome"] += 1
            return real_outcome(*args)

        def row(**fields):
            counts["rows"] += 1
            return real_row(**fields)

        monkeypatch.setattr(verify, "outcome", outcome)
        monkeypatch.setattr(verify, "DeviationCheckResult", row)
        return counts

    @pytest.mark.parametrize(
        "run, rows", [case[1:] for case in BUDGETED_RUNS],
        ids=[case[0] for case in BUDGETED_RUNS],
    )
    def test_exact_budget_completes(self, counters, run, rows):
        report = run(rows)
        assert counters["rows"] == rows
        if report is not None:
            assert report.evaluated == rows

    @pytest.mark.parametrize(
        "run, rows", [case[1:] for case in BUDGETED_RUNS],
        ids=[case[0] for case in BUDGETED_RUNS],
    )
    def test_one_row_short_is_refused_before_any_work(self, counters, run, rows):
        with pytest.raises(BudgetExceededError):
            run(rows - 1)
        assert counters == {"outcome": 0, "rows": 0}

    def test_falsify_budget_caps_the_whole_search(self):
        # the first failure sits early in the stream, but the space is larger
        rows = grid_rows(2, 4, 5, 2, 5) + grid_rows(3, 4, 5, 3, 5)
        assert find_counterexample(FIRST, 3, 4, budget=rows) is not None
        with pytest.raises(BudgetExceededError):
            find_counterexample(FIRST, 3, 4, budget=rows - 1)

    def test_vast_grid_is_refused_without_building_it(self):
        with pytest.raises(BudgetExceededError):
            dominance_sweep(10**6, 4, [FirstIndex()], budget=10)
        with pytest.raises(BudgetExceededError):
            find_counterexample(FIRST, 10**9, 1, [FirstIndex()], budget=10)

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_invalid(self, budget):
        with pytest.raises(ValueError):
            dominance_sweep(2, 1, budget=budget)

    def test_negative_tick_bound_is_invalid(self):
        with pytest.raises(ValueError):
            dominance_sweep(2, -1)
        with pytest.raises(ValueError):
            find_counterexample(FIRST, 2, -1)


class TestMinimalOrder:
    def test_unsorted_explicit_deviations_report_the_minimum(self):
        forward = dominance_sweep(2, 4, rule=FIRST, deviations=[0, 2, 4])
        backward = dominance_sweep(2, 4, rule=FIRST, deviations=[4, 2, 0])
        assert forward == backward

    def test_check_counterexample_is_minimal_by_deviation_then_bidder(self):
        report = check_instance(INSTANCE, standard_policies(4), FIRST)
        failures = [
            (row.deviation_bid, row.bidder, row)
            for bidder in range(4)
            for row in check_truthfulness(
                INSTANCE.valuations,
                INSTANCE.bids[:bidder] + INSTANCE.bids[bidder + 1:],
                bidder, standard_policies(4), FIRST,
            )
            if not row.passed
        ]
        dev, bidder, row = min(failures, key=lambda f: (f[0], f[1]))
        ce = report.counterexample
        assert (ce.deviation_bid, ce.bidder, ce.policy) == (dev, bidder, row.pairing)
