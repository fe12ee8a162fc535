"""Truthfulness verification: cases, coverage, sweeps, counterexamples."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CASES, assert_case, bruteforce_minimal_counterexample, oracle_cell, oracle_report, sweep_rows,
)
from sealedbid import core, verify
from sealedbid.core import (
    AuctionInstance,
    BudgetExceededError,
    FirstIndex,
    InvalidInstanceError,
    PaymentRule,
    outcome,
    standard_policies,
)
from sealedbid.verify import (
    CaseTag,
    Counterexample,
    DeviationCheckResult,
    VerificationReport,
    check_instance,
    check_truthfulness,
    deviation_profile,
    dominance_sweep,
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


def critical_bids(valuations, others, bidder=0):
    """The deviation bids a critical check of ``bidder`` tries."""
    rows = check_truthfulness(valuations, others, bidder, [FirstIndex()],
                              deviations="critical", adversarial=False)
    return tuple(row.deviation_bid for row in rows)


class TestCriticalDeviations:
    def test_positive_top(self):
        assert critical_bids((9, 5, 4), (5, 4)) == (0, 5, 6)

    def test_zero_top(self):
        assert critical_bids((9, 0), (0,)) == (0, 1)

    def test_no_duplicate_when_top_is_zero(self):
        members = critical_bids((3, 0, 0), (0, 0))
        assert members == (0, 1)
        assert len(set(members)) == len(members)

    def test_top_excludes_a_middle_bidder_own_bid(self):
        assert critical_bids((4, 9, 6), (4, 6), bidder=1) == (0, 6, 7)

    def test_tied_opposing_bids_give_their_common_top(self):
        assert critical_bids((3, 7, 7), (7, 7)) == (0, 7, 8)

    def test_single_bidder_is_refused(self):
        with pytest.raises(ValueError, match="N >= 2"):
            critical_bids((5,), ())

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
    def test_opposing_bids_must_match_the_other_bidders(self):
        with pytest.raises(ValueError) as info:
            check_truthfulness((3, 6), (1, 2), 0, [FirstIndex()])
        assert str(info.value) == "expected 1 opposing bids, got 2"

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
        with pytest.raises(InvalidInstanceError, match=r"non-integer tick \(valuations\[0\]"):
            check_truthfulness([1.5, 2], [1], 0, [FirstIndex()])

    def test_each_argument_tick_is_checked_once(self, monkeypatch):
        asked = []
        real = core.tick_violation

        def counted(label, tick):
            asked.append(label)
            return real(label, tick)

        for module in (core, verify):
            monkeypatch.setattr(module, "tick_violation", counted)
        check_truthfulness((3, 6, 2), (4, 2), 0, [FirstIndex()])
        assert asked == ["valuations[0]", "valuations[1]", "valuations[2]", "others[0]",
                         "others[1]"]

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


@st.composite
def truthfulness_checks(draw):
    """One ``check_truthfulness`` call: N = 2..4, ticks 0..6, a policy list
    of 1-4 drawn with repeats from all four kinds, either rule, adversarial
    on or off, and the critical set or an explicit deviation list."""
    n_bidders = draw(st.integers(min_value=2, max_value=4))
    ticks = draw(st.integers(min_value=0, max_value=6))
    tick = st.integers(min_value=0, max_value=ticks)
    valuations = tuple(draw(st.lists(tick, min_size=n_bidders, max_size=n_bidders)))
    others = tuple(draw(st.lists(tick, min_size=n_bidders - 1, max_size=n_bidders - 1)))
    bidder = draw(st.integers(min_value=0, max_value=n_bidders - 1))
    kinds = standard_policies(n_bidders, seed=draw(st.integers(min_value=0, max_value=3)))
    policies = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    deviations = draw(st.one_of(
        st.just("critical"),
        st.lists(st.integers(min_value=0, max_value=ticks + 2), max_size=4),
    ))
    return (valuations, others, bidder, policies, draw(st.sampled_from([SECOND, FIRST])),
            deviations, draw(st.booleans()))


class TestCheckTruthfulnessAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(truthfulness_checks())
    def test_rows_match_the_oracle_field_for_field(self, check):
        valuations, others, bidder, policies, rule, deviations, adversarial = check
        rows = check_truthfulness(
            valuations, others, bidder, policies, rule, deviations, adversarial)
        v_i = valuations[bidder]
        bids = others[:bidder] + (v_i,) + others[bidder:]
        if deviations == "critical":
            top = max(others)
            devs = sorted({top, top + 1} | ({0} if top > 0 else set()))
        else:
            devs = sorted(deviations)
        expected = [
            (bidder, v_i, dev, u_truth, u_dev, CASES[won_truth, won_dev], u_truth >= u_dev, label)
            for dev in devs
            for u_truth, u_dev, won_truth, won_dev, label in oracle_cell(
                bids, dev, bidder, policies, rule, adversarial)
        ]
        assert all(type(row) is DeviationCheckResult for row in rows)
        assert [tuple(row) for row in rows] == expected


class TestCoverage:
    def test_all_cases_witnessed(self):
        report = dominance_sweep(2, 4, standard_policies(2))
        assert not report.vacuous
        assert all(count > 0 for count in report.case_counts.values())

    def test_empty_results_are_vacuous(self):
        assert VerificationReport(0, 0, dict.fromkeys(CaseTag, 0), None).vacuous

    def test_winning_only_deviations_are_vacuous(self):
        rows = check_truthfulness(
            (3, 1), (1,), 0, standard_policies(2), SECOND, [2, 3, 4]
        )
        counts = Counter(row.case for row in rows)
        assert counts[CaseTag.LOSE_LOSE] == 0
        assert VerificationReport(len(rows), 0, dict.fromkeys(CaseTag, 0) | counts, None).vacuous

    def test_tick_bound_zero_passes_but_is_vacuous(self):
        report = dominance_sweep(2, 0, standard_policies(2))
        assert report.passed
        assert report.vacuous

    def test_vacuous_iff_some_count_zero(self):
        full = VerificationReport(4, 0, {tag: 1 for tag in CaseTag}, None)
        assert not full.vacuous
        for missing in CaseTag:
            counts = {tag: (0 if tag is missing else 1) for tag in CaseTag}
            assert VerificationReport(3, 0, counts, None).vacuous


class TestDominance:
    def test_second_price_two_bidders_passes(self):
        report = dominance_sweep(2, 4, standard_policies(2))
        assert report.passed and not report.vacuous

    def test_first_price_fails_with_counterexample(self):
        report = dominance_sweep(2, 4, rule=FIRST)
        assert not report.passed
        assert report.counterexample is not None
        ce = report.counterexample
        assert ce.deviation_utility > ce.truthful_utility

    def test_budget_guard_trips(self):
        with pytest.raises(BudgetExceededError):
            dominance_sweep(3, 4, budget=100)

    @pytest.mark.parametrize("kwargs, fault", [
        ({"deviations": "bogus"}, "unknown deviation mode 'bogus'"),
        ({"policies": []}, "at least one tie-break policy is required"),
    ], ids=["deviation-mode", "no-policy"])
    def test_a_bad_argument_is_refused(self, kwargs, fault):
        with pytest.raises(ValueError) as info:
            dominance_sweep(2, 2, **kwargs)
        assert str(info.value) == fault

    def test_report_document_shape(self):
        doc = dominance_sweep(2, 2).to_dict()
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


@st.composite
def sweeps(draw):
    """A small sweep: (N, T), rule, a policy list with repeats, adversarial
    on or off, and deviations.  N reaches 4, so a block holds three
    opposing bids; an explicit deviation list may hold 10**4000, a tick
    far above T."""
    n_bidders = draw(st.integers(min_value=2, max_value=4))
    ticks = draw(st.integers(min_value=0, max_value=3 if n_bidders < 4 else 2))
    kinds = standard_policies(n_bidders, seed=draw(st.integers(min_value=0, max_value=3)))
    policies = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    deviations = draw(st.one_of(
        st.sampled_from(["grid", "critical"]),
        st.lists(st.integers(min_value=0, max_value=ticks + 3) | st.just(10**4000), max_size=3),
    ))
    return (n_bidders, ticks, policies, draw(st.sampled_from([SECOND, FIRST])), deviations,
            draw(st.booleans()))


class TestClassFoldAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_report_matches_the_row_oracle(self, sweep):
        report = dominance_sweep(*sweep)
        passed, failed, counts, counterexample = oracle_report(*sweep)
        assert (report.pass_count, report.fail_count) == (passed, failed)
        assert report.case_counts == counts
        assert report.counterexample == counterexample


@st.composite
def searches(draw):
    """A small search: rule, N up to 3, T up to 3, a policy list (None for
    each N's standard list, or one with repeats drawn from the N-max
    standard kinds) and adversarial on or off."""
    n_max = draw(st.integers(min_value=2, max_value=3))
    kinds = standard_policies(n_max, seed=draw(st.integers(min_value=0, max_value=3)))
    policies = draw(st.none() | st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    return (draw(st.sampled_from([SECOND, FIRST])), n_max,
            draw(st.integers(min_value=0, max_value=3)), policies, draw(st.booleans()))


class TestSearchAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(searches())
    def test_search_is_the_first_oracle_counterexample(self, search):
        rule, n_max, ticks, policies, adversarial = search
        expected = None
        for n in range(2, n_max + 1):
            policy_list = policies if policies is not None else standard_policies(n)
            expected = oracle_report(n, ticks, policy_list, rule, "grid", adversarial)[3]
            if expected is not None:
                break
        assert find_counterexample(rule, n_max, ticks, policies, adversarial) == expected


class TestEfficiency:
    """With truthful second-price bids the good goes to a highest valuation."""

    def test_unique_maximum(self):
        values = (3, 6, 4)
        assert values[outcome(values, FirstIndex(), SECOND).winner] == max(values)

    def test_tie_any_policy(self):
        for policy in standard_policies(2):
            assert (5, 5)[outcome((5, 5), policy, SECOND).winner] == 5

    def test_exhaustive_small_grid(self):
        policies = standard_policies(3)
        for values in product(range(5), repeat=3):
            for policy in policies:
                assert values[outcome(values, policy, SECOND).winner] == max(values)

    def test_a_policy_picking_a_lower_bidder_is_refused(self):
        class Lowest(FirstIndex):
            def select(self, bids):
                return bids.index(min(bids))

        with pytest.raises(ValueError, match="^tie-break first-index picked 0, not a highest"):
            outcome((3, 6), Lowest(), SECOND)


class TestSweepAggregationOrderIndependence:
    def test_rows_agree_with_dominance_sweep_counts(self):
        rows = sweep_rows((2,), 3)
        report = dominance_sweep(2, 3)
        assert len(rows) == report.evaluated
        assert Counter(row.case for row in rows) == report.case_counts

    @pytest.mark.parametrize("rule", [SECOND, FIRST])
    @pytest.mark.parametrize("n_bidders", [2, 3])
    def test_sweep_verdicts_and_cases_match_the_oracle(self, rule, n_bidders):
        rows = sweep_rows((n_bidders,), 3, rule)
        report = dominance_sweep(n_bidders, 3, rule=rule)
        assert report.pass_count == sum(1 for row in rows if row.passed)
        assert report.fail_count == sum(1 for row in rows if not row.passed)
        assert report.case_counts == Counter(row.case for row in rows)


class TestOutcomeTable:
    """Each (profile, policy) pair is evaluated once per run."""

    @staticmethod
    def pairs(evaluations):
        """Each evaluation as ``(bids, policy identity)``, in call order."""
        return [(tuple(bids), id(policy)) for bids, policy, _ in evaluations.profiles]

    def test_sweep_evaluates_every_profile_once_per_policy(self, evaluations):
        dominance_sweep(3, 3)
        calls = self.pairs(evaluations)
        assert len(calls) == 4 ** 3 * 4
        assert len(set(calls)) == len(calls)

    def test_each_profile_reaches_outcome_as_one_tuple(self, evaluations):
        dominance_sweep(3, 3)  # the fixture keeps each profile alive, so the ids stay distinct
        assert len({id(bids) for bids, _, _ in evaluations.profiles}) == 4 ** 3

    def test_exhausting_search_evaluates_each_n_once(self, evaluations):
        assert find_counterexample(SECOND, 3, 2) is None
        calls = self.pairs(evaluations)
        assert len(calls) == (3 ** 2 + 3 ** 3) * 4
        assert len(set(calls)) == len(calls)

    def test_fold_and_scan_compute_each_class_template_once(self, monkeypatch):
        # The sweep fails, so the ordered scan runs after the fold; it reads
        # the fold's templates.  A class is (value, truthful view, deviated view).
        classes = []
        real = verify._template

        def template(labels, paired, *key):
            classes.append(key)
            return real(labels, paired, *key)

        monkeypatch.setattr(verify, "_template", template)
        assert not dominance_sweep(3, 2, rule=FIRST).passed
        assert len(classes) == len(set(classes)) == 77

    @pytest.fixture
    def built(self, monkeypatch):
        records = []
        real_row = verify.DeviationCheckResult

        def row(*args, **fields):
            records.append((args, fields))
            return real_row(*args, **fields)

        monkeypatch.setattr(verify, "DeviationCheckResult", row)
        return records

    def test_passing_sweep_builds_no_row_record(self, evaluations, built):
        report = dominance_sweep(4, 3)
        assert len(evaluations.profiles) == 4 ** 4 * 4
        assert report.passed and report.evaluated == grid_rows(4, 3, 4, 4, 4)
        assert built == []

    def test_failing_sweep_builds_rows_up_to_its_counterexample_only(self, built):
        report = dominance_sweep(3, 2, rule=FIRST)
        ce = report.counterexample
        # cells in key order: opposing bids, value, deviation bid, bidder
        cells = [
            (others, value, dev, b)
            for others in product(range(3), repeat=2)
            for value in range(3) for dev in range(3) for b in range(3)
        ]
        others = ce.bids[:ce.bidder] + ce.bids[ce.bidder + 1:]
        index = cells.index((others, ce.bids[ce.bidder], ce.deviation_bid, ce.bidder))
        assert 0 < index < len(cells) - 1
        assert len(built) == (index + 1) * 5 < report.evaluated

    def test_sweep_counts_blocks_not_cells(self, monkeypatch):
        def per_cell(scopes):
            raise AssertionError("a passing sweep streams no cells")

        monkeypatch.setattr(verify, "_row_stream", per_cell)
        report = dominance_sweep(4, 3)
        assert report.passed and report.evaluated == grid_rows(4, 3, 4, 4, 4)

    def test_search_computes_one_template_per_class(self, monkeypatch):
        built = []
        real_template = verify._template

        def template(*args):
            built.append(args)
            return real_template(*args)

        monkeypatch.setattr(verify, "_template", template)
        assert find_counterexample(SECOND, 3, 2) is None
        cells = grid_rows(2, 2, 3, 2, 3, pairings=1) + grid_rows(3, 2, 3, 3, 3, pairings=1)
        assert len(built) == search_classes(SECOND, 3, 2) < cells == 297

    @pytest.mark.parametrize("deviations", ["critical", range(9)], ids=["critical", "grid"])
    def test_check_never_repeats_an_evaluation(self, evaluations, deviations):
        for instance in (INSTANCE, AuctionInstance((4, 4, 1), (4, 4, 0))):
            del evaluations.profiles[:]
            check_instance(instance, standard_policies(instance.n_bidders), FIRST, deviations)
            calls = self.pairs(evaluations)
            assert calls and len(set(calls)) == len(calls)


def grid_rows(n_bidders, ticks, values, bidders, deviations, pairings=5):
    """Closed-form row count: opposing vectors x valuations x bidders x
    deviations x pairings."""
    return (ticks + 1) ** (n_bidders - 1) * values * bidders * deviations * pairings


def search_classes(rule, n_max, tick_bound):
    """Distinct (value, truthful view, deviated view) classes of an
    exhausted search, counted per N from ``outcome`` alone: a bidder's view
    of a profile is, per standard policy, the price it pays if it wins,
    else None."""
    total = 0
    for n_bidders in range(2, n_max + 1):
        policies = standard_policies(n_bidders)

        def view(bids, bidder):
            results = (outcome(bids, policy, rule) for policy in policies)
            return tuple(o.price if o.winner == bidder else None for o in results)

        total += len({
            (bids[b], view(bids, b), view(deviation_profile(bids, b, dev), b))
            for bids in product(range(tick_bound + 1), repeat=n_bidders)
            for b in range(n_bidders)
            for dev in range(tick_bound + 1)
        })
    return total


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
        # the opposing bid M = 0..3 has a critical set of 2, 3, 3 and 3 bids
        "sweep-critical-two-bidders",
        lambda b: dominance_sweep(2, 3, standard_policies(2), deviations="critical", budget=b),
        4 * 2 * (2 + 3 * 3) * 5,
    ),
    (
        # tick bound 0: the one opposing vector is all zeros, so M = 0 everywhere
        "sweep-critical-zero-ticks",
        lambda b: dominance_sweep(2, 0, deviations="critical", budget=b),
        20,
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
        "check-critical-all-bids-positive",
        lambda b: check_instance(
            AuctionInstance((5, 5, 1), (5, 5, 1)), standard_policies(3), budget=b),
        45,
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
    (
        # Under the built-in rules the adversarial pairing never decides a search's
        # verdict: a truthful first-price bidder's utility is 0 under every policy,
        # so its row fails only in a cell where a policy's row already failed, and
        # under second price no row fails.  Only the row count tells the setting,
        # so only this exact count catches a search that ignores adversarial=False.
        "falsify-no-adversarial",
        lambda b: find_counterexample(SECOND, 3, 2, adversarial=False, budget=b),
        grid_rows(2, 2, 3, 2, 3, pairings=4) + grid_rows(3, 2, 3, 3, 3, pairings=4),
    ),
]


# Runs over the critical set whose cells all differ in class.
ONE_CLASS_PER_CELL = {
    "check-critical", "check-critical-zero-bids", "check-critical-one-positive-bid",
    "check-critical-all-bids-positive", "sweep-critical-zero-ticks",
}


class TestPreflightBudget:
    """A budget equal to the exact row count runs to completion; one less
    is refused before the first outcome is computed."""

    @pytest.fixture
    def counters(self, monkeypatch, evaluations):
        """A function giving the profiles evaluated, rows built and templates computed."""
        counts = {"rows": 0, "templates": 0}
        real_row, real_template = verify.DeviationCheckResult, verify._template

        def row(*args, **fields):
            counts["rows"] += 1
            return real_row(*args, **fields)

        def template(*args):
            counts["templates"] += 1
            return real_template(*args)

        monkeypatch.setattr(verify, "DeviationCheckResult", row)
        monkeypatch.setattr(verify, "_template", template)
        return lambda: {"outcome": len(evaluations.profiles), **counts}

    @pytest.mark.parametrize(
        "name, run, rows", BUDGETED_RUNS, ids=[case[0] for case in BUDGETED_RUNS],
    )
    def test_exact_budget_completes(self, counters, name, run, rows):
        report = run(rows)
        if report is None:
            # the search folds row by row: one record per row
            assert counters()["rows"] == rows
        else:
            # the report counts every row, but the fold computes each class's
            # template once, so fewer templates than cells (5 rows each)
            # unless every cell is a class of its own; it builds row records
            # only when the ordered scan looks for the first failure
            assert report.evaluated == rows
            if name in ONE_CLASS_PER_CELL:
                assert counters()["templates"] == rows // 5
            else:
                assert counters()["templates"] < rows // 5
            assert (counters()["rows"] == 0) == report.passed

    @pytest.mark.parametrize(
        "run, rows", [case[1:] for case in BUDGETED_RUNS],
        ids=[case[0] for case in BUDGETED_RUNS],
    )
    def test_one_row_short_is_refused_before_any_work(self, counters, run, rows):
        with pytest.raises(BudgetExceededError):
            run(rows - 1)
        assert counters() == {"outcome": 0, "rows": 0, "templates": 0}

    @pytest.mark.parametrize("stop", [10**8, 10**30])
    def test_stepped_range_is_refused_without_building_it(self, counters, stop):
        with pytest.raises(BudgetExceededError):
            check_instance(AuctionInstance((3, 6), (3, 5)), standard_policies(2),
                           deviations=range(0, stop, 2), budget=10)
        with pytest.raises(BudgetExceededError):
            dominance_sweep(2, 2, deviations=range(stop, -1, -2), budget=10)
        assert counters() == {"outcome": 0, "rows": 0, "templates": 0}

    def test_check_truthfulness_is_budgeted_like_its_siblings(self, counters):
        # one bidder, deviations 0..2, two policies plus the adversarial pairing
        run = lambda budget: check_truthfulness(
            (3, 6), (5,), 0, standard_policies(2)[:2], SECOND, range(3), budget=budget)
        with pytest.raises(BudgetExceededError):
            run(8)
        with pytest.raises(BudgetExceededError):  # a tick range: it ran unbounded before
            check_truthfulness((3, 6), (5,), 0, [FirstIndex()], SECOND, range(0, 10**9))
        assert counters() == {"outcome": 0, "rows": 0, "templates": 0}
        assert len(run(9)) == 9

    @pytest.mark.parametrize("run", [
        lambda budget: check_instance(AuctionInstance((3, 6), (3, 5)), [FirstIndex()],
                                      deviations=[2, 0], budget=budget).evaluated,
        lambda budget: len(check_truthfulness((3, 6), (5,), 0, [FirstIndex()],
                                              deviations=[2, 0], budget=budget)),
    ], ids=["check_instance", "check_truthfulness"])
    def test_a_budget_past_sys_maxsize_reads_a_deviation_list(self, run):
        assert run(10**20) == run(10**7)

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

    @pytest.fixture
    def reads(self):
        """A lazy deviation iterable of 3 * 10^6 bids that counts the bids read."""
        count = [0]

        def bids():
            for bid in range(3 * 10**6):
                count[0] += 1
                yield bid

        return count, bids

    @pytest.mark.parametrize("run", [
        lambda deviations, budget: check_instance(
            AuctionInstance((3, 6), (3, 5)), standard_policies(2), deviations=deviations,
            budget=budget),
        lambda deviations, budget: dominance_sweep(2, 2, deviations=deviations, budget=budget),
        lambda deviations, budget: check_truthfulness(
            (3, 6), (5,), 0, standard_policies(2), SECOND, deviations, budget=budget),
    ], ids=["check_instance", "dominance_sweep", "check_truthfulness"])
    def test_lazy_deviations_are_read_at_most_one_past_the_budget(self, counters, reads, run):
        count, bids = reads
        with pytest.raises(BudgetExceededError):
            run(bids(), 10)
        assert count[0] <= 11
        assert counters() == {"outcome": 0, "rows": 0, "templates": 0}
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            run(bids(), -1)

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_is_invalid(self, budget):
        with pytest.raises(ValueError):
            dominance_sweep(2, 1, budget=budget)

    def test_negative_tick_bound_is_invalid(self):
        with pytest.raises(ValueError):
            dominance_sweep(2, -1)
        with pytest.raises(ValueError):
            find_counterexample(FIRST, 2, -1)

    @pytest.mark.parametrize("run", [
        lambda: dominance_sweep(2, 2, deviations=[-1]),
        lambda: check_instance(AuctionInstance((3, 6), (3, 5)), standard_policies(2),
                               deviations=range(-1, 3)),
        lambda: check_truthfulness((3, 6), (5,), 0, standard_policies(2), SECOND, [-1]),
    ], ids=["dominance_sweep", "check_instance", "check_truthfulness"])
    def test_negative_deviation_is_refused_before_any_work(self, counters, run):
        with pytest.raises(InvalidInstanceError) as info:
            run()
        assert info.value.violations == ["negative tick (deviation = -1)"]
        assert counters() == {"outcome": 0, "rows": 0, "templates": 0}


class TestMinimalOrder:
    def test_unsorted_explicit_deviations_report_the_minimum(self):
        forward = dominance_sweep(2, 4, rule=FIRST, deviations=[0, 2, 4])
        backward = dominance_sweep(2, 4, rule=FIRST, deviations=[4, 2, 0])
        assert forward == backward

    @pytest.mark.parametrize("deviations, listed", [
        (range(8, -1, -1), list(range(9))),
        (range(8, -1, -3), [2, 5, 8]),
        (range(7, 0, -2), [1, 3, 5, 7]),
        (range(1, 9, 3), [1, 4, 7]),
        (range(5, 8, -1), []),
    ])
    def test_a_range_reports_as_its_sorted_list(self, deviations, listed):
        for rule in (FIRST, SECOND):
            assert check_instance(INSTANCE, standard_policies(4), rule, deviations) == (
                check_instance(INSTANCE, standard_policies(4), rule, listed))
            assert dominance_sweep(2, 4, rule=rule, deviations=deviations) == (
                dominance_sweep(2, 4, rule=rule, deviations=listed))

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
