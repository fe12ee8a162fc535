"""Report-level metamorphic relations: each ties two reports of the package
to each other, so it needs no oracle and catches an error that the package
and a naive recomputation would share.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interpolate
from sealedbid import simulate
from sealedbid.core import (
    AuctionInstance, ExplicitChoice, FirstIndex, LastIndex, PaymentRule, Seeded,
)
from sealedbid.simulate import (
    ExperimentConfig, Overbid, Shade, Truthful, compare_rules, run_experiment, write_rounds_csv,
)
from sealedbid.verify import check_instance, dominance_sweep

# A span of 8 keeps every profile space within the profile table (8^4 = 4,096);
# a span of 10^6 + 1 puts every one above it.
SPANS = {"tabled": 7, "untabled": 10**6}

sampling = st.fixed_dictionaries({
    "n_bidders": st.integers(min_value=2, max_value=4),
    "n_rounds": st.integers(min_value=1, max_value=600),
    "seed": st.integers(min_value=0, max_value=2**64 - 1),
})


@pytest.mark.parametrize("value_high", SPANS.values(), ids=SPANS.keys())
@settings(max_examples=30, deadline=None)
@given(fields=sampling, rule=st.sampled_from(PaymentRule), policy_seed=st.integers(0, 99))
def test_a_config_compared_with_itself_differs_in_nothing(value_high, fields, rule, policy_seed):
    config = ExperimentConfig(**fields, value_low=0, value_high=value_high, rule=rule,
                              strategy=Shade(3, 4), policy=Seeded(policy_seed))
    paired = compare_rules(config, config)
    assert (paired.mean_revenue_diff, paired.mean_winner_utility_diff,
            paired.efficiency_rate_diff, paired.revenue_diff_min,
            paired.revenue_diff_max) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("value_high", SPANS.values(), ids=SPANS.keys())
@pytest.mark.parametrize("policy", [FirstIndex(), Seeded(3)], ids=["first-index", "seeded"])
@settings(max_examples=30, deadline=None)
@given(fields=sampling)
def test_shifting_every_value_shifts_truthful_second_price_revenue_alike(
        value_high, policy, fields):
    # Each draw is value_low + word % span, so raising both bounds by 1,000
    # raises every value, bid and second-price price by 1,000 and leaves each
    # winner's margin and the efficient winner as they were.  Under the profile
    # table this also fails a fold that drops its weights: the distinct
    # profiles, not the rounds, would each gain 1,000.
    def report(low):
        return run_experiment(ExperimentConfig(
            **fields, value_low=low, value_high=low + value_high,
            rule=PaymentRule.SECOND_PRICE, strategy=Truthful(), policy=policy))

    base, shifted = report(0), report(1000)
    assert shifted.mean_revenue == base.mean_revenue + 1000
    assert shifted.mean_winner_utility == base.mean_winner_utility
    assert shifted.efficiency_rate == base.efficiency_rate


strategies = st.sampled_from([Truthful(), Shade(3, 4), Overbid(2)])
policies = st.sampled_from([FirstIndex(), LastIndex(), Seeded(3)])


@settings(max_examples=30, deadline=None)
@given(fields=sampling, span=st.integers(1, 8), value_low=st.sampled_from([0, 5, 2**70]),
       rules=st.tuples(st.sampled_from(PaymentRule), st.sampled_from(PaymentRule)),
       strategies=st.tuples(strategies, strategies), policies=st.tuples(policies, policies))
def test_a_tabled_run_reports_and_writes_what_an_untabled_one_does(
        fields, span, value_low, rules, strategies, policies):
    # The profile table only changes how rounds are counted (one index per
    # round, each distinct profile decoded and played once, then folded by
    # weight), so a limit of 0, which tables nothing, changes no output.  This
    # fails a _fold that drops its weights and a decoding that reads bidder 0
    # as the least significant digit of a profile index.
    a, b = (ExperimentConfig(**fields, value_low=value_low, value_high=value_low + span - 1,
                             rule=rule, strategy=strategy, policy=policy)
            for rule, strategy, policy in zip(rules, strategies, policies))

    def outputs():
        stream = io.StringIO()
        return run_experiment(a), compare_rules(a, b), write_rounds_csv(a, stream), \
            stream.getvalue()

    assert simulate._tabled(a)
    tabled = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "PROFILE_TABLE_LIMIT", 0)
        assert not simulate._tabled(a)
        assert outputs() == tabled


def counts(report):
    return report.pass_count, report.fail_count, report.case_counts


@pytest.mark.parametrize("rule", PaymentRule)
@pytest.mark.parametrize("n, ticks", [(2, 4), (3, 3), (4, 2)])
def test_first_index_and_last_index_sweep_alike(n, ticks, rule):
    # Reversing the bidder indices maps one policy onto the other, and the
    # grid is closed under reversal, so every count is the same.
    assert counts(dominance_sweep(n, ticks, [FirstIndex()], rule)) == (
        counts(dominance_sweep(n, ticks, [LastIndex()], rule)))


@pytest.mark.parametrize("adversarial", [True, False])
@pytest.mark.parametrize("rule", PaymentRule)
@pytest.mark.parametrize("n, ticks", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_a_policy_list_sweeps_alike_in_either_order(n, ticks, rule, adversarial):
    # The adversarial pairing takes a minimum and a maximum over the list, so
    # only its label, not its utilities, depends on the order.
    def sweep(policies):
        return counts(dominance_sweep(n, ticks, policies, rule, adversarial=adversarial))

    assert sweep([FirstIndex(), LastIndex()]) == sweep([LastIndex(), FirstIndex()])


def test_first_price_fail_counts_are_a_polynomial_in_the_tick_bound():
    # A sweep's rows fill a box of side T + 1 in N + 1 coordinates (opposing
    # bids, value, deviation bid), and its counts grow as a polynomial of
    # degree at most N + 1 in T: at N = 2 their 4th differences vanish.
    fails = [dominance_sweep(2, ticks, [FirstIndex(), LastIndex()], PaymentRule.FIRST_PRICE)
             .fail_count for ticks in range(7)]
    assert fails == [0, 4, 18, 48, 100, 180, 294]
    for _ in range(4):
        fails = [b - a for a, b in zip(fails, fails[1:])]
    assert fails == [0, 0, 0]


def interpolated(n, policies, rule, adversarial):
    """Per T in (N + 3, N + 5): the six counts of the sweep at T, those
    interpolated through T = 0..N+1, and the counterexample at T, beside
    the one at T = N."""
    def sweep(ticks):
        return dominance_sweep(n, ticks, policies, rule, adversarial=adversarial)

    def six(report):
        return (report.pass_count, report.fail_count, *report.case_counts.values())

    reports = [sweep(ticks) for ticks in range(n + 2)]
    columns = list(zip(*map(six, reports)))
    return [(six(report), tuple(interpolate(column, ticks) for column in columns),
             report.counterexample, reports[n].counterexample)
            for ticks in (n + 3, n + 5) for report in [sweep(ticks)]]


@pytest.mark.parametrize("covering", [False, True], ids=["first-last", "with-covering"])
@pytest.mark.parametrize("adversarial", [True, False])
@pytest.mark.parametrize("rule", PaymentRule)
@pytest.mark.parametrize("n", [2, 3])
def test_every_count_is_a_polynomial_in_the_tick_bound(n, rule, adversarial, covering):
    # A row is decided by the weak order of its N + 1 ticks (opposing bids,
    # value, deviation bid) when every policy reads only the argmax set, so
    # each count is a sum over weak orders with k levels of C(T + 1, k) times
    # a constant: a polynomial of degree at most N + 1 in T, which T = 0..N+1
    # pins.  The rank realisation of the first failing row is never above
    # it, so past T = N the counterexample stays put.
    policies = [FirstIndex(), LastIndex()] + ([ExplicitChoice.covering(n)] if covering else [])
    for counts_at, interpolated_at, found, found_at_n in interpolated(
            n, policies, rule, adversarial):
        assert counts_at == interpolated_at
        assert found == found_at_n


@pytest.mark.parametrize("rule", PaymentRule)
@pytest.mark.parametrize("n", [2, 3])
def test_a_seeded_pairing_breaks_the_polynomial(n, rule):
    # The test of the test: Seeded hashes the bid text, not the argmax set,
    # so a sweep that pairs it against FirstIndex does not interpolate.
    # Without the pairing even this list does, as each policy's sum is
    # symmetric over bidders.
    assert any(counts_at != interpolated_at for counts_at, interpolated_at, _, _ in
               interpolated(n, [FirstIndex(), Seeded(0)], rule, adversarial=True))


@st.composite
def scalable_instances(draw):
    # Seeded is left out: it hashes the bid text, so scaling can move its pick
    # among tied bids.  The other policies read only the argmax set.
    n = draw(st.integers(min_value=2, max_value=4))
    ticks = st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
    policies = draw(st.permutations([FirstIndex(), LastIndex(), ExplicitChoice.covering(n)]))
    return draw(ticks), draw(ticks), policies[:draw(st.integers(min_value=1, max_value=3))]


@pytest.mark.parametrize("adversarial", [True, False])
@settings(max_examples=150, deadline=None)
@given(instance=scalable_instances(), k=st.integers(min_value=2, max_value=5),
       grid=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
def test_scaling_an_instance_by_k_keeps_its_cases_and_second_price_verdicts(
        instance, k, grid, adversarial):
    # Scaling every valuation and bid by k keeps every argmax set, so every
    # win/lose status; the critical set {0, M, M + 1} becomes {0, kM, kM + 1},
    # which sits the same way against kM.  Under second price each utility
    # scales by k, so each verdict holds too.  First-price pass and fail counts
    # are left out: the deviation M + 1 pays M + 1, and kM + 1 is not k(M + 1).
    valuations, bids, policies = instance

    def report(scale, rule, deviations="critical"):
        scaled = AuctionInstance([scale * v for v in valuations], [scale * b for b in bids])
        return check_instance(scaled, policies, rule, deviations, adversarial)

    for rule in PaymentRule:
        assert report(k, rule).case_counts == report(1, rule).case_counts
    second = PaymentRule.SECOND_PRICE
    assert counts(report(k, second)) == counts(report(1, second))
    assert report(k, second, [k * d for d in grid]).to_dict() == (
        report(1, second, grid).to_dict())


def mirrored(table, n):
    return ExplicitChoice({tuple(n - 1 - b for b in ties): n - 1 - pick
                           for ties, pick in table.choice.items()})


@pytest.mark.parametrize("adversarial", [True, False])
@pytest.mark.parametrize("rule", PaymentRule)
@pytest.mark.parametrize("n, ticks", [(2, 4), (3, 3), (4, 2)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_an_explicit_table_and_its_mirror_sweep_alike(n, ticks, rule, adversarial, data):
    # Reversing the bidder indices maps a table onto its mirror, and
    # FirstIndex onto LastIndex, and the grid is closed under reversal.
    table = ExplicitChoice({ties: data.draw(st.sampled_from(ties))
                            for ties in ExplicitChoice.covering(n).choice})

    def sweep(policies):
        return counts(dominance_sweep(n, ticks, policies, rule, adversarial=adversarial))

    assert sweep([table]) == sweep([mirrored(table, n)])
    assert sweep([table, FirstIndex()]) == sweep([mirrored(table, n), LastIndex()])
