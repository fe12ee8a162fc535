"""Report-level metamorphic relations: each ties two reports of the package
to each other, so it needs no oracle and catches an error that the package
and a naive recomputation would share.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sealedbid.core import FirstIndex, PaymentRule, Seeded
from sealedbid.simulate import ExperimentConfig, Shade, Truthful, compare_rules, run_experiment

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
