"""One tick rule at every boundary that admits a tick, one payment rule type
for every evaluation, and one bidder-count rule, one budget rule and one seed
range wherever a bidder count, a budget or a seed is taken."""

import io
import json
import sys

import pytest

from sealedbid import core
from sealedbid.cli import EXIT_INVALID, dispatch, load_instance
from sealedbid.core import (
    AuctionInstance,
    ExplicitChoice,
    FirstIndex,
    InvalidInstanceError,
    PaymentRule,
    Seeded,
    argmax_set,
    outcome,
    standard_policies,
    tick_violation,
)
from sealedbid.simulate import (
    ExperimentConfig,
    Overbid,
    Strategy,
    Truthful,
    compare_rules,
    run_experiment,
    write_rounds_csv,
)
from sealedbid.verify import (
    check_instance,
    check_truthfulness,
    dominance_sweep,
    find_counterexample,
)

SECOND = PaymentRule.SECOND_PRICE
INSTANCE = AuctionInstance((3, 6), (3, 5))
HUGE = 10**4300 - 1  # prints in 4300 digits; its successor, in 4301, past the default cap

# Each kind of non-tick, and the fault it is refused with, "{}" standing for its label.
NON_TICKS = {
    "float": (1.5, "non-integer tick ({} = 1.5)"),
    "bool": (True, "non-integer tick ({} = True)"),
    "negative": (-1, "negative tick ({} = -1)"),
    "too-large": (HUGE, "tick too large ({} + 1 has more than 4300 digits)"),
}


def faults(call) -> "list | None":
    """The faults that ``call()`` raises in a ValueError: its violations, else its message."""
    try:
        call()
    except ValueError as exc:
        return getattr(exc, "violations", [str(exc)])


def config(low=0, high=9, rule=SECOND, strategy=Truthful()) -> ExperimentConfig:
    return ExperimentConfig(2, 10, low, high, rule, strategy, FirstIndex(), 1)


class Constant(Strategy):
    """Bids ``tick`` whatever the value (nondecreasing, as every strategy must be)."""

    kind = "constant"

    def __init__(self, tick):
        self.tick = tick

    def bid(self, value):
        return self.tick


def ends_at(tick) -> range:
    """A short range of deviation bids with ``tick`` at one end (a range holds only ints):
    a run that let the tick through would not enumerate a vast grid."""
    return range(tick, 3) if tick < 0 else range(0, tick + 1, tick)


ALL, RANGE_ENDS = tuple(NON_TICKS), ("negative", "too-large")
# Per boundary: the tick's label, a call feeding it tick t, the faults that
# follow the tick's (a document with one array field lacks the other), and the
# kinds of non-tick it can be fed.
BOUNDARIES = {
    "AuctionInstance": ("valuations[0]", lambda t: AuctionInstance((t, 1), (1, 1)), [], ALL),
    "from_dict-one-field": ("valuations[1]",
                            lambda t: AuctionInstance.from_dict({"valuations": [0, t]}),
                            ["missing or non-array field 'bids'"], ALL),
    "dominance_sweep-list": ("deviation", lambda t: dominance_sweep(2, 2, deviations=[2, t]),
                             [], ALL),
    "check_instance-list": ("deviation", lambda t: check_instance(
        INSTANCE, standard_policies(2), deviations=[0, t]), [], ALL),
    "check_truthfulness-list": ("deviation", lambda t: check_truthfulness(
        (3, 6), (5,), 0, standard_policies(2), SECOND, [t]), [], ALL),
    "dominance_sweep-range": ("deviation", lambda t: dominance_sweep(
        2, 2, deviations=ends_at(t)), [], RANGE_ENDS),
    "check_instance-range": ("deviation", lambda t: check_instance(
        INSTANCE, standard_policies(2), deviations=ends_at(t)), [], RANGE_ENDS),
    "check_truthfulness-range": ("deviation", lambda t: check_truthfulness(
        (3, 6), (5,), 0, standard_policies(2), SECOND, ends_at(t)), [], RANGE_ENDS),
    "check_truthfulness-valuation": ("valuations[0]", lambda t: check_truthfulness(
        (t, 6), (5,), 1, standard_policies(2), SECOND), [], ALL),
    # A check_truthfulness fault is named by the caller's argument, not by its place
    # in the profile built from the arguments, where the bidder's own valuation
    # shifts the opposing bids and would be named a second time.
    "check_truthfulness-own-valuation": ("valuations[1]", lambda t: check_truthfulness(
        (3, t), (4,), 1, standard_policies(2), SECOND), [], ALL),
    "check_truthfulness-others": ("others[1]", lambda t: check_truthfulness(
        (3, 6, 2), (4, t), 0, standard_policies(3), SECOND), [], ALL),
    "dominance_sweep-tick_bound": ("tick_bound", lambda t: dominance_sweep(2, t), [], ALL),
    "find_counterexample-tick_bound": ("tick_bound", lambda t: find_counterexample(SECOND, 2, t),
                                       [], ALL),
    "config-value_low": ("value_low", lambda t: config(low=t), [], ALL),
    "config-value_high": ("value_high", lambda t: config(high=t), [], ALL),
    "config-strategy-bid": ("strategy.bid(value_high)",
                            lambda t: config(strategy=Constant(t)), [], ALL),
    "config-overbid": ("strategy.bid(value_high)",
                       lambda t: config(high=0, strategy=Overbid(t)), [], ("too-large",)),
}


@pytest.mark.parametrize("boundary, kind", [
    (boundary, kind) for boundary, (*_, kinds) in BOUNDARIES.items() for kind in kinds
])
def test_every_boundary_refuses_a_non_tick_before_any_outcome(evaluations, boundary, kind):
    label, run, after, _ = BOUNDARIES[boundary]
    tick, fault = NON_TICKS[kind]
    assert faults(lambda: run(tick)) == [fault.format(label), *after]
    assert evaluations.profiles == []


@pytest.mark.parametrize("kind", ALL)
def test_classify_refuses_a_non_tick_deviation(tmp_path, capsys, evaluations, kind):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"valuations": [3, 6], "bids": [3, 5]}), encoding="utf-8")
    tick, fault = NON_TICKS[kind]
    code = dispatch(["classify", str(path), "--bidder", "0", "--deviation", str(tick)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INVALID, "")
    if kind in RANGE_ENDS:  # argparse's int() refuses the others first
        assert captured.err == f"error: {fault.format('deviation')}\n"
    assert evaluations.profiles == []


def test_the_digit_cap_is_read_on_each_call():
    cap = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4301)
        assert tick_violation("x", HUGE) is None
    finally:
        sys.set_int_max_str_digits(cap)
    assert tick_violation("x", HUGE) == "tick too large (x + 1 has more than 4300 digits)"


def test_loading_an_instance_walks_each_tick_once(tmp_path, monkeypatch):
    walked = []
    real = core.tick_violation
    monkeypatch.setattr(core, "tick_violation",
                        lambda label, tick: walked.append(label) or real(label, tick))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"valuations": [3, 6], "bids": [3, 5]}), encoding="utf-8")
    assert load_instance(str(path)) == INSTANCE
    assert walked == ["valuations[0]", "valuations[1]", "bids[0]", "bids[1]"]


@pytest.mark.parametrize("command", ["check", "validate"])
def test_a_command_validates_its_instance_once(tmp_path, monkeypatch, capsys, command):
    calls = []
    real = core.tick_violation
    monkeypatch.setattr(core, "tick_violation", lambda *args: calls.append(args) or real(*args))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"valuations": [3, 6, 4], "bids": [3, 5, 4]}), encoding="utf-8")
    assert dispatch([command, str(path)]) != EXIT_INVALID
    assert capsys.readouterr().err == ""
    assert len(calls) == 2 * 3  # one call per tick of the N = 3 instance


def test_a_too_large_deviation_is_invalid_before_it_is_over_budget(evaluations):
    with pytest.raises(InvalidInstanceError) as info:
        check_instance(INSTANCE, standard_policies(2), deviations=range(0, 10**5000), budget=10)
    assert info.value.violations == ["tick too large (deviation + 1 has more than 4300 digits)"]
    assert evaluations.profiles == []


@pytest.mark.parametrize("run", [
    lambda rule: outcome((3, 5), FirstIndex(), rule),
    lambda rule: dominance_sweep(2, 2, rule=rule),
    lambda rule: find_counterexample(rule, 2, 2),
    lambda rule: check_instance(INSTANCE, standard_policies(2), rule),
    lambda rule: run_experiment(config(rule=rule)),
], ids=["outcome", "dominance_sweep", "find_counterexample", "check_instance", "run_experiment"])
def test_a_rule_by_name_is_refused(run):
    """A rule's name is refused, where it was priced as first-price."""
    assert faults(lambda: run("second-price")) == [
        "payment rule must be a PaymentRule member (got 'second-price')"
    ]


# Per boundary that takes a bidder count: a call with N bidders, or with an
# N-bidder profile.
BIDDER_COUNTS = {
    "outcome": lambda n: outcome((5,) * n, FirstIndex(), SECOND),
    "argmax_set": lambda n: argmax_set((5,) * n),
    "AuctionInstance": lambda n: AuctionInstance((5,) * n, (5,) * n),
    "ExperimentConfig": lambda n: ExperimentConfig(n, 10, 0, 9, SECOND, Truthful(),
                                                   FirstIndex(), 1),
    "covering": ExplicitChoice.covering,
    "standard_policies": standard_policies,
    "dominance_sweep": lambda n: dominance_sweep(n, 2),
    "dominance_sweep-first-index": lambda n: dominance_sweep(n, 2, [FirstIndex()]),
    "find_counterexample": lambda n: find_counterexample(SECOND, n, 2),
    "find_counterexample-first-index": lambda n: find_counterexample(SECOND, n, 2,
                                                                     [FirstIndex()]),
}


@pytest.mark.parametrize("boundary", BIDDER_COUNTS)
@pytest.mark.parametrize("n", [0, 1])
def test_every_boundary_refuses_fewer_than_two_bidders_before_any_outcome(
        evaluations, boundary, n):
    assert faults(lambda: BIDDER_COUNTS[boundary](n)) == [f"N >= 2 required (got {n})"]
    assert evaluations.profiles == []


# The boundaries above that take N itself, not a profile of N bids (a config's
# n_bidders is refused as a config field, by the integer-field rule).
@pytest.mark.parametrize("boundary", ["covering", "standard_policies", "dominance_sweep",
                                      "dominance_sweep-first-index", "find_counterexample",
                                      "find_counterexample-first-index"])
@pytest.mark.parametrize("n", [2.0, 2.5, True, None], ids=repr)
def test_every_boundary_refuses_a_non_integer_bidder_count_before_any_outcome(
        evaluations, boundary, n):
    assert faults(lambda: BIDDER_COUNTS[boundary](n)) == [f"N must be an integer (got {n!r})"]
    assert evaluations.profiles == []


# Per entry that takes a budget: a call with budget b.  A list of deviations is
# read up to the budget, so the budget is checked before it is read.
BUDGETS = {
    "dominance_sweep": lambda b: dominance_sweep(2, 2, budget=b),
    "dominance_sweep-list": lambda b: dominance_sweep(2, 2, deviations=[0, 1], budget=b),
    "find_counterexample": lambda b: find_counterexample(SECOND, 2, 2, budget=b),
    "check_instance": lambda b: check_instance(INSTANCE, standard_policies(2), budget=b),
    "check_instance-list": lambda b: check_instance(
        INSTANCE, standard_policies(2), deviations=[0, 1], budget=b),
    "check_truthfulness": lambda b: check_truthfulness(
        (3, 6), (5,), 0, standard_policies(2), SECOND, budget=b),
    "run_experiment": lambda b: run_experiment(config(), budget=b),
    "compare_rules": lambda b: compare_rules(config(), config(), budget=b),
    "write_rounds_csv": lambda b: write_rounds_csv(config(), io.StringIO(), budget=b),
    "config.check_budget": lambda b: config().check_budget(b),
}
# Each kind of non-budget, and the fault it is refused with.
NON_BUDGETS = {
    "float": (2.5, "budget must be an integer (got 2.5)"),
    "none": (None, "budget must be an integer (got None)"),
    "bool": (True, "budget must be an integer (got True)"),
    "negative": (-1, "budget must be nonnegative (got -1)"),
}


@pytest.mark.parametrize("boundary", BUDGETS)
@pytest.mark.parametrize("kind", NON_BUDGETS)
def test_every_entry_refuses_a_non_budget_before_any_outcome(evaluations, boundary, kind):
    budget, fault = NON_BUDGETS[kind]
    assert faults(lambda: BUDGETS[boundary](budget)) == [fault]
    assert evaluations.profiles == []


@pytest.mark.parametrize("command, flag", [("dominance", "--n"), ("falsify", "--n-max")],
                         ids=["dominance", "falsify"])
@pytest.mark.parametrize("n", [0, 1])
def test_a_sweep_below_two_bidders_is_refused_alike_with_or_without_explicit(
        capsys, evaluations, command, flag, n):
    """The explicit policy's covering table words the refusal as the sweep does."""
    captured = []
    for policies in ("first-index,last-index,seeded,explicit", "first-index,last-index,seeded"):
        assert dispatch([command, flag, str(n), "--policies", policies]) == EXIT_INVALID
        captured.append(capsys.readouterr())
    assert captured[0] == captured[1] == ("", f"error: N >= 2 required (got {n})\n")
    assert evaluations.profiles == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_is_refused_in_the_same_words(tmp_path, capsys, seed):
    fault = f"seed {seed} outside unsigned 64-bit range"
    assert faults(lambda: Seeded(seed)) == [fault]
    assert faults(lambda: ExperimentConfig(2, 10, 0, 9, SECOND, Truthful(), FirstIndex(),
                                           seed)) == [fault]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_bidders": 2, "n_rounds": 5, "value_low": 0, "value_high": 3}),
                    encoding="utf-8")
    for argv in (["simulate", str(path)], ["dominance", "--policies", "seeded"]):
        assert dispatch([*argv, "--seed", str(seed)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {fault}\n")
