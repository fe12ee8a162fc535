"""One tick rule at every boundary that admits a tick, and one payment rule
type for every evaluation."""

import json
import sys

import pytest

from sealedbid import cli, core, simulate, verify
from sealedbid.cli import EXIT_INVALID, dispatch, load_instance
from sealedbid.core import (
    AuctionInstance,
    FirstIndex,
    InvalidInstanceError,
    PaymentRule,
    outcome,
    standard_policies,
    tick_violation,
)
from sealedbid.simulate import ExperimentConfig, Overbid, Strategy, Truthful, run_experiment
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


@pytest.fixture
def outcome_calls(monkeypatch) -> list:
    """Records every ``outcome`` call that the verifier, the simulation or the CLI makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return outcome(*args)

    for module in (verify, simulate, cli):
        monkeypatch.setattr(module, "outcome", counted)
    return calls


@pytest.mark.parametrize("boundary, kind", [
    (boundary, kind) for boundary, (*_, kinds) in BOUNDARIES.items() for kind in kinds
])
def test_every_boundary_refuses_a_non_tick_before_any_outcome(outcome_calls, boundary, kind):
    label, run, after, _ = BOUNDARIES[boundary]
    tick, fault = NON_TICKS[kind]
    assert faults(lambda: run(tick)) == [fault.format(label), *after]
    assert outcome_calls == []


@pytest.mark.parametrize("kind", ALL)
def test_classify_refuses_a_non_tick_deviation(tmp_path, capsys, outcome_calls, kind):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"valuations": [3, 6], "bids": [3, 5]}), encoding="utf-8")
    tick, fault = NON_TICKS[kind]
    code = dispatch(["classify", str(path), "--bidder", "0", "--deviation", str(tick)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INVALID, "")
    if kind in RANGE_ENDS:  # argparse's int() refuses the others first
        assert captured.err == f"error: {fault.format('deviation')}\n"
    assert outcome_calls == []


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


def test_a_too_large_deviation_is_invalid_before_it_is_over_budget(outcome_calls):
    with pytest.raises(InvalidInstanceError) as info:
        check_instance(INSTANCE, standard_policies(2), deviations=range(0, 10**5000), budget=10)
    assert info.value.violations == ["tick too large (deviation + 1 has more than 4300 digits)"]
    assert outcome_calls == []


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
