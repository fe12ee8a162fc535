"""Auction primitives: winner selection, payment rules, utilities."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_outcome
from sealedbid import core
from sealedbid.core import (
    AuctionInstance,
    ExplicitChoice,
    FirstIndex,
    InvalidInstanceError,
    LastIndex,
    Outcome,
    PaymentRule,
    Seeded,
    TieBreakPolicy,
    argmax_set,
    bidder_utility,
    outcome,
    policy_from_dict,
    standard_policies,
)
from sealedbid.seeding import hash_text
from sealedbid.simulate import (
    ExperimentConfig,
    Overbid,
    PairedReport,
    Shade,
    SimReport,
    Truthful,
)
from sealedbid.verify import (
    CaseTag,
    Counterexample,
    VerificationReport,
    check_truthfulness,
    deviation_profile,
)

SECOND = PaymentRule.SECOND_PRICE
profiles = st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=6).map(tuple)
# A small alphabet makes heavy ties likely; the wide range reaches past 64 bits.
kernel_profiles = st.lists(
    st.one_of(st.integers(min_value=0, max_value=3),
              st.sampled_from([2**64 - 1, 2**64, 2**70]),
              st.integers(min_value=0, max_value=2**70)),
    min_size=2, max_size=8,
).map(tuple)


def all_policies(n_bidders, seed=0):
    return standard_policies(n_bidders, seed)


def violations(valuations, bids) -> list:
    """The violations an ``AuctionInstance`` raises at construction."""
    with pytest.raises(InvalidInstanceError) as info:
        AuctionInstance(valuations, bids)
    return info.value.violations


class TestValidate:
    def test_valid_instance(self):
        assert AuctionInstance((3, 6, 4), (3, 5, 4)).n_bidders == 3

    def test_single_bidder(self):
        assert violations((3,), (3,)) == ["N >= 2 required (got 1)"]

    def test_length_mismatch(self):
        assert violations((3, 6), (3, 5, 4)) == ["length mismatch (2 valuations vs 3 bids)"]

    def test_negative_tick(self):
        assert violations((3, 6), (-1, 2)) == ["negative tick (bids[0] = -1)"]

    def test_tick_whose_successor_has_no_decimal_text(self):
        # the critical deviation above a bid of 4300 nines has 4301 digits
        top = int("9" * 4300)
        assert AuctionInstance((top - 1, 0), (top - 1, 3)).bids == (top - 1, 3)
        assert violations((top, 0), (top, 3)) == [
            "tick too large (valuations[0] + 1 has more than 4300 digits)",
            "tick too large (bids[0] + 1 has more than 4300 digits)",
        ]

    def test_non_integer_ticks_are_reported_like_from_dict(self):
        # a float, a bool (an int subclass) and a string; none may reach the tick checks
        assert violations((1.5, 2), (True, "3")) == [
            "non-integer tick (valuations[0] = 1.5)",
            "non-integer tick (bids[0] = True)",
            "non-integer tick (bids[1] = '3')",
        ]

    def test_all_violations_reported(self):
        # the gatekeeper must list every broken rule, not stop at the first
        assert violations((-1,), (2, -3)) == [
            "length mismatch (1 valuations vs 2 bids)",
            "N >= 2 required (got 1)",
            "negative tick (valuations[0] = -1)",
            "negative tick (bids[1] = -3)",
        ]


class TestMaxima:
    def test_max_bid(self):
        # the first price is the highest bid
        def top(bids):
            return outcome(bids, FirstIndex(), PaymentRule.FIRST_PRICE).price

        assert top((3, 5, 4)) == 5
        assert top((7, 7)) == 7
        assert top((0, 0, 0)) == 0

    def test_argmax_set(self):
        assert argmax_set((3, 5, 4)) == (1,)
        assert argmax_set((2, 7, 7)) == (1, 2)
        assert argmax_set((0, 0)) == (0, 1)


@pytest.mark.parametrize("bidder, fault", [
    (True, "bidder index must be an integer (got True)"),
    (1.0, "bidder index must be an integer (got 1.0)"),
    (-1, "bidder index -1 out of range for N=2"),
    (2, "bidder index 2 out of range for N=2"),
], ids=["bool", "float", "negative", "N"])
@pytest.mark.parametrize("entry", [
    lambda b: deviation_profile((3, 5), b, 4),
    lambda b: bidder_utility((3, 6), outcome((3, 5), FirstIndex(), SECOND), b),
    lambda b: check_truthfulness((3, 6), (5,), b, [FirstIndex()]),
], ids=["deviation_profile", "bidder_utility", "check_truthfulness"])
def test_every_entry_refuses_a_bidder_that_is_not_an_index(entry, bidder, fault):
    with pytest.raises(ValueError) as info:
        entry(bidder)
    assert str(info.value) == fault


class TestSelectWinner:
    def test_unique_maximum(self):
        assert outcome((3, 5, 4), FirstIndex(), SECOND).winner == 1

    def test_tie_first_vs_last(self):
        assert outcome((2, 7, 7), FirstIndex(), SECOND).winner == 1
        assert outcome((2, 7, 7), LastIndex(), SECOND).winner == 2

    def test_seeded_is_deterministic(self):
        policy = Seeded(42)
        picks = {outcome((2, 7, 7), policy, SECOND).winner for _ in range(10)}
        assert len(picks) == 1
        assert picks.pop() in (1, 2)

    def test_seeded_depends_on_seed_somewhere(self):
        # over many tie profiles, two seeds cannot agree everywhere
        ties = [(k, k) for k in range(40)]
        a = [outcome(t, Seeded(0), SECOND).winner for t in ties]
        b = [outcome(t, Seeded(1), SECOND).winner for t in ties]
        assert a != b

    def test_seeded_hashes_only_a_tie(self, monkeypatch):
        hashed = []
        real = core.hash_text

        def counting(seed, text):
            hashed.append(text)
            return real(seed, text)

        monkeypatch.setattr(core, "hash_text", counting)
        assert outcome((2, 7, 5), Seeded(42), SECOND).winner == 1
        assert hashed == []
        assert outcome((2, 7, 7), Seeded(42), SECOND).winner in (1, 2)
        assert hashed == ["2,7,7"]

    def test_explicit_uses_choice_table(self):
        policy = ExplicitChoice({(1, 2): 2, (0,): 0})
        assert outcome((2, 7, 7), policy, SECOND).winner == 2

    def test_explicit_missing_entry(self):
        policy = ExplicitChoice({(0,): 0})
        with pytest.raises(ValueError):
            outcome((2, 7, 7), policy, SECOND).winner

    def test_explicit_rejects_pick_outside_set(self):
        with pytest.raises(ValueError):
            ExplicitChoice({(1, 2): 0})

    @pytest.mark.parametrize("choice", [
        {"0,1": 0, "1,0": 1},  # one argmax set, two different winners
        {"0,0,1": 0},  # a repeated index names no argmax set
        {"-1": -1},
        {"1,-1": 1},
    ])
    def test_explicit_rejects_a_key_that_cannot_name_one_argmax_set(self, choice):
        with pytest.raises(ValueError):
            policy_from_dict({"kind": "explicit", "choice": choice})
        with pytest.raises(ValueError):
            ExplicitChoice({tuple(int(i) for i in key.split(",")): pick
                            for key, pick in choice.items()})

    def test_explicit_accepts_one_argmax_set_named_twice_with_one_winner(self):
        policy = policy_from_dict({"kind": "explicit", "choice": {"0,1": 1, "1,0": 1}})
        assert policy.choice == {(0, 1): 1}

    def test_covering_table_handles_every_argmax_set(self):
        policy = ExplicitChoice.covering(3)
        for bids in [(1, 1, 1), (2, 2, 0), (0, 5, 5), (9, 1, 1), (0, 0, 7)]:
            winner = outcome(bids, policy, SECOND).winner
            assert winner in argmax_set(bids)

    def test_covering_table_stops_at_sixteen_bidders(self):
        with pytest.raises(ValueError) as info:
            ExplicitChoice.covering(17)
        assert str(info.value) == "covering table supports 2 <= N <= 16 (got 17)"

    @given(profiles)
    def test_winner_always_in_argmax_set(self, bids):
        for policy in all_policies(len(bids)):
            assert outcome(bids, policy, SECOND).winner in argmax_set(bids)


class TestOutcome:
    def test_second_price(self):
        o = outcome((3, 5, 4), FirstIndex(), PaymentRule.SECOND_PRICE)
        assert (o.winner, o.price) == (1, 4)

    def test_first_price(self):
        o = outcome((3, 5, 4), FirstIndex(), PaymentRule.FIRST_PRICE)
        assert (o.winner, o.price) == (1, 5)

    def test_tie_second_price_equals_winning_bid(self):
        o = outcome((7, 7), FirstIndex(), PaymentRule.SECOND_PRICE)
        assert (o.winner, o.price) == (0, 7)

    @given(profiles)
    def test_second_price_invariants(self, bids):
        for policy in all_policies(len(bids)):
            o = outcome(bids, policy, PaymentRule.SECOND_PRICE)
            assert o.price == max(b for i, b in enumerate(bids) if i != o.winner)
            assert o.price <= bids[o.winner]

    @given(profiles)
    def test_first_price_charges_winning_bid(self, bids):
        o = outcome(bids, FirstIndex(), PaymentRule.FIRST_PRICE)
        assert o.price == bids[o.winner] == max(bids)

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_result_is_the_keyword_built_outcome(self, rule):
        bids = [3, 5, 5, 4]  # a list profile, with a tie
        for policy in all_policies(len(bids)):
            winner = policy.select(tuple(bids))  # the policy's own pick
            price = (max(b for i, b in enumerate(bids) if i != winner)
                     if rule is PaymentRule.SECOND_PRICE else 5)
            o = outcome(bids, policy, rule)
            assert type(o) is Outcome
            assert o == Outcome(winner=winner, price=price)
            assert o._asdict() == {"winner": winner, "price": price}

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_one_bidder_profile_is_refused(self, rule):
        for policy in all_policies(2):
            with pytest.raises(ValueError, match="N >= 2"):
                outcome([5], policy, rule)

    @given(kernel_profiles, st.integers(min_value=0, max_value=2**64 - 1))
    def test_kernel_matches_the_scan_definitions(self, bids, seed):
        # Reference: the argmax set and highest other bid by plain scans,
        # and each policy's pick written out from its documented rule.
        top = max(bids)
        ties = tuple(i for i, b in enumerate(bids) if b == top)
        others = [max(b for i, b in enumerate(bids) if i != k) for k in range(len(bids))]
        assert argmax_set(bids) == ties
        text = ",".join(str(b) for b in bids)
        explicit = ExplicitChoice.covering(len(bids))
        picks = [
            (FirstIndex(), ties[0]),
            (LastIndex(), ties[-1]),
            (Seeded(seed), ties[hash_text(seed, text) % len(ties)]),
            (explicit, ties[len(ties) // 2]),
        ]
        for policy, winner in picks:
            assert outcome(list(bids), policy, SECOND).winner == winner
            for rule, price in ((PaymentRule.SECOND_PRICE, others[winner]),
                                (PaymentRule.FIRST_PRICE, bids[winner])):
                assert outcome(list(bids), policy, rule) == (winner, price)


class RoguePolicy(TieBreakPolicy):
    """Breaks the tie-break contract: always picks a fixed index."""

    def __init__(self, pick):
        self.pick = pick

    def select(self, bids):
        return self.pick

    def describe(self):
        return "rogue"


class TestTieBreakContract:
    @pytest.mark.parametrize("rule", list(PaymentRule))
    @pytest.mark.parametrize("pick", [0, 1, 4, 7, -1, -4])
    def test_outcome_rejects_a_pick_without_the_top_bid(self, rule, pick):
        # bids[-1] holds a top bid, but -1 is no bidder's index
        with pytest.raises(ValueError, match="not a highest bidder"):
            outcome((3, 1, 5, 5), RoguePolicy(pick), rule)

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_outcome_accepts_any_tied_top_bidder(self, rule):
        assert outcome((3, 5, 5), RoguePolicy(1), rule) == (1, 5)
        assert outcome((3, 5, 5), RoguePolicy(2), rule) == (2, 5)

    def test_outcome_is_an_immutable_record(self):
        o = Outcome(winner=1, price=4)
        assert (o.winner, o.price) == (1, 4)
        with pytest.raises(AttributeError):
            o.price = 0
        assert o == Outcome(1, 4)


class RecordingPolicy(RoguePolicy):
    """A ``RoguePolicy`` that records every profile it is asked to select on."""

    def __init__(self, pick):
        super().__init__(pick)
        self.seen = []

    def select(self, bids):
        self.seen.append(bids)
        return self.pick


class TestOutcomeChecks:
    @given(st.data())
    def test_each_profile_is_the_naive_evaluation(self, data):
        # Ticks 0..3 make ties common, so every policy's tie-break acts.
        n_bidders = data.draw(st.integers(min_value=2, max_value=5))
        profile = st.tuples(*[st.integers(min_value=0, max_value=3)] * n_bidders)
        bids = data.draw(profile)
        seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
        policy = data.draw(st.sampled_from(all_policies(n_bidders, seed)))
        rule = data.draw(st.sampled_from(list(PaymentRule)))
        result = outcome(list(bids), policy, rule)
        assert type(result) is Outcome
        assert result == naive_outcome(bids, policy, rule)

    @pytest.mark.parametrize("rule", ["second-price", None, 0])
    def test_a_rule_that_is_no_member_is_refused_before_any_select(self, rule):
        policy = RecordingPolicy(0)
        with pytest.raises(ValueError, match="^payment rule must be a PaymentRule member"):
            outcome((5, 1), policy, rule)
        assert policy.seen == []

    @pytest.mark.parametrize("rule", list(PaymentRule))
    @pytest.mark.parametrize("bids, fault, seen", [
        ([1, 5], r"tie-break rogue picked 0, not a highest bidder", [(1, 5)]),
        ([7], r"N >= 2 required \(got 1\)", []),
    ])
    def test_a_profile_is_refused_before_or_after_its_select(self, rule, bids, fault, seen):
        # The bidder count is checked before the pick, the pick after it;
        # select is handed a tuple whatever sequence the caller passed.
        policy = RecordingPolicy(0)
        with pytest.raises(ValueError, match=f"^{fault}$"):
            outcome(bids, policy, rule)
        assert policy.seen == seen


class TestUtility:
    def test_winner_gains_margin(self):
        o = Outcome(winner=1, price=4)
        assert bidder_utility((3, 6, 4), o, 1) == 2

    def test_loser_gets_zero(self):
        o = Outcome(winner=1, price=4)
        assert bidder_utility((3, 6, 4), o, 0) == 0

    def test_winner_can_lose_money(self):
        o = Outcome(winner=1, price=4)
        assert bidder_utility((3, 1, 4), o, 1) == -3

    def test_profile_utility_examples(self):
        v = (3, 6, 4)
        for o, utility in ((Outcome(1, 4), 2), (Outcome(0, 3), 0)):
            assert bidder_utility(v, o, o.winner) == utility

    @given(profiles)
    def test_profile_utility_is_winner_utility(self, bids):
        # losers contribute zero, so the sum collapses to the winner's term
        v = tuple(reversed(bids))
        o = outcome(bids, FirstIndex(), PaymentRule.SECOND_PRICE)
        total = sum(bidder_utility(v, o, i) for i in range(len(bids)))
        assert total == bidder_utility(v, o, o.winner)
        for i in range(len(bids)):
            if i != o.winner:
                assert bidder_utility(v, o, i) == 0


class TestScalingAndPermutation:
    @given(profiles, st.integers(min_value=1, max_value=9))
    def test_tick_scaling_invariance(self, bids, factor):
        scaled = tuple(b * factor for b in bids)
        assert argmax_set(scaled) == argmax_set(bids)
        for policy in (FirstIndex(), LastIndex(), ExplicitChoice.covering(len(bids))):
            assert outcome(scaled, policy, SECOND).winner == outcome(bids, policy, SECOND).winner
            o = outcome(bids, policy, PaymentRule.SECOND_PRICE)
            o_scaled = outcome(scaled, policy, PaymentRule.SECOND_PRICE)
            assert o_scaled.price == o.price * factor

    @given(profiles, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, bids, rng):
        order = list(range(len(bids)))
        rng.shuffle(order)
        permuted = tuple(bids[j] for j in order)
        winner = outcome(permuted, FirstIndex(), SECOND).winner
        assert order[winner] in argmax_set(bids)

    @given(profiles)
    def test_exact_subtraction_roundtrip(self, bids):
        o = outcome(bids, FirstIndex(), PaymentRule.SECOND_PRICE)
        v = bids
        u = bidder_utility(v, o, o.winner)
        assert u + o.price == v[o.winner]


class TestSerialization:
    def test_from_dict_roundtrip(self):
        doc = {"valuations": [3, 6, 4], "bids": [3, 5, 4]}
        instance = AuctionInstance.from_dict(doc)
        assert instance.valuations == (3, 6, 4)
        assert instance.bids == (3, 5, 4)
        assert instance.to_dict() == doc
        assert instance == AuctionInstance.from_dict(doc) == AuctionInstance(**doc)

    def test_from_dict_rejects_non_integer_ticks(self):
        with pytest.raises(InvalidInstanceError):
            AuctionInstance.from_dict({"valuations": [3.5, 6], "bids": [3, 5]})
        with pytest.raises(InvalidInstanceError):
            AuctionInstance.from_dict({"valuations": [True, False], "bids": [1, 0]})

    @pytest.mark.parametrize("policy, doc", [
        (FirstIndex(), {"kind": "first-index"}),
        (LastIndex(), {"kind": "last-index"}),
        (Seeded(7), {"kind": "seeded", "seed": 7}),
        (ExplicitChoice.covering(3), {"kind": "explicit", "choice": {
            "0": 0, "0,1": 1, "0,1,2": 1, "0,2": 2, "1": 1, "1,2": 2, "2": 2,
        }}),
    ], ids=["first-index", "last-index", "seeded", "explicit"])
    def test_policy_from_dict_roundtrip(self, policy, doc):
        assert policy.to_dict() == doc
        clone = policy_from_dict(doc)
        assert clone == policy
        for bids in [(1, 1, 1), (0, 2, 2), (5, 0, 0)]:
            assert outcome(bids, clone, SECOND).winner == outcome(bids, policy, SECOND).winner

    def test_seeded_document_seed_defaults_to_zero(self):
        assert policy_from_dict({"kind": "seeded"}) == Seeded(0)

    # Odd kinds and fields through a config: tests/test_cli.py::TestSimulate.
    @pytest.mark.parametrize("doc", [
        {"kind": "Seeded"}, {"kind": "seeded", "seed": "2"}, {"kind": "explicit"},
        {"kind": "explicit", "choice": {"0,x": 0}}, [1], 5,
        {"kind": "first-index", "seed": 9, "choice": 1}, {"kind": "seeded", "sede": 1},
        {"kind": "explicit", "choice": {"0": 0}, "seed": 9},
    ])
    def test_malformed_policy_documents_raise_value_error(self, doc):
        with pytest.raises(ValueError):
            policy_from_dict(doc)

    def test_an_explicit_choice_must_be_an_integer(self):
        with pytest.raises(ValueError) as info:
            policy_from_dict({"kind": "explicit", "choice": {"0": "x"}})
        assert str(info.value) == "explicit choice for '0' must be an integer"

    def test_counterexample_document_lists_its_profiles(self):
        found = Counterexample((1, 2), (1, 0), 1, 3, "first-index", 0, 1)
        assert found.to_dict() == {
            "valuations": [1, 2], "bids": [1, 0], "bidder": 1, "deviation_bid": 3,
            "policy": "first-index", "truthful_utility": 0, "deviation_utility": 1,
        }

    def test_a_policy_that_is_not_a_record_writes_its_label_as_its_kind(self):
        assert RoguePolicy(0).describe() == "rogue"
        assert RoguePolicy(0).to_dict() == {"kind": "rogue"}
        config = ExperimentConfig(**dict(CONFIG_FIELDS, policy=RoguePolicy(0)))
        assert config.to_dict()["policy"] == {"kind": "rogue"}


CONFIG_FIELDS = dict(n_bidders=2, n_rounds=3, value_low=0, value_high=4,
                     rule=PaymentRule.FIRST_PRICE, strategy=Shade(3, 4), policy=Seeded(7), seed=5)
CONFIG_REPR = ("ExperimentConfig(n_bidders=2, n_rounds=3, value_low=0, value_high=4, "
               "rule=<PaymentRule.FIRST_PRICE: 'first-price'>, "
               "strategy=Shade(numerator=3, denominator=4), policy=Seeded(seed=7), seed=5)")
REPORT_FIELDS = dict(config=ExperimentConfig(**CONFIG_FIELDS), rounds=3,
                     mean_revenue=Fraction(1, 2), mean_winner_utility=Fraction(0),
                     efficiency_rate=Fraction(1))
REPORT_REPR = (f"SimReport(config={CONFIG_REPR}, rounds=3, mean_revenue=Fraction(1, 2), "
               "mean_winner_utility=Fraction(0, 1), efficiency_rate=Fraction(1, 1))")
# Every record type: its fields in order, whether it hashes, and its repr,
# pinned byte for byte to what `dataclasses` printed for it.
RECORDS = [
    (AuctionInstance, dict(valuations=[1, 2], bids=[2, 1]), True,
     "AuctionInstance(valuations=(1, 2), bids=(2, 1))"),
    (FirstIndex, {}, True, "FirstIndex()"),
    (LastIndex, {}, True, "LastIndex()"),
    (Seeded, dict(seed=7), True, "Seeded(seed=7)"),
    (ExplicitChoice, dict(choice={(1, 0): 1}), False, "ExplicitChoice(choice={(0, 1): 1})"),
    (Counterexample, dict(valuations=(1, 2), bids=(1, 2), bidder=0, deviation_bid=3,
                          policy="first-index", truthful_utility=0, deviation_utility=1), True,
     "Counterexample(valuations=(1, 2), bids=(1, 2), bidder=0, deviation_bid=3, "
     "policy='first-index', truthful_utility=0, deviation_utility=1)"),
    (VerificationReport, dict(pass_count=2, fail_count=0, case_counts={CaseTag.WIN_WIN: 1},
                              counterexample=None), False,
     "VerificationReport(pass_count=2, fail_count=0, "
     "case_counts={<CaseTag.WIN_WIN: 'win-win'>: 1}, counterexample=None)"),
    (Truthful, {}, True, "Truthful()"),
    (Shade, dict(numerator=3, denominator=4), True, "Shade(numerator=3, denominator=4)"),
    (Overbid, dict(delta=2), True, "Overbid(delta=2)"),
    (ExperimentConfig, CONFIG_FIELDS, True, CONFIG_REPR),
    (SimReport, REPORT_FIELDS, True, REPORT_REPR),
    (PairedReport, dict(report_a=SimReport(**REPORT_FIELDS), report_b=SimReport(**REPORT_FIELDS),
                        mean_revenue_diff=Fraction(0), mean_winner_utility_diff=Fraction(0),
                        efficiency_rate_diff=Fraction(0), revenue_diff_min=-1,
                        revenue_diff_max=2), True,
     f"PairedReport(report_a={REPORT_REPR}, report_b={REPORT_REPR}, "
     "mean_revenue_diff=Fraction(0, 1), mean_winner_utility_diff=Fraction(0, 1), "
     "efficiency_rate_diff=Fraction(0, 1), revenue_diff_min=-1, revenue_diff_max=2)"),
]


@pytest.mark.parametrize("cls, fields, hashable, text", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
class TestRecordContract:
    """The value-type contract every record keeps: positional or keyword
    construction, frozen fields, equality within one class, hashing and repr."""

    def test_equality_is_by_fields_within_one_class(self, cls, fields, hashable, text):
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert not record != cls(**fields)

        class Twin(cls):
            """Holds the same fields as ``cls``, but is another class."""

        assert record != Twin(*fields.values())
        assert record != object()

    def test_hash_agrees_with_equality(self, cls, fields, hashable, text):
        record, clone = cls(**fields), cls(**fields)
        if hashable:
            assert hash(record) == hash(clone) and len({record, clone}) == 1
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_fields_are_frozen(self, cls, fields, hashable, text):
        record = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(**fields)

    def test_bad_arguments_raise_type_error(self, cls, fields, hashable, text):
        values = list(fields.values())
        with pytest.raises(TypeError):
            cls(*values, 0)  # one too many
        with pytest.raises(TypeError):
            cls(**fields, extra=0)
        if fields:
            first = next(iter(fields))
            with pytest.raises(TypeError):
                cls(*values[:-1])  # one missing
            with pytest.raises(TypeError):
                cls(*values, **{first: fields[first]})  # given twice

    def test_repr_is_the_dataclass_repr(self, cls, fields, hashable, text):
        assert repr(cls(**fields)) == repr(cls(*fields.values())) == text


def test_empty_records_of_different_classes_differ():
    # a tuple-based record would make these equal: all three hold ()
    assert FirstIndex() != LastIndex() and FirstIndex() != Truthful() != LastIndex()


@pytest.mark.parametrize("build", [
    lambda: Seeded(-1),
    lambda: Shade(4, 3),
    lambda: Overbid(-1),
    lambda: ExperimentConfig(**dict(CONFIG_FIELDS, value_low=5, value_high=4)),
])
def test_records_still_validate_their_fields(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build, fault", [
    (lambda: ExplicitChoice({(0, 1): True}),
     "explicit choice for [0, 1] must be an integer (got True)"),
    (lambda: ExplicitChoice({(0, 1): 1.0}),
     "explicit choice for [0, 1] must be an integer (got 1.0)"),
    (lambda: ExplicitChoice({(0, True): 0}),
     "argmax set [0, True] member must be an integer (got True)"),
    (lambda: ExplicitChoice({(0.0, 1): 1}),
     "argmax set [0.0, 1] member must be an integer (got 0.0)"),
    (lambda: Seeded(1.5), "seeded field 'seed' must be an integer (got 1.5)"),
    (lambda: Seeded(True), "seeded field 'seed' must be an integer (got True)"),
], ids=["pick-bool", "pick-float", "member-bool", "member-float", "seed-float", "seed-bool"])
def test_a_policy_refuses_a_non_int_pick_member_or_seed_at_construction(build, fault):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == fault
