"""Exact-arithmetic primitives for sealed-bid auctions.

Values and bids are nonnegative integers measured in discrete "ticks";
utilities are signed integers in the same unit.  All comparisons and
subtractions are exact, which is what makes the exhaustive checks in
:mod:`sealedbid.verify` trustworthy: there is no tolerance anywhere in
this module.  Any auction over rational amounts can be rescaled onto the
tick lattice by a common denominator without changing who wins.

Everything here is a pure function of its inputs; profiles are plain
tuples and are safe to share freely.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from enum import Enum
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .seeding import hash_text

# Tick amounts.  Money is nonnegative; utilities (SignedMoney) may be
# negative, e.g. for a winner that overbid.
Money = int
SignedMoney = int
BidderId = int

ValuationProfile = tuple[Money, ...]
BidProfile = tuple[Money, ...]


class InvalidInstanceError(ValueError):
    """An auction instance failed validation; carries every violation."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """An enumeration or simulation would exceed its state budget."""


def budget_violation(budget) -> "str | None":
    """The budget rule, asked by every entry that takes a budget before it reads
    it: the fault of ``budget``, an ``int`` (not a ``bool``) of at least 0, or None."""
    if fault := integer_violation("budget", budget):
        return fault
    if budget < 0:
        return f"budget must be nonnegative (got {budget})"


def check_budget(count: int, budget: int, unit: str):
    """Refuse a run before its work starts: ``count`` is the exact number of
    units (rows, sampled values) the run would evaluate."""
    if fault := budget_violation(budget):
        raise ValueError(fault)
    if count > budget:
        # str() refuses ints past 4300 digits; show a vast count by its size.
        shown = count if count.bit_length() < 4096 else f"2^{count.bit_length() - 1}+"
        raise BudgetExceededError(f"state budget exceeded: {shown} > {budget} {unit}")


class Record:
    """Base of the package's immutable value types (not ``dataclasses``: see the
    README).  The fields are the class body's annotations, after inherited ones;
    a record compares and hashes by them, within its class, and its repr is
    ``Name(field=value, ...)``.  Each field annotated ``int`` asks ``integer_violation``
    at construction, naming the record by its ``label`` class keyword, else its kind."""

    _fields = ()
    _ints = ()

    def __init_subclass__(cls, label: "str | None" = None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # own annotations only (3.10+)
        cls._fields += tuple(own)
        cls._ints += tuple(name for name in own if own[name] in ("int", int))
        cls._label = label or getattr(cls, "kind", cls.__name__)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)  # zip drops surplus args
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes exactly the fields {self._fields}")
        # Fields are set and read by name, never through __dict__: once that dict
        # exists, CPython stops specializing field reads, which the simulation
        # makes on its config once per sampled block.
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        for name in self._ints:
            if fault := integer_violation(f"{self._label} field {name!r}", values[name]):
                raise ValueError(fault)
        self.__post_init__()

    def __post_init__(self):
        """Check the bound fields; a record with invariants overrides this."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def to_dict(self) -> dict:
        """The record's document: its class's ``kind``, if any, then every field by
        name: a tuple as a list, an enum as its value, a value with a ``to_dict`` as its
        document, a non-``int`` rational as "p/q" (duck-typed: the sweep imports no fractions)."""
        doc = {"kind": self.kind} if hasattr(self, "kind") else {}
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Enum):
                value = value.value
            elif hasattr(value, "to_dict"):
                value = value.to_dict()
            elif hasattr(value, "denominator") and not isinstance(value, int):
                value = f"{value.numerator}/{value.denominator}"
            doc[name] = value
        return doc


def integer_violation(label: str, value) -> "str | None":
    """The integer-field rule, asked by every record field and document field
    that holds an integer: the fault of ``value``, named by ``label``, or None."""
    if type(value) is not int:  # a bool is an int subclass: refused too
        return f"{label} must be an integer (got {value!r})"


def read_fields(cls: type, doc: Mapping, defaults: Mapping = {}, **given) -> Record:
    """A ``cls`` record from its document: the fields in ``given`` as given,
    every other field read by name, or from ``defaults``, as an ``int``.  An
    unknown key is refused, lest a misspelt optional field take its default."""
    for key in doc:
        if key not in cls._fields and not (key == "kind" and hasattr(cls, "kind")):
            raise ValueError(f"unknown {cls._label} field {key!r}")
    for name in cls._fields:
        if name not in given:
            value = given[name] = doc.get(name, defaults.get(name))
            if fault := integer_violation(f"{cls._label} field {name!r}", value):
                raise ValueError(fault)
    return cls(**given)


def record_from_dict(doc: Mapping, what: str, classes: Sequence[type], defaults: Mapping = {}):
    """The record of ``doc``'s kind among ``classes``, read by the class's own
    ``from_dict`` if it has one, else by ``read_fields``."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} document must be an object")
    kind = doc.get("kind")
    for cls in classes:  # not a dict lookup: a kind may be any JSON value, hashable or not
        if cls.kind == kind:
            if hasattr(cls, "from_dict"):
                return cls.from_dict(doc)
            return read_fields(cls, doc, defaults)
    expected = ", ".join(cls.kind for cls in classes)
    raise ValueError(f"unknown {what} {kind!r}; expected any of {expected}")


class AuctionInstance(Record):
    """A valuation profile paired with a bid profile of the same length, valid by
    construction: any other raises ``InvalidInstanceError`` listing every violated
    rule, not just the first, so an unsatisfiable input cannot pass for a clean one."""

    valuations: ValuationProfile
    bids: BidProfile

    def __init__(self, valuations: Sequence[Money], bids: Sequence[Money]):
        super().__init__(tuple(valuations), tuple(bids))

    def __post_init__(self):
        violations = []
        n_vals, n_bids = len(self.valuations), len(self.bids)
        if n_vals != n_bids:
            violations.append(f"length mismatch ({n_vals} valuations vs {n_bids} bids)")
        if fault := bidder_count_violation(min(n_vals, n_bids)):
            violations.append(fault)
        for name in self._fields:
            violations += tick_violations(name, getattr(self, name))
        if violations:
            raise InvalidInstanceError(violations)

    @property
    def n_bidders(self) -> int:
        return len(self.bids)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AuctionInstance":
        """Refused with every violation: the instance's, or each field's if one is not an array."""
        fields = {key: doc.get(key) for key in ("valuations", "bids")}
        if all(isinstance(entries, (list, tuple)) for entries in fields.values()):
            return cls(**fields)
        raise InvalidInstanceError([fault for key, entries in fields.items() for fault in (
            tick_violations(key, entries) if isinstance(entries, (list, tuple))
            else [f"missing or non-array field {key!r}"])])


def tick_violation(label: str, tick) -> "str | None":
    """The tick rule, asked by every boundary that admits a tick: the fault of ``tick``,
    named by ``label``, or None.  A tick is a nonnegative ``int``, not a ``bool``, whose
    successor (a deviation bid that checks try and reports print) fits the digit cap."""
    if type(tick) is not int:  # bool is an int subclass: refused too
        return f"non-integer tick ({label} = {tick!r})"
    if tick < 0:
        return f"negative tick ({label} = {tick})"
    # Read per call, as sys.set_int_max_str_digits moves the cap.  A tick of at
    # most 3 bits a digit is below 8**digits: only a huge one builds 10**digits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and tick.bit_length() > 3 * digits and tick + 1 >= 10**digits:
        return f"tick too large ({label} + 1 has more than {digits} digits)"


def tick_violations(name: str, ticks: Sequence) -> list[str]:
    """The tick rule over a sequence: each entry's fault, named ``name[position]``."""
    return [fault for pos, tick in enumerate(ticks)
            if (fault := tick_violation(f"{name}[{pos}]", tick))]


def bidder_violation(bidder, n_bidders: int) -> "str | None":
    """The bidder-index rule, asked by every boundary that takes a bidder index: the
    fault of ``bidder``, an ``int`` (not a ``bool``) in 0..n_bidders-1, or None."""
    if fault := integer_violation("bidder index", bidder):
        return fault
    if not 0 <= bidder < n_bidders:
        return f"bidder index {bidder} out of range for N={n_bidders}"


def bidder_count_violation(n_bidders) -> "str | None":
    """The bidder-count rule, asked by every boundary that takes N or a profile:
    the fault of ``n_bidders``, an ``int`` (not a ``bool``) of at least 2, or None."""
    if fault := integer_violation("N", n_bidders):
        return fault
    if n_bidders < 2:
        return f"N >= 2 required (got {n_bidders})"


def seed_violation(seed: int) -> "str | None":
    """The seed rule, asked by every record that holds a seed."""
    if not 0 <= seed < (1 << 64):
        return f"seed {seed} outside unsigned 64-bit range"


def rule_violation(rule) -> "str | None":
    """The payment-rule rule: a rule's name would be priced as first-price."""
    if type(rule) is not PaymentRule:
        return f"payment rule must be a PaymentRule member (got {rule!r})"


def argmax_set(bids: Sequence[Money]) -> tuple[BidderId, ...]:
    """Indices attaining the highest bid, in increasing order."""
    if len(bids) < 2:  # tested inline: a valid profile makes no extra call
        raise ValueError(bidder_count_violation(len(bids)))
    top = max(bids)
    return tuple([i for i, b in enumerate(bids) if b == top])


def canonical_bid_text(bids: Sequence[Money]) -> str:
    """Canonical serialization of a bid profile: comma-joined decimal ticks."""
    return ",".join(map(str, bids))


class TieBreakPolicy(ABC):
    """A winner-selection rule constrained to the set of highest bidders.

    Implementations must return a member of ``argmax_set(bids)``; nothing
    else about the choice is fixed, which is exactly the freedom the
    verifier has to be robust against.  ``select`` is asked only when two or
    more bidders hold the top bid (``outcome`` takes a unique top unasked),
    on a tuple that ``outcome`` has already validated, and must be a pure
    function of it: reports are reproducible only if it is, and the verifier
    evaluates each (tied profile, policy) pair once and reuses the outcome.
    """

    @abstractmethod
    def select(self, bids: BidProfile) -> BidderId:
        """Pick the winner among the highest bidders."""

    def describe(self) -> str:
        """Stable label used in reports: the policy's ``kind`` unless it says more."""
        return self.kind

    def to_dict(self) -> dict:
        return {"kind": self.describe()}


class FirstIndex(Record, TieBreakPolicy):
    """Among tied highest bids, choose the lowest bidder index."""

    kind = "first-index"

    def select(self, bids: BidProfile) -> BidderId:
        return bids.index(max(bids))


class LastIndex(Record, TieBreakPolicy):
    """Among tied highest bids, choose the highest bidder index."""

    kind = "last-index"

    def select(self, bids: BidProfile) -> BidderId:
        return len(bids) - 1 - bids[::-1].index(max(bids))


class Seeded(Record, TieBreakPolicy):
    """Pseudo-random choice among tied highest bids.

    Deterministic: the pick is the member of ``argmax_set(bids)`` at a 64-bit
    mix of the seed and the canonical serialization of the bid profile, modulo
    the set's size, so repeat calls and other machines agree on the winner.
    """

    kind = "seeded"
    seed: int

    def __post_init__(self):
        if fault := seed_violation(self.seed):
            raise ValueError(fault)

    def select(self, bids: BidProfile) -> BidderId:
        ties = argmax_set(bids)
        return ties[hash_text(self.seed, canonical_bid_text(bids)) % len(ties)]

    def describe(self) -> str:
        return f"seeded({self.seed})"


class ExplicitChoice(Record, TieBreakPolicy):
    """Winner chosen by an explicit map from each argmax set to a bidder.

    The map is validated at construction: every argmax set is a set of
    distinct nonnegative ``int`` indices, named by no two keys with different
    choices, and every chosen winner is an ``int`` in its own argmax set.
    Selecting on a tied argmax set the map does not cover is an error; a
    singleton set needs no entry, as its pick is never asked.
    """

    kind = "explicit"
    choice: Mapping[tuple[BidderId, ...], BidderId]

    def __post_init__(self):
        normalized = {}
        for key, pick in self.choice.items():
            labels = [f"argmax set {list(key)} member"] * len(key)
            for label, value in zip(labels + [f"explicit choice for {list(key)}"], (*key, pick)):
                if fault := integer_violation(label, value):
                    raise ValueError(fault)
            ties = tuple(sorted(key))
            if len(set(ties)) < len(ties) or (ties and ties[0] < 0):
                raise ValueError(f"argmax set {list(ties)} must hold distinct nonnegative indices")
            if pick not in ties:
                raise ValueError(f"explicit choice {pick} not a member of argmax set {list(ties)}")
            if normalized.setdefault(ties, pick) != pick:
                raise ValueError(f"conflicting explicit choices for argmax set {list(ties)}")
        object.__setattr__(self, "choice", normalized)

    @classmethod
    def covering(cls, n_bidders: int) -> "ExplicitChoice":
        """Cover every possible argmax set of an N-bidder auction.

        Picks the middle element of each set, which differs from both the
        first-index and last-index rules once three or more bids tie.
        Intended for exhaustive sweeps; the table has 2^N - 1 entries.
        """
        if fault := bidder_count_violation(n_bidders):
            raise ValueError(fault)
        if n_bidders > 16:
            raise ValueError(f"covering table supports 2 <= N <= 16 (got {n_bidders})")
        return cls({ties: ties[len(ties) // 2] for size in range(1, n_bidders + 1)
                    for ties in combinations(range(n_bidders), size)})

    def select(self, bids: BidProfile) -> BidderId:
        ties = argmax_set(bids)
        try:
            return self.choice[ties]
        except KeyError:
            raise ValueError(
                f"explicit tie-break has no choice for argmax set {list(ties)}") from None

    def to_dict(self) -> dict:
        """A JSON object cannot have tuple keys: each argmax set is comma-joined."""
        choice = {",".join(map(str, ties)): pick for ties, pick in sorted(self.choice.items())}
        return {"kind": self.kind, "choice": choice}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ExplicitChoice":
        raw = doc.get("choice")
        if not isinstance(raw, Mapping):
            raise ValueError("explicit policy needs a 'choice' mapping")
        table = {}
        for key, pick in raw.items():
            try:
                ties = tuple(int(part) for part in str(key).split(","))
            except ValueError:
                raise ValueError(f"malformed argmax-set key {key!r}") from None
            if integer_violation("choice", pick):  # refused in the document's words
                raise ValueError(f"explicit choice for {key!r} must be an integer")
            table[ties] = pick
        return read_fields(cls, doc, choice=table)


def policy_from_dict(doc: Mapping) -> TieBreakPolicy:
    """Parse a tie-break policy from its document; a seeded one's seed defaults to 0."""
    return record_from_dict(doc, "policy", (FirstIndex, LastIndex, Seeded, ExplicitChoice),
                            {"seed": 0})


class PaymentRule(Enum):
    """How much the winner pays."""

    SECOND_PRICE = "second-price"  # highest bid made by somebody else
    FIRST_PRICE = "first-price"    # the winner's own bid

    def __str__(self) -> str:
        return self.value


class Outcome(NamedTuple):
    """Result of evaluating one auction: who won, at what price."""

    winner: BidderId
    price: Money


def outcome(bids: Sequence[Money], policy: TieBreakPolicy, rule: PaymentRule) -> Outcome:
    """Evaluate one auction under a tie-break policy and payment rule.  The
    rule is checked first, then the profile for at least two bidders; a
    unique top bidder wins unasked, else the policy's pick is checked for a
    top bid, each fault raised as ``ValueError``.  The second price is the
    second-highest bid: the highest other bid only when the winner holds a
    top bid."""
    if type(rule) is not PaymentRule:  # tested inline, as argmax_set tests its bidder count
        raise ValueError(rule_violation(rule))
    bids = tuple(bids)
    if len(bids) < 2:
        raise ValueError(bidder_count_violation(len(bids)))
    ordered = sorted(bids)  # the top bid, whether it ties, and the second price
    if ordered[-2] < ordered[-1]:
        winner = bids.index(ordered[-1])
    elif not (0 <= (winner := policy.select(bids)) < len(bids) and bids[winner] == ordered[-1]):
        raise ValueError(f"tie-break {policy.describe()} picked {winner}, not a highest bidder")
    price = bids[winner] if rule is PaymentRule.FIRST_PRICE else ordered[-2]
    return tuple.__new__(Outcome, (winner, price))  # no keyword __new__, no _make frame


def bidder_utility(valuations: Sequence[Money], result: Outcome, bidder: BidderId) -> SignedMoney:
    """Utility of one bidder: zero for losers, value minus price for the winner."""
    if fault := bidder_violation(bidder, len(valuations)):
        raise ValueError(fault)
    if bidder != result.winner:
        return 0
    return valuations[bidder] - result.price


def standard_policies(n_bidders: int, seed: int = 0) -> list[TieBreakPolicy]:
    """One policy of each kind, suitable for exhaustive sweeps."""
    return [FirstIndex(), LastIndex(), Seeded(seed), ExplicitChoice.covering(n_bidders)]
