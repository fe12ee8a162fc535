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

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

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


def check_budget(count: int, budget: int, unit: str):
    """Refuse a run before its work starts: ``count`` is the exact number of
    units (rows, sampled values) the run would evaluate."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative (got {budget})")
    if count > budget:
        # str() refuses ints past 4300 digits; show a vast count by its size.
        shown = count if count.bit_length() < 4096 else f"2^{count.bit_length() - 1}+"
        raise BudgetExceededError(f"state budget exceeded: {shown} > {budget} {unit}")


@dataclass(frozen=True)
class AuctionInstance:
    """A valuation profile paired with a bid profile of the same length."""

    valuations: ValuationProfile
    bids: BidProfile

    def __init__(self, valuations: Sequence[Money], bids: Sequence[Money]):
        object.__setattr__(self, "valuations", tuple(valuations))
        object.__setattr__(self, "bids", tuple(bids))

    @property
    def n_bidders(self) -> int:
        return len(self.bids)

    def to_dict(self) -> dict:
        return {"valuations": list(self.valuations), "bids": list(self.bids)}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "AuctionInstance":
        issues = []
        profiles = {}
        for key in ("valuations", "bids"):
            entries = doc.get(key)
            if not isinstance(entries, (list, tuple)):
                issues.append(f"missing or non-array field {key!r}")
                profiles[key] = ()
                continue
            ticks = []
            for pos, tick in enumerate(entries):
                # bool is an int subclass; reject it along with floats etc.
                if type(tick) is not int:
                    issues.append(f"non-integer tick ({key}[{pos}] = {tick!r})")
                    tick = 0
                ticks.append(tick)
            profiles[key] = tuple(ticks)
        if issues:
            raise InvalidInstanceError(issues)
        return cls(profiles["valuations"], profiles["bids"])


def validate(instance: AuctionInstance) -> list[str]:
    """Check an instance against every well-formedness rule.

    Returns the full list of violated rules (empty when valid) rather
    than stopping at the first, so a silently unsatisfiable input cannot
    masquerade as a clean one.
    """
    violations = []
    n_vals = len(instance.valuations)
    n_bids = len(instance.bids)
    if n_vals != n_bids:
        violations.append(
            f"length mismatch ({n_vals} valuations vs {n_bids} bids)"
        )
    if min(n_vals, n_bids) < 2:
        violations.append(f"N >= 2 required (got {min(n_vals, n_bids)})")
    for name, profile in (("valuations", instance.valuations), ("bids", instance.bids)):
        for pos, tick in enumerate(profile):
            if tick < 0:
                violations.append(f"negative tick ({name}[{pos}] = {tick})")
    return violations


def _require_profile(bids: Sequence[Money]) -> BidProfile:
    if len(bids) < 2:
        raise ValueError(f"N >= 2 required (got {len(bids)})")
    return tuple(bids)


def max_bid(bids: Sequence[Money]) -> Money:
    """Highest bid in the profile."""
    return max(_require_profile(bids))


def argmax_set(bids: Sequence[Money]) -> tuple[BidderId, ...]:
    """Indices attaining the highest bid, in increasing order."""
    bids = _require_profile(bids)
    top = max(bids)
    return tuple(i for i, b in enumerate(bids) if b == top)


def max_excluding(bids: Sequence[Money], bidder: BidderId) -> Money:
    """Highest bid placed by anyone other than ``bidder``."""
    bids = _require_profile(bids)
    if not 0 <= bidder < len(bids):
        raise ValueError(f"bidder index {bidder} out of range for N={len(bids)}")
    return max(b for i, b in enumerate(bids) if i != bidder)


def canonical_bid_text(bids: Sequence[Money]) -> str:
    """Canonical serialization of a bid profile: comma-joined decimal ticks."""
    return ",".join(str(b) for b in bids)


class TieBreakPolicy(ABC):
    """A winner-selection rule constrained to the set of highest bidders.

    Implementations must return a member of ``argmax_set(bids)``; nothing
    else about the choice is fixed, which is exactly the freedom the
    verifier has to be robust against.
    """

    @abstractmethod
    def select(self, bids: BidProfile) -> BidderId:
        """Pick the winner among the highest bidders."""

    @abstractmethod
    def describe(self) -> str:
        """Stable label used in reports and serialized documents."""

    def to_dict(self) -> dict:
        return {"kind": self.describe()}


@dataclass(frozen=True)
class FirstIndex(TieBreakPolicy):
    """Among tied highest bids, choose the lowest bidder index."""

    def select(self, bids: BidProfile) -> BidderId:
        return argmax_set(bids)[0]

    def describe(self) -> str:
        return "first-index"


@dataclass(frozen=True)
class LastIndex(TieBreakPolicy):
    """Among tied highest bids, choose the highest bidder index."""

    def select(self, bids: BidProfile) -> BidderId:
        return argmax_set(bids)[-1]

    def describe(self) -> str:
        return "last-index"


@dataclass(frozen=True)
class Seeded(TieBreakPolicy):
    """Pseudo-random choice among tied highest bids.

    Deterministic: the pick is a 64-bit mix of the seed and the canonical
    serialization of the bid profile, so repeat calls and other machines
    agree on the winner.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed {self.seed} outside unsigned 64-bit range")

    def select(self, bids: BidProfile) -> BidderId:
        ties = argmax_set(bids)
        return ties[hash_text(self.seed, canonical_bid_text(bids)) % len(ties)]

    def describe(self) -> str:
        return f"seeded({self.seed})"

    def to_dict(self) -> dict:
        return {"kind": "seeded", "seed": self.seed}


@dataclass(frozen=True, eq=True)
class ExplicitChoice(TieBreakPolicy):
    """Winner chosen by an explicit map from each argmax set to a bidder.

    The map is validated at construction: every chosen winner must belong
    to its own argmax set.  Selecting on an argmax set the map does not
    cover is an error.
    """

    choice: Mapping[tuple[BidderId, ...], BidderId]

    def __post_init__(self):
        normalized = {}
        for key, pick in self.choice.items():
            ties = tuple(sorted(key))
            if pick not in ties:
                raise ValueError(
                    f"explicit choice {pick} not a member of argmax set {list(ties)}"
                )
            normalized[ties] = pick
        object.__setattr__(self, "choice", normalized)

    @classmethod
    def covering(cls, n_bidders: int) -> "ExplicitChoice":
        """Cover every possible argmax set of an N-bidder auction.

        Picks the middle element of each set, which differs from both the
        first-index and last-index rules once three or more bids tie.
        Intended for exhaustive sweeps; the table has 2^N - 1 entries.
        """
        if not 2 <= n_bidders <= 16:
            raise ValueError(f"covering table supports 2 <= N <= 16 (got {n_bidders})")
        table = {}
        for size in range(1, n_bidders + 1):
            for subset in combinations(range(n_bidders), size):
                table[subset] = subset[len(subset) // 2]
        return cls(table)

    def select(self, bids: BidProfile) -> BidderId:
        ties = argmax_set(bids)
        try:
            return self.choice[ties]
        except KeyError:
            raise ValueError(
                f"explicit tie-break has no choice for argmax set {list(ties)}"
            ) from None

    def describe(self) -> str:
        return "explicit"

    def to_dict(self) -> dict:
        return {
            "kind": "explicit",
            "choice": {
                ",".join(str(i) for i in ties): pick
                for ties, pick in sorted(self.choice.items())
            },
        }


def policy_from_dict(doc: Mapping) -> TieBreakPolicy:
    """Parse a tie-break policy from its serialized form."""
    kind = doc.get("kind")
    if kind == "first-index":
        return FirstIndex()
    if kind == "last-index":
        return LastIndex()
    if kind == "seeded":
        seed = doc.get("seed", 0)
        if type(seed) is not int:
            raise ValueError(f"seeded policy needs an integer seed (got {seed!r})")
        return Seeded(seed)
    if kind == "explicit":
        raw = doc.get("choice")
        if not isinstance(raw, Mapping):
            raise ValueError("explicit policy needs a 'choice' mapping")
        table = {}
        for key, pick in raw.items():
            try:
                ties = tuple(int(part) for part in str(key).split(","))
            except ValueError:
                raise ValueError(f"malformed argmax-set key {key!r}") from None
            if type(pick) is not int:
                raise ValueError(f"explicit choice for {key!r} must be an integer")
            table[ties] = pick
        return ExplicitChoice(table)
    raise ValueError(f"unknown tie-break policy kind {kind!r}")


def select_winner(bids: Sequence[Money], policy: TieBreakPolicy) -> BidderId:
    """Winner of the profile under the given tie-break policy."""
    return policy.select(_require_profile(bids))


class PaymentRule(Enum):
    """How much the winner pays."""

    SECOND_PRICE = "second-price"  # highest bid made by somebody else
    FIRST_PRICE = "first-price"    # the winner's own bid

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "PaymentRule":
        for rule in cls:
            if rule.value == name:
                return rule
        raise ValueError(f"unknown payment rule {name!r}")


@dataclass(frozen=True)
class Outcome:
    """Result of evaluating one auction: who won, at what price."""

    winner: BidderId
    price: Money
    rule: PaymentRule


def outcome(bids: Sequence[Money], policy: TieBreakPolicy, rule: PaymentRule) -> Outcome:
    """Evaluate one auction under a tie-break policy and payment rule."""
    bids = _require_profile(bids)
    winner = policy.select(bids)
    if rule is PaymentRule.SECOND_PRICE:
        price = max_excluding(bids, winner)
    else:
        price = bids[winner]
    return Outcome(winner, price, rule)


def bidder_utility(valuations: Sequence[Money], result: Outcome, bidder: BidderId) -> SignedMoney:
    """Utility of one bidder: zero for losers, value minus price for the winner."""
    if not 0 <= bidder < len(valuations):
        raise ValueError(f"bidder index {bidder} out of range for N={len(valuations)}")
    if bidder != result.winner:
        return 0
    return valuations[bidder] - result.price


def profile_utility(valuations: Sequence[Money], result: Outcome) -> SignedMoney:
    """Sum of all bidders' utilities; losers contribute zero, so this is
    just the winner's utility."""
    return bidder_utility(valuations, result, result.winner)


def standard_policies(n_bidders: int, seed: int = 0) -> list[TieBreakPolicy]:
    """One policy of each kind, suitable for exhaustive sweeps."""
    return [FirstIndex(), LastIndex(), Seeded(seed), ExplicitChoice.covering(n_bidders)]
