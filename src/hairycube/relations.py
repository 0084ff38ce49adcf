"""Binary relations on S, the subalgebra lattice of S^2, and congruences.

A binary relation is a 9-bit mask over the canonical pair order.  A subset
of S^k is a subuniverse when it contains the constant tuples and is closed
under componentwise meet, join and the derived bar (bar closure separates r3
from its meet/join closure r3 u {(h,1)}); `posets.closed_sets` decides and
lists them on one table of these operations on S^k as index triples.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import chain, combinations
from typing import Iterable, Iterator, Union

from .core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    ZERO,
    Frozen,
    all_tuples,
    order_masks,
    tuple_index,
    _constant_masks,
)
from .posets import FinitePoset, _partners, closed_sets

PAIRS: tuple[tuple[Element, Element], ...] = all_tuples(2)

_FULL_MASK = (1 << 9) - 1


def _pair_bit(a: Element, b: Element) -> int:
    return 1 << (3 * int(a) + int(b))


@total_ordering
class BinaryRelation(Frozen):
    """Subset of S^2 as a bit mask; bit 3*code(a)+code(b) holds (a, b).
    Relations order by mask."""

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if not 0 <= mask <= _FULL_MASK:
            raise ValueError(f"mask {mask} out of range")
        object.__setattr__(self, "mask", mask)

    def _key(self) -> tuple[int]:
        return (self.mask,)

    def __lt__(self, other: "BinaryRelation") -> bool:
        return self.mask < other.mask if other.__class__ is self.__class__ else NotImplemented

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Element, Element]]) -> "BinaryRelation":
        mask = 0
        for a, b in pairs:
            mask |= _pair_bit(a, b)
        return cls(mask)

    @classmethod
    def full(cls) -> "BinaryRelation":
        return cls(_FULL_MASK)

    @classmethod
    def diagonal(cls) -> "BinaryRelation":
        return cls.from_pairs((a, a) for a in ELEMENTS)

    def contains(self, a: Element, b: Element) -> bool:
        return bool(self.mask >> (3 * int(a) + int(b)) & 1)

    def pairs(self) -> tuple[tuple[Element, Element], ...]:
        return tuple(p for i, p in enumerate(PAIRS) if self.mask >> i & 1)

    def inverse(self) -> "BinaryRelation":
        return BinaryRelation.from_pairs((b, a) for a, b in self.pairs())

    def intersect(self, other: "BinaryRelation") -> "BinaryRelation":
        return BinaryRelation(self.mask & other.mask)

    __and__ = intersect

    def union(self, other: "BinaryRelation") -> "BinaryRelation":
        return BinaryRelation(self.mask | other.mask)

    def issubset(self, other: "BinaryRelation") -> bool:
        return self.mask & ~other.mask == 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __iter__(self) -> Iterator[tuple[Element, Element]]:
        return iter(self.pairs())

    def is_equivalence(self) -> bool:
        if not all(self.contains(a, a) for a in ELEMENTS):
            return False
        if self.mask != self.inverse().mask:
            return False
        return all(
            self.contains(a, c)
            for a, b in self.pairs()
            for c in ELEMENTS
            if self.contains(b, c)
        )

    def __str__(self) -> str:
        inner = ",".join(f"({a},{b})" for a, b in self.pairs())
        return "{" + inner + "}"


DIAGONAL = BinaryRelation.diagonal()
FULL = BinaryRelation.full()

R1 = BinaryRelation(_FULL_MASK & ~_pair_bit(ONE, ZERO))
R2 = BinaryRelation(R1.mask & ~_pair_bit(H, ZERO))
R3 = BinaryRelation.from_pairs(
    [(ZERO, ZERO), (ZERO, H), (H, ZERO), (H, H), (ONE, ONE)]
)


def relation(i: int) -> BinaryRelation:
    """The generating relations r1, r2, r3 by index."""
    if not 1 <= i <= 3:  # a tuple index below 1 would wrap round to r3, r2, r1
        raise ValueError(f"relation index must be 1, 2 or 3, got {i}")
    return (R1, R2, R3)[i - 1]


# Module names only because perfbench/spans.py wraps them; they go with ROADMAP item 1b.
inverse = BinaryRelation.inverse
intersect = BinaryRelation.intersect


SubsetLike = Union[BinaryRelation, Iterable[tuple[Element, ...]]]


@lru_cache(maxsize=None)
def _algebra(k: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """S^k as `closed_sets` reads it: meet, join and bar as the `_partners` of
    triples of canonical indices (bar's with j = i), and the constants' index mask."""
    full = (1 << k) - 1
    masks = order_masks(bytes(chain.from_iterable(all_tuples(k))), k)
    index = {a: i for i, a in enumerate(masks)}
    # on order masks meet and join are & and |; bar sets ge_h, and ge_1 where the point is not 1
    ops = [(i, j, index[c]) for i, a in enumerate(masks)
           for j, b in enumerate(masks[i:], i) for c in (a & b, a | b)]
    ops += [(i, i, index[full << k | full & ~a]) for i, a in enumerate(masks)]
    return _partners(len(masks), ops), sum(1 << index[c] for c in _constant_masks(k))


def is_subuniverse(subset: SubsetLike) -> bool:
    """Whether the subset of S^k carries a subalgebra, k the width of its
    tuples (2 for a BinaryRelation) and at most 3: whether it is the least
    subuniverse that holds it."""
    tuples = frozenset(tuple(map(Element, t)) for t in subset)  # ValueError off 0, h, 1
    widths = set(map(len, tuples))
    if len(widths) > 1 or not widths <= {1, 2, 3}:
        raise ValueError(f"k must be 1, 2 or 3 and shared by the tuples, got {sorted(widths)}")
    mask = sum(1 << tuple_index(t) for t in tuples)
    partners, constants = _algebra(max(widths, default=1))  # the empty subset lacks the constants
    return next(closed_sets(partners, mask | constants)) == mask


@lru_cache(maxsize=None)
def enumerate_subalgebras() -> FinitePoset:
    """The subuniverses of S^2 (a pair's canonical index is its relation bit);
    the inclusion lattice lists them by (size, mask)."""
    found = sorted(map(BinaryRelation, closed_sets(*_algebra(2))), key=lambda r: (len(r), r.mask))
    return FinitePoset.from_masks(found, [r.mask for r in found])


@lru_cache(maxsize=None)
def _canonical_names() -> dict[int, str]:
    r1i = R1.inverse()
    r2i = R2.inverse()
    r21i = R2 & r1i
    named = [
        (DIAGONAL, "Δ"),
        (R1, "r1"),
        (r1i, "r1⁻¹"),
        (R2, "r2"),
        (r2i, "r2⁻¹"),
        (R3, "r3"),
        (R1 & r1i, "r1∩r1⁻¹"),
        (r21i, "r2∩r1⁻¹"),
        (r21i.inverse(), "(r2∩r1⁻¹)⁻¹"),
        (R2 & r2i, "r2∩r2⁻¹"),
        (r21i & R3, "r2∩r1⁻¹∩r3"),
        ((r21i & R3).inverse(), "(r2∩r1⁻¹∩r3)⁻¹"),
        (FULL, "S²"),
    ]
    return {rel.mask: name for rel, name in named}


def canonical_name(r: BinaryRelation) -> str:
    name = _canonical_names().get(r.mask)
    return str(r) if name is None else name


@lru_cache(maxsize=None)
def enumerate_congruences() -> FinitePoset:
    """Compatible equivalence relations on S: the equivalences among the
    subalgebras of S^2, by (size, mask), under inclusion."""
    found = [r for r in enumerate_subalgebras().elements if r.is_equivalence()]
    return FinitePoset.from_masks(found, [r.mask for r in found])


def meet_irreducible_congruences() -> tuple[BinaryRelation, ...]:
    """Congruences with exactly one upper cover in the congruence lattice."""
    lat = enumerate_congruences()
    return tuple(
        c for i, c in enumerate(lat.elements) if len(lat.upper_cover_indices(i)) == 1
    )


def subuniverses_of_carrier() -> tuple[frozenset[Element], ...]:
    """Subuniverses of S itself.  The constants force the whole carrier."""
    return tuple(frozenset(e for e in ELEMENTS if mask >> e & 1) for mask in closed_sets(*_algebra(1)))


def irreducibility_index() -> int:
    """Least n with the diagonal congruence of S a meet of n meet-irreducible
    congruences.  Every subalgebra of S is S itself (`subuniverses_of_carrier`),
    so this is also the largest such n over the subalgebras of S."""
    mis = meet_irreducible_congruences()
    for size in range(1, len(mis) + 1):
        for combo in combinations(mis, size):
            m = _FULL_MASK
            for c in combo:
                m &= c.mask
            if m == DIAGONAL.mask:
                return size
    raise RuntimeError("diagonal is not a meet of meet-irreducibles")


class PartialOp(Frozen):
    """Partial binary operation on S: a value for every pair in its domain."""

    __slots__ = ("name", "domain", "values")

    def __init__(
        self, name: str, domain: BinaryRelation, values: tuple[Element | None, ...]
    ) -> None:
        if len(values) != 9:  # one slot per canonical pair index
            raise ValueError("values must have one slot per pair of S^2")
        for i, (a, b) in enumerate(PAIRS):
            if (values[i] is not None) != domain.contains(a, b):
                raise ValueError(
                    f"{name}: definedness at ({a},{b}) disagrees with the domain"
                )
        self._set(name, domain, values)

    def _key(self) -> tuple:
        return self.name, self.domain, self.values

    @classmethod
    def from_graph(
        cls,
        name: str,
        domain: BinaryRelation,
        triples: Iterable[tuple[Element, Element, Element]],
    ) -> "PartialOp":
        values: list[Element | None] = [None] * 9
        for a, b, c in triples:
            idx = 3 * int(a) + int(b)
            if values[idx] is not None:
                raise ValueError(f"{name}: duplicate value at ({a},{b})")
            values[idx] = c
        return cls(name, domain, tuple(values))

    def defined(self, a: Element, b: Element) -> bool:
        return self.domain.contains(a, b)

    def __call__(self, a: Element, b: Element) -> Element:
        v = self.values[3 * int(a) + int(b)]
        if v is None:
            raise ValueError(f"{self.name} is undefined at ({a},{b})")
        return v

    def graph(self) -> tuple[tuple[Element, Element, Element], ...]:
        return tuple((a, b, self(a, b)) for a, b in self.domain.pairs())
