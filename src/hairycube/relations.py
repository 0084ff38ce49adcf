"""Binary relations on S, the subalgebra lattice of S^2, and congruences.

A binary relation is a 9-bit mask over the canonical pair order.  A subset
of S^k is a subuniverse when it contains the constant tuples and is closed
under the componentwise fundamental operations (meet, join and the derived
bar; bar closure is what separates e.g. r3 from its meet/join closure
r3 u {(h,1)}).
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import combinations
from typing import Iterable, Iterator, Union

from .core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    ZERO,
    Frozen,
    all_tuples,
    tuple_bar,
    tuple_join,
    tuple_meet,
)
from .posets import FinitePoset

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
    try:
        return (R1, R2, R3)[i - 1]
    except IndexError:
        raise ValueError(f"relation index must be 1, 2 or 3, got {i}") from None


def inverse(r: BinaryRelation) -> BinaryRelation:
    return r.inverse()


def intersect(r: BinaryRelation, s: BinaryRelation) -> BinaryRelation:
    return r.intersect(s)


SubsetLike = Union[BinaryRelation, Iterable[tuple[Element, ...]]]


def _as_tuple_set(subset: SubsetLike, k: int) -> frozenset[tuple[Element, ...]]:
    if isinstance(subset, BinaryRelation):
        if k != 2:
            raise ValueError("a BinaryRelation is a subset of S^2; k must be 2")
        return frozenset(subset.pairs())
    tuples = frozenset(tuple(t) for t in subset)
    for t in tuples:
        if len(t) != k:
            raise ValueError(f"tuple {t} does not have width {k}")
    return tuples


def is_subuniverse(subset: SubsetLike, k: int) -> bool:
    """Whether the subset of S^k carries a subalgebra.

    Requires the constant tuples and closure under componentwise meet,
    join and bar.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    tuples = _as_tuple_set(subset, k)
    for c in ELEMENTS:
        if (c,) * k not in tuples:
            return False
    for x in tuples:
        if tuple_bar(x) not in tuples:
            return False
    for x, y in combinations(tuples, 2):
        if tuple_meet(x, y) not in tuples or tuple_join(x, y) not in tuples:
            return False
    return True


@lru_cache(maxsize=None)
def enumerate_subalgebras() -> FinitePoset:
    """Brute force over all 2^9 subsets of S^2, keeping the subuniverses;
    the inclusion lattice lists them by (size, mask)."""
    found = []
    for mask in range(1 << 9):
        rel = BinaryRelation(mask)
        if DIAGONAL.issubset(rel) and is_subuniverse(rel, 2):
            found.append(rel)
    found.sort(key=lambda r: (len(r), r.mask))
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
    return _canonical_names().get(r.mask, str(r))


@lru_cache(maxsize=None)
def enumerate_congruences() -> FinitePoset:
    """Compatible equivalence relations on S, by (size, mask), under inclusion."""
    found = [
        BinaryRelation(mask)
        for mask in range(1 << 9)
        if BinaryRelation(mask).is_equivalence()
        and is_subuniverse(BinaryRelation(mask), 2)
    ]
    found.sort(key=lambda r: (len(r), r.mask))
    return FinitePoset.from_masks(found, [r.mask for r in found])


def meet_irreducible_congruences() -> tuple[BinaryRelation, ...]:
    """Congruences with exactly one upper cover in the congruence lattice."""
    lat = enumerate_congruences()
    return tuple(
        c for i, c in enumerate(lat.elements) if len(lat.upper_cover_indices(i)) == 1
    )


def subuniverses_of_carrier() -> tuple[frozenset[Element], ...]:
    """Subuniverses of S itself.  The constants force the whole carrier."""
    found = []
    for mask in range(1, 1 << 3):
        subset = frozenset(e for i, e in enumerate(ELEMENTS) if mask >> i & 1)
        if is_subuniverse([(e,) for e in subset], 1):
            found.append(subset)
    return tuple(found)


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
