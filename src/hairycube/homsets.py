"""Hom-set enumeration over structured spaces, and the term clone on S.

Three independent routes produce the same hom-sets and are kept separate
on purpose: `enumerate_homs_bruteforce` searches all assignments
carrier -> S against the relational (and partial-operation) constraints,
`clone_closure` generates term tables from projections and constants, and
`lift` glues the hom-set one arity up from pairs of slices.  Tests compare
the three.

There is one constraint engine.  A `StructuredSpace` works out once which
carrier indices each of its relations and operations constrains
(`related_pairs`, `op_triples`); the search, `preserves_relation`,
`preserves_partial_op`, the carrier's closure check and the algebra homs
of `duality.algebra_homs` (meet and join as total operations, constants as
singleton relations) all read those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .core import (
    ELEMENTS,
    Element,
    TritTable,
    all_tuples,
    ZERO,
)
from .posets import FiniteLattice
from .relations import R1, R2, R3, BinaryRelation, PartialOp

DEFAULT_CARRIER_CAP = 12
DEFAULT_CLONE_ARITY_CAP = 3


class CapExceededError(ValueError):
    """Raised when a requested enumeration exceeds the configured cap."""

    def __init__(self, message: str, required_candidates: int | None = None):
        super().__init__(message)
        self.required_candidates = required_candidates


@dataclass(frozen=True)
class StructuredSpace:
    """Finite subset of S^arity carrying relations and partial operations.

    Relations and partial operations are interpreted componentwise.  When a
    partial operation is listed, the carrier must be closed under it
    wherever the componentwise domain condition holds.

    `related_pairs` and `op_triples` are the one place that decides which
    carrier indices a relation or an operation constrains; the search, the
    `preserves_*` checks and the closure check all read them.
    """

    arity: int
    carrier: tuple[tuple[Element, ...], ...]
    relations: tuple[BinaryRelation, ...] = ()
    partial_ops: tuple[PartialOp, ...] = ()
    _index: dict = field(init=False, repr=False, compare=False)
    # relation -> its related_pairs, operation -> its op_triples
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.carrier:
            raise ValueError("carrier must be nonempty")
        if list(self.carrier) != sorted(set(self.carrier)):
            raise ValueError("carrier must be canonically sorted and duplicate-free")
        for point in self.carrier:
            if len(point) != self.arity:
                raise ValueError(f"point {point} does not have width {self.arity}")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.carrier)})
        object.__setattr__(self, "_memo", {})
        for op in self.partial_ops:
            for i, j, k in self.op_triples(op):
                if k is None:
                    u, v = self.carrier[i], self.carrier[j]
                    raise ValueError(f"carrier is not closed under {op.name} at {u}, {v}")

    def index(self, point: tuple[Element, ...]) -> int:
        return self._index[point]

    def related_pairs(self, rel: BinaryRelation) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j) whose points are componentwise rel-related."""
        if rel not in self._memo:
            self._memo[rel] = tuple(
                (i, j)
                for i, u in enumerate(self.carrier)
                for j, v in enumerate(self.carrier)
                if all(map(rel.contains, u, v))
            )
        return self._memo[rel]

    def op_triples(self, op: PartialOp) -> tuple[tuple[int, int, int | None], ...]:
        """(i, j, k) for each index pair in op's componentwise domain, where
        k indexes the componentwise result, or is None when it leaves the
        carrier."""
        if op not in self._memo:
            self._memo[op] = tuple(
                (i, j, self._index.get(tuple(map(op, self.carrier[i], self.carrier[j]))))
                for i, j in self.related_pairs(op.domain)
            )
        return self._memo[op]

    @property
    def size(self) -> int:
        return len(self.carrier)

    def is_full_power(self) -> bool:
        return self.carrier == all_tuples(self.arity)

    @classmethod
    def power(
        cls,
        n: int,
        relations: tuple[BinaryRelation, ...] = (R1, R2, R3),
        partial_ops: tuple[PartialOp, ...] = (),
    ) -> "StructuredSpace":
        return cls(n, all_tuples(n), tuple(relations), tuple(partial_ops))

    @classmethod
    def from_points(
        cls,
        points: Iterable[tuple[Element, ...]],
        relations: tuple[BinaryRelation, ...] = (),
        partial_ops: tuple[PartialOp, ...] = (),
    ) -> "StructuredSpace":
        points = sorted(set(tuple(p) for p in points))
        if not points:
            raise ValueError("carrier must be nonempty")
        return cls(len(points[0]), tuple(points), tuple(relations), tuple(partial_ops))


MapLike = Union[TritTable, Sequence[Element]]


def _as_assignment(f: MapLike, space: StructuredSpace) -> tuple[Element, ...]:
    if isinstance(f, TritTable):
        if not space.is_full_power() or f.arity != space.arity:
            raise ValueError("table maps do not match this carrier")
        return f.entries
    values = tuple(f)
    if len(values) != space.size:
        raise ValueError(
            f"assignment has {len(values)} values for a carrier of {space.size}"
        )
    return values


def preserves_relation(f: MapLike, rel: BinaryRelation, space: StructuredSpace) -> bool:
    """Does f carry componentwise rel-related carrier points to rel-related values?"""
    values = _as_assignment(f, space)
    return all(rel.contains(values[i], values[j]) for i, j in space.related_pairs(rel))


def preserves_partial_op(f: MapLike, op: PartialOp, space: StructuredSpace) -> bool:
    """Does f commute with op wherever the componentwise domain holds?

    Requires the componentwise result to lie in the carrier, the image pair
    to lie in the domain, and the values to agree.
    """
    values = _as_assignment(f, space)
    return all(
        k is not None
        and op.defined(values[i], values[j])
        and op(values[i], values[j]) == values[k]
        for i, j, k in space.op_triples(op)
    )


@dataclass(frozen=True)
class HomSet:
    """Canonically ordered morphisms of a structured space into S."""

    source: StructuredSpace
    maps: tuple[tuple[Element, ...], ...]

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[tuple[Element, ...]]:
        return iter(self.maps)

    def __contains__(self, f: MapLike) -> bool:
        try:
            return _as_assignment(f, self.source) in set(self.maps)
        except ValueError:
            return False

    def tables(self) -> tuple[TritTable, ...]:
        if not self.source.is_full_power():
            raise ValueError("maps of a proper carrier are not n-ary tables")
        return tuple(TritTable(self.source.arity, m) for m in self.maps)

    def lattice(self) -> FiniteLattice:
        """The tables under the pointwise order."""
        tables = self.tables()
        return FiniteLattice.from_masks(tables, [t.order_mask for t in tables])


def _compile_checks(space: StructuredSpace):
    """Constraint tuples grouped by the largest carrier index they mention."""
    checks: list[list[tuple]] = [[] for _ in range(space.size)]
    for rel in space.relations:
        for i, j in space.related_pairs(rel):
            checks[max(i, j)].append(("r", i, j, rel.mask))
    for op in space.partial_ops:
        for i, j, k in space.op_triples(op):
            checks[max(i, j, k)].append(("p", i, j, k, op.domain.mask, op.values))
    return checks


def _search_assignments(m: int, checks) -> Iterator[tuple[Element, ...]]:
    """Depth-first search over all assignments, in canonical (lex) order."""
    assign: list[Element] = [ZERO] * m

    def ok(t: int) -> bool:
        for c in checks[t]:
            if c[0] == "r":
                _, i, j, mask = c
                if not mask >> (3 * assign[i] + assign[j]) & 1:
                    return False
            else:
                _, i, j, k, dmask, values = c
                idx = 3 * assign[i] + assign[j]
                if not dmask >> idx & 1:
                    return False
                if values[idx] != assign[k]:
                    return False
        return True

    def rec(t: int) -> Iterator[tuple[Element, ...]]:
        if t == m:
            yield tuple(assign)
            return
        for v in ELEMENTS:
            assign[t] = v
            if ok(t):
                yield from rec(t + 1)

    yield from rec(0)


def enumerate_homs_bruteforce(
    space: StructuredSpace, carrier_cap: int = DEFAULT_CARRIER_CAP
) -> HomSet:
    """Exhaustive search for all structure-preserving maps carrier -> S.

    The search walks the full 3^|carrier| assignment tree in canonical
    order, abandoning a branch as soon as a constraint on the assigned
    prefix fails.
    """
    if space.size > carrier_cap:
        raise CapExceededError(
            f"carrier has {space.size} points (cap {carrier_cap}); "
            f"enumeration would require 3^{space.size} = {3 ** space.size} candidates",
            required_candidates=3 ** space.size,
        )
    checks = _compile_checks(space)
    maps = tuple(_search_assignments(space.size, checks))
    return HomSet(space, maps)


@lru_cache(maxsize=None)
def _clone_entries(n: int) -> tuple[tuple[Element, ...], ...]:
    """The clone's tables, closed as (ge_h, ge_1) plane pairs and read out
    as entry tuples once, sorted."""
    full = (1 << 3 ** n) - 1
    gens = [TritTable.projection(n, i) for i in range(1, n + 1)]
    gens += [TritTable.constant(n, c) for c in ELEMENTS]
    elems = list(dict.fromkeys((g.ge_h, g.ge_1) for g in gens))
    seen = set(elems)
    i = 0
    while i < len(elems):
        a_h, a_1 = elems[i]
        fresh = [(full, full & ~a_1)]
        for b_h, b_1 in elems[: i + 1]:
            fresh.append((a_h & b_h, a_1 & b_1))
            fresh.append((a_h | b_h, a_1 | b_1))
        for t in fresh:
            if t not in seen:
                seen.add(t)
                elems.append(t)
        i += 1
    return tuple(sorted(TritTable.from_planes(n, *t).entries for t in elems))


def clone_closure(n: int, arity_cap: int = DEFAULT_CLONE_ARITY_CAP) -> HomSet:
    """Least set of n-ary tables containing projections and constants and
    closed under pointwise meet, join and bar."""
    if n > arity_cap:
        raise CapExceededError(
            f"clone closure requested at arity {n} exceeds the cap {arity_cap}"
        )
    if n < 0:
        raise ValueError("arity must be nonnegative")
    return HomSet(StructuredSpace.power(n), _clone_entries(n))


def slice_first(table: TritTable, a: Element) -> TritTable:
    """Fix the first argument of an n-ary table, leaving an (n-1)-ary one."""
    if table.arity < 1:
        raise ValueError("slicing needs at least one argument position")
    block = 3 ** (table.arity - 1)
    lo, mask = int(a) * block, (1 << block) - 1
    return TritTable.from_planes(table.arity - 1, table.ge_h >> lo & mask, table.ge_1 >> lo & mask)


def assemble(s0: TritTable, sh: TritTable, s1: TritTable) -> TritTable:
    """Inverse of slicing: glue three (n-1)-ary tables along the first argument."""
    if not s0.arity == sh.arity == s1.arity:
        raise ValueError("slices must share an arity")
    block = 3 ** s0.arity
    return TritTable.from_planes(
        s0.arity + 1,
        s0.ge_h | sh.ge_h << block | s1.ge_h << 2 * block,
        s0.ge_1 | sh.ge_1 << block | s1.ge_1 << 2 * block,
    )


def lift(homs: HomSet) -> HomSet:
    """The hom-set one arity up, glued from slice pairs.

    f |-> (f(0,.), f(1,.)) is a bijection from hom(S^(n+1)) onto the pairs
    (s0, s1) of hom(S^n) with s0 ^ h <= s1, and the middle slice is then
    s0 v (s1 ^ h).  Maps come out in canonical order: by s0, then by the
    middle slice, then by s1.
    """
    tables = homs.tables()
    rank = {(t.ge_h, t.ge_1): i for i, t in enumerate(tables)}
    maps = []
    for s0, m0 in zip(tables, homs.maps):
        glued = []
        for i, s1 in enumerate(tables):
            if not s0.ge_h & ~s1.ge_h:
                middle = rank.get((s0.ge_h | s1.ge_h, s0.ge_1))
                if middle is None:
                    raise ValueError("hom-set lacks the middle slice of a slice pair")
                glued.append((middle, i))
        glued.sort()
        maps += [m0 + homs.maps[middle] + homs.maps[i] for middle, i in glued]
    return HomSet(StructuredSpace.power(homs.source.arity + 1), tuple(maps))
