"""Hom-set enumeration over structured spaces, and the term clone on S.

Three independent routes produce the same hom-sets and are kept separate
on purpose: `enumerate_homs_bruteforce` searches all assignments
carrier -> S against the relational (and partial-operation) constraints,
`clone_closure` generates term tables from projections and constants, and
`lift` glues the hom-set one arity up from pairs of slices.  Tests compare
the three.

Every map is held as `bytes`: byte i is the code 0, 1 or 2 of its value at
carrier index i, the string `core.planes` reads and `TritTable._codes`
writes.  Bytes sort like code tuples, which keeps hom-sets in canonical
order, and the cyclic collector does not track them.  Tables and text are
made from them only at the edges (`HomSet.tables`, output).

The clone closes in three stages on (ge_h, ge_1) plane pairs: the
generators under bar, then under meets, then under joins.  That is the
whole clone, because bar is antitone, so the sublattice generated by a
bar-closed set is bar-closed, and being distributive it is the joins of
meets of that set.

There is one constraint engine.  A `StructuredSpace` works out once which
carrier indices each of its relations and operations constrains
(`related_pairs`, `op_triples`); the search, `preserves_relation`,
`preserves_partial_op`, the carrier's closure check and the algebra homs
of `duality.algebra_homs` (meet and join as total operations, constants as
singleton relations) all read those.  `related_rows` packs the related
pairs into one bit mask per carrier index, so `preserves_relation` is one
mask test per row against the indices f sends to allowed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

from .core import ELEMENTS, Element, TritTable, all_tuples, planes
from .posets import CapExceededError, FinitePoset
from .relations import R1, R2, R3, BinaryRelation, PartialOp

DEFAULT_CARRIER_CAP = 12
DEFAULT_CLONE_ARITY_CAP = 3


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
    # relation -> its related_pairs, operation -> its op_triples,
    # ("rows", relation) -> its related_rows
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

    def related_rows(self, rel: BinaryRelation) -> tuple[int, ...]:
        """Row i is the bit mask of the j with (i, j) in related_pairs(rel)."""
        key = ("rows", rel)
        if key not in self._memo:
            rows = [0] * self.size
            for i, j in self.related_pairs(rel):
                rows[i] |= 1 << j
            self._memo[key] = tuple(rows)
        return self._memo[key]

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


MapLike = Union[TritTable, bytes, Sequence[Element]]


def _as_assignment(f: MapLike, space: StructuredSpace) -> bytes:
    """f as the codes of its values at the carrier indices."""
    if isinstance(f, TritTable):
        if not space.is_full_power() or f.arity != space.arity:
            raise ValueError("table maps do not match this carrier")
        return f._codes()
    values = bytes(f)
    if len(values) != space.size:
        raise ValueError(
            f"assignment has {len(values)} values for a carrier of {space.size}"
        )
    return values


def preserves_relation(f: MapLike, rel: BinaryRelation, space: StructuredSpace) -> bool:
    """Does f carry componentwise rel-related carrier points to rel-related values?

    With E_b the mask of carrier indices that f sends to b, and allowed[a]
    the union of E_b over the b with (a, b) in rel, f preserves rel iff
    every related row i lies inside allowed[f(i)].
    """
    codes = _as_assignment(f, space)
    ge_h, ge_1 = (f.ge_h, f.ge_1) if isinstance(f, TritTable) else planes(codes)
    full = (1 << space.size) - 1
    by_value = (full & ~ge_h, ge_h & ~ge_1, ge_1)
    allowed = [0, 0, 0]
    for a, b in rel.pairs():
        allowed[a] |= by_value[b]
    return not any(row & ~allowed[c] for row, c in zip(space.related_rows(rel), codes))


def preserves_partial_op(f: MapLike, op: PartialOp, space: StructuredSpace) -> bool:
    """Does f commute with op wherever the componentwise domain holds?

    Requires the componentwise result to lie in the carrier, the image pair
    to lie in the domain, and the values to agree.
    """
    codes = _as_assignment(f, space)
    dmask = op.domain.mask
    values = bytes(0 if v is None else v for v in op.values)
    for i, j, k in space.op_triples(op):
        x = 3 * codes[i] + codes[j]
        if k is None or not dmask >> x & 1 or values[x] != codes[k]:
            return False
    return True


@dataclass(frozen=True)
class HomSet:
    """Canonically ordered morphisms of a structured space into S, each map
    as `bytes` whose byte i is the code (0, 1, 2) of its value at point i."""

    source: StructuredSpace
    maps: tuple[bytes, ...]

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.maps)

    def __contains__(self, f: MapLike) -> bool:
        try:
            return _as_assignment(f, self.source) in self.maps
        except ValueError:
            return False

    def tables(self) -> tuple[TritTable, ...]:
        if not self.source.is_full_power():
            raise ValueError("maps of a proper carrier are not n-ary tables")
        arity = self.source.arity
        return tuple(TritTable.from_planes(arity, *planes(m)) for m in self.maps)

    def lattice(self) -> FinitePoset:
        """The tables under the pointwise order."""
        tables = self.tables()
        return FinitePoset.from_masks(tables, [t.order_mask for t in tables])


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


def _search_assignments(m: int, checks) -> Iterator[bytes]:
    """Depth-first search over all assignments, in canonical (lex) order."""
    assign = bytearray(m)

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

    def rec(t: int) -> Iterator[bytes]:
        if t == m:
            yield bytes(assign)
            return
        for v in range(3):
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
            f"enumeration would require 3^{space.size} = {3 ** space.size} candidates"
        )
    checks = _compile_checks(space)
    maps = tuple(_search_assignments(space.size, checks))
    return HomSet(space, maps)


def _close(elems: list, step) -> list:
    """Append to elems, in place, every new pair that step yields from a
    member, until step yields nothing new."""
    seen = set(elems)
    for a in elems:  # also visits the pairs appended on the way
        for t in step(a):
            if t not in seen:
                seen.add(t)
                elems.append(t)
    return elems


@lru_cache(maxsize=None)
def _clone_entries(n: int) -> tuple[bytes, ...]:
    """The clone's tables, closed as (ge_h, ge_1) plane pairs and read out
    as entry codes once, sorted.

    The closure runs in three stages: the generators under bar, that set
    under meets with its own members, and the result under joins with the
    stage-2 members.  This is the whole clone: bar is antitone on the
    chain, so bar(x ^ y) = bar x v bar y and bar(x v y) = bar x ^ bar y,
    hence the sublattice generated by a bar-closed set is bar-closed; and
    that sublattice is distributive, so it is the joins of meets of the set.
    """
    full = (1 << 3 ** n) - 1
    gens = [TritTable.projection(n, i) for i in range(1, n + 1)]
    gens += [TritTable.constant(n, c) for c in ELEMENTS]
    barred = _close(list(dict.fromkeys((g.ge_h, g.ge_1) for g in gens)),
                    lambda a: ((full, full & ~a[1]),))
    meets = _close(list(barred),
                   lambda a: ((a[0] & b_h, a[1] & b_1) for b_h, b_1 in barred))
    elems = _close(list(meets),
                   lambda a: ((a[0] | b_h, a[1] | b_1) for b_h, b_1 in meets))
    return tuple(sorted(TritTable.from_planes(n, *t)._codes() for t in elems))


def clone_closure(n: int) -> HomSet:
    """Least set of n-ary tables containing projections and constants and
    closed under pointwise meet, join and bar."""
    if n > DEFAULT_CLONE_ARITY_CAP:
        raise CapExceededError(
            f"clone closure requested at arity {n} exceeds the cap {DEFAULT_CLONE_ARITY_CAP}"
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
