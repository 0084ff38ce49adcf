"""Hom-set enumeration over structured spaces, and the term clone on S.

Three independent routes produce the same hom-sets and are kept separate
on purpose: `enumerate_homs_bruteforce` searches all assignments
carrier -> S against the relational (and partial-operation) constraints,
`clone_closure` generates term tables from projections and constants, and
`lift` glues the hom-set one arity up from pairs of slices.  Tests compare
the three.

Every map is held as `bytes`: byte i is the code 0, 1 or 2 of its value at
carrier index i, the string that `core` reads (`planes`, `order_masks`)
and writes (`TritTable._codes`, `mask_codes`).  Bytes sort like code
tuples, which keeps hom-sets in canonical order, and the cyclic collector
does not track them.  Tables and text are made from them only at the edges
(`HomSet.tables`, output).

The clone closes in three stages on one int per table, which reach the
whole clone (`_clone_entries`); `clone_closure` keeps one `HomSet` per arity.

There is one constraint interpreter.  A `StructuredSpace` works out once
which carrier indices each of its relations and operations constrains
(`related_pairs`, `op_triples`), and `_broken` alone reads relation masks
and operation values: it tests a batch of maps, one bit each in integer
columns, against related pairs and operation triples with a few `&` and
`|` per entry.  The search runs it level by level on batches of prefixes,
`break_flags` on whole hom-sets (`preserves_*` are its one-map calls).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import chain, compress, islice
from operator import and_, or_
from typing import Iterable, Iterator, Sequence, Union

from .core import ELEMENTS, Element, Frozen, TritTable, all_tuples, mask_codes, order_masks, planes
from .posets import CapExceededError, FinitePoset, _bits, _flags
from .relations import R1, R2, R3, BinaryRelation, PartialOp

DEFAULT_CARRIER_CAP = 12
DEFAULT_CLONE_ARITY_CAP = 3


class StructuredSpace(Frozen):
    """Finite subset of S^arity, arity the width of its points, carrying
    relations and partial operations.

    Relations and partial operations are interpreted componentwise.  When a
    partial operation is listed, the carrier must be closed under it
    wherever the componentwise domain condition holds.

    `related_pairs` and `op_triples` are the one place that decides which
    carrier indices a relation or an operation constrains; the search,
    `break_flags` and the closure check all read them.  `_memo` maps a
    relation to its related_pairs and an operation to its op_triples.
    """

    __slots__ = ("arity", "carrier", "relations", "partial_ops", "_index", "_memo")

    def __init__(self, carrier: tuple[tuple[Element, ...], ...],
                 relations: tuple[BinaryRelation, ...] = (),
                 partial_ops: tuple[PartialOp, ...] = ()) -> None:
        if not carrier:
            raise ValueError("carrier must be nonempty")
        if list(carrier) != sorted(set(carrier)):
            raise ValueError("carrier must be canonically sorted and duplicate-free")
        arity = len(carrier[0])
        for point in carrier:
            if len(point) != arity:
                raise ValueError(f"point {point} does not have width {arity}")
        index = {p: i for i, p in enumerate(carrier)}
        self._set(arity, carrier, relations, partial_ops, index, {})
        for op in partial_ops:
            for i, j, k in self.op_triples(op):
                if k is None:
                    u, v = self.carrier[i], self.carrier[j]
                    raise ValueError(f"carrier is not closed under {op.name} at {u}, {v}")

    def _key(self) -> tuple:
        return self.arity, self.carrier, self.relations, self.partial_ops

    def index(self, point: tuple[Element, ...]) -> int:
        return self._index[point]

    def related_pairs(self, rel: BinaryRelation) -> tuple[tuple[int, int], ...]:
        """Index pairs (i, j) whose points are componentwise rel-related, in
        ascending order.  Bit j of col[c][a] is set when (a, coordinate c of
        point j) is in rel: col[c][a] is the union of the value masks of
        coordinate c (its `planes` as 0, h and 1) over row a of rel.  Point
        u's row of related j is the AND of col[c][u[c]] over its c."""
        if rel not in self._memo:
            full = (1 << self.size) - 1
            col = []
            for c in range(self.arity):
                ge_h, ge_1 = planes(p[c] for p in self.carrier)
                values = (full ^ ge_h, ge_h ^ ge_1, ge_1)
                col.append([sum(m for v, m in enumerate(values) if rel.mask >> 3 * a + v & 1)
                            for a in ELEMENTS])
            self._memo[rel] = tuple(
                (i, j)
                for i, u in enumerate(self.carrier)
                for j in _bits(reduce(and_, map(list.__getitem__, col, u), full))
            )
        return self._memo[rel]

    def op_triples(self, op: PartialOp) -> tuple[tuple[int, int, int | None], ...]:
        """(i, j, k) for each index pair in op's componentwise domain, where
        k indexes the componentwise result, or is None when it leaves the
        carrier."""
        if op not in self._memo:
            values, carrier, index = op.values, self.carrier, self._index
            self._memo[op] = tuple(
                (i, j, index.get(tuple(values[3 * a + b] for a, b in zip(carrier[i], carrier[j]))))
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
        return cls(all_tuples(n), tuple(relations), tuple(partial_ops))

    @classmethod
    def from_points(
        cls,
        points: Iterable[tuple[Element, ...]],
        relations: tuple[BinaryRelation, ...] = (),
        partial_ops: tuple[PartialOp, ...] = (),
    ) -> "StructuredSpace":
        points = tuple(sorted(set(map(tuple, points))))
        return cls(points, tuple(relations), tuple(partial_ops))


MapLike = Union[TritTable, bytes, Sequence[Element]]

# The most prefixes the search passes one level down at once.  Each level
# of the walk holds one batch, so this bounds its memory.
_SEARCH_BATCH = 1024
_CODES = (b"\0", b"\1", b"\2")
_ABSENT = b"\3"  # a partial map's code for a point it leaves out
_PRESENT = bytes.maketrans(b"\0\1\2\3", b"\1\1\1\0")
# The cases of `_broken`, by relation mask and by operation value table.
_CASES: dict = {}


def _as_assignment(f: MapLike, space: StructuredSpace) -> bytes:
    """f as the codes of its values at the carrier indices."""
    if isinstance(f, TritTable):
        if not space.is_full_power() or f.arity != space.arity:
            raise ValueError("table maps do not match this carrier")
        return f._codes()
    return bytes(f)


def _columns(blob: bytes, size: int) -> list[tuple[int, ...]]:
    """The columns of a batch of maps, joined in blob with size codes each:
    entry i is a tuple indexed by the value sets s (bit v for value v), whose
    column s has bit m set when map m sends carrier index i into s.  Code 3
    (`_ABSENT`) is in no value set; column 0 holds the maps that leave i out,
    and column 7 those that keep it (`held`)."""
    full = (1 << len(blob) // size) - 1
    partial = _ABSENT in blob
    cols = []
    for i in range(size):
        codes, held = blob[i::size], full
        if partial:
            held = planes(codes.translate(_PRESENT))[0]
            codes = codes.replace(_ABSENT, b"\0")
        ge_h, ge_1 = planes(codes)
        is_h = ge_h ^ ge_1
        cols.append((full ^ held, held ^ ge_h, is_h, held ^ ge_1, ge_1, held ^ is_h, ge_h, held))
    return cols


def _broken(cols: list[tuple[int, ...]], pairs, triples) -> int:
    """The maps of a batch, as bits of an int, that break one of the related
    pairs (rel, i, j) or operation triples (op, i, j, k), given the batch's
    columns.  The one reader of relation masks and operation values.

    A pair breaks the maps that send i to a and j outside row a of rel.  A
    triple breaks the maps that send i to a, unless they leave j out or send
    j to some b in op's domain and k to op(a, b).  Each mask or value table
    is read once into its cases (`_CASES`), written with the value sets that
    index a column tuple: per a, the values outside row a, or the pairs (the
    b with op(a, b) = v, v)."""
    bad = 0
    for rel, i, j in pairs:
        cases = _CASES.get(rel.mask)
        if cases is None:
            outside = ~rel.mask
            rows = ((1 << a, outside >> 3 * a & 7) for a in ELEMENTS)
            cases = _CASES[rel.mask] = [(a, row) for a, row in rows if row]
        ci, cj = cols[i], cols[j]
        for a, row in cases:
            bad |= ci[a] & cj[row]
    for op, i, j, k in triples:
        cases = _CASES.get(op.values)
        if cases is None:
            cases = _CASES[op.values] = [
                (1 << a, [(sum(1 << b for b, w in enumerate(row) if w == v), 1 << v)
                          for v in ELEMENTS if v in row])
                for a in ELEMENTS for row in [op.values[3 * a:3 * a + 3]]
            ]
        ci, cj, ck = cols[i], cols[j], cols[k]
        for a, row in cases:
            if ci[a]:
                kept = cj[0]
                for b, v in row:
                    kept |= cj[b] & ck[v]
                bad |= ci[a] & ~kept
    return bad


def break_flags(
    maps: Sequence[bytes],
    space: StructuredSpace,
    relations: Sequence[BinaryRelation] = (),
    partial_ops: Sequence[PartialOp] = (),
) -> bytes:
    """One byte per map: 1 if it breaks one of the given relations or
    partial operations on the carrier of space, 0 if it preserves them all.

    The maps are tested together, one bit each in the columns of
    `_columns`, against every related pair and operation triple by
    `_broken`; a triple whose result leaves the carrier fails every map.
    """
    size = space.size
    for m in maps:
        if len(m) != size:
            raise ValueError(f"assignment has {len(m)} values for a carrier of {size}")
    blob = b"".join(maps)
    stray = blob.translate(None, b"\0\1\2")
    if stray:
        raise ValueError(f"map value {stray[0]} is not a code 0, 1 or 2")
    if not maps:
        return b""
    pairs = [(rel, i, j) for rel in relations for i, j in space.related_pairs(rel)]
    triples = [(op, *t) for op in partial_ops for t in space.op_triples(op)]
    if any(t[3] is None for t in triples):
        return b"\1" * len(maps)
    return _flags(_broken(_columns(blob, size), pairs, triples), len(maps))


def preserves_relation(f: MapLike, rel: BinaryRelation, space: StructuredSpace) -> bool:
    """Does f carry componentwise rel-related carrier points to rel-related
    values?  The one-map call of `break_flags`."""
    return not break_flags((_as_assignment(f, space),), space, (rel,))[0]


def preserves_partial_op(f: MapLike, op: PartialOp, space: StructuredSpace) -> bool:
    """Does f commute with op wherever the componentwise domain holds?

    Requires the componentwise result to lie in the carrier, the image pair
    to lie in the domain, and the values to agree.  The one-map call of
    `break_flags`.
    """
    return not break_flags((_as_assignment(f, space),), space, (), (op,))[0]


class HomSet(Frozen):
    """Canonically ordered morphisms of a structured space into S, each map
    as `bytes` whose byte i is the code (0, 1, 2) of its value at point i."""

    __slots__ = ("source", "maps")

    def __init__(self, source: StructuredSpace, maps: tuple[bytes, ...]) -> None:
        self._set(source, maps)

    def _key(self) -> tuple:
        return self.source, self.maps

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.maps)

    def __contains__(self, f: MapLike) -> bool:
        try:
            m = _as_assignment(f, self.source)
        except ValueError:
            return False
        i = bisect_left(self.maps, m)
        return i < len(self.maps) and self.maps[i] == m

    def tables(self) -> tuple[TritTable, ...]:
        if not self.source.is_full_power():
            raise ValueError("maps of a proper carrier are not n-ary tables")
        return tuple(TritTable.from_planes(self.source.arity, *planes(m)) for m in self.maps)

    def order_masks(self) -> list[int]:
        """Each map's `TritTable.order_mask`, read off all maps in one pass."""
        return order_masks(b"".join(self.maps), self.source.size)

    def lattice(self) -> FinitePoset:
        """The tables under the pointwise order."""
        return FinitePoset.from_masks(self.tables(), self.order_masks())


def _search(space: StructuredSpace, codes: tuple[bytes, ...]) -> Iterator[list[bytes]]:
    """The maps carrier -> codes (partial ones, if `_ABSENT` is a code) that
    keep space's structure, in canonical order, walked depth-first a batch
    of prefixes at a time.  Each pair and triple is checked by `_broken` at
    its largest index t, where every prefix of a batch is extended by each
    code; the survivors go one level down in batches of `_SEARCH_BATCH`."""
    size, width = space.size, len(codes)
    levels = [([], []) for _ in range(size)]
    for rel in space.relations:
        for i, j in space.related_pairs(rel):
            levels[max(i, j)][0].append((rel, i, j))
    for op in space.partial_ops:
        for i, j, k in space.op_triples(op):
            levels[max(i, j, k)][1].append((op, i, j, k))

    def grow(batch: list[bytes], t: int) -> Iterator[list[bytes]]:
        """The leaves below a batch of prefixes of length t, in batches."""
        if t == size:
            yield batch
            return
        pairs, triples = levels[t]
        count = width * len(batch)
        kept = iter(range(count))  # prefix q // width extended by code q % width
        if pairs or triples:
            blob = b"".join([p + p.join(codes) for p in batch])  # p + c for each code c
            bad = _broken(_columns(blob, t + 1), pairs, triples)
            kept = compress(kept, _flags(bad ^ (1 << count) - 1, count))
            del blob  # a level holds only its batch; survivors are rebuilt from it
        while chunk := [batch[q // width] + codes[q % width] for q in islice(kept, _SEARCH_BATCH)]:
            yield from grow(chunk, t + 1)

    return grow([b""], 0)


def enumerate_homs_bruteforce(space: StructuredSpace, carrier_cap: int = DEFAULT_CARRIER_CAP) -> HomSet:
    """Exhaustive search for all structure-preserving maps carrier -> S."""
    if space.size > carrier_cap:
        raise CapExceededError(
            f"carrier has {space.size} points (cap {carrier_cap}); "
            f"enumeration would require 3^{space.size} = {3 ** space.size} candidates"
        )
    return HomSet(space, tuple(chain.from_iterable(_search(space, _CODES))))


def _close(elems: list, step) -> list:
    """Append to elems, in place, every new member that step yields from a
    member, until step yields nothing new."""
    seen = set(elems)
    for a in elems:  # also visits the members appended on the way
        for t in step(a):
            if t not in seen:
                seen.add(t)
                elems.append(t)
    return elems


def _clone_entries(n: int) -> tuple[bytes, ...]:
    """The clone's tables, closed as one int per table (ge_h above ge_1, the
    `order_mask` layout, so meet and join are `&` and `|` and order is mask
    inclusion) and read out as entry codes in one pass, sorted.

    The closure runs in three stages: the generators under bar, that set
    under meets with its own members, and then all joins of the stage-2
    members that are not the join of the stage-2 members strictly below
    them (16 of 73 at n = 3), one set pass per member.  This is the whole
    clone: bar is antitone on the chain, so bar(x ^ y) = bar x v bar y and
    bar(x v y) = bar x ^ bar y, hence the sublattice generated by a
    bar-closed set is bar-closed; and that sublattice is distributive, so
    it is the joins of meets of the set.  Every meet is the join of the
    kept meets at or below it (the constant 0 is the empty join), so the
    joins of the kept meets alone reach every join of meets.
    """
    width = 3 ** n
    full = (1 << width) - 1
    gens = [TritTable.projection(n, i) for i in range(1, n + 1)]
    gens += [TritTable.constant(n, c) for c in ELEMENTS]
    # bar(x) has ge_h everywhere and ge_1 where x is not 1
    barred = _close(list(dict.fromkeys(g.order_mask for g in gens)),
                    lambda a: (full << width | full & ~a,))
    meets = _close(list(barred), lambda a: (a & b for b in barred))
    meets.sort(key=int.bit_count)  # what lies strictly below a meet comes first
    irreducible = [a for k, a in enumerate(meets)
                   if reduce(or_, [b for b in meets[:k] if b | a == a], 0) != a]
    elems = {0}  # the constant 0; low members first keeps the early passes small
    for b in irreducible:
        elems |= {a | b for a in elems}
    return tuple(sorted(mask_codes(elems, width)))


@lru_cache(maxsize=None)
def clone_closure(n: int) -> HomSet:
    """Least set of n-ary tables containing projections and constants and
    closed under pointwise meet, join and bar; one shared `HomSet` per arity."""
    if n > DEFAULT_CLONE_ARITY_CAP:
        raise CapExceededError(
            f"clone closure requested at arity {n} exceeds the cap {DEFAULT_CLONE_ARITY_CAP}"
        )
    if n < 0:
        raise ValueError("arity must be nonnegative")
    return HomSet(StructuredSpace.power(n), _clone_entries(n))


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
