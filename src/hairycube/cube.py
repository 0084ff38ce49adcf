"""Join-irreducible geometry of the hom-set lattices: cubes with hairs.

The join-irreducible members of the n-ary hom-set lattice form a poset
with a 2^n-cube base (the members below the constant h) and one extra
incomparable element, a hair, covering each base vertex.  Every member is
a meet of barred and unbarred projections, optionally cut down by h; the
exponent vector of that polynomial is the cube coordinate.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple

from .core import ELEMENTS, Element, H, TritTable
from .homsets import CapExceededError, assemble, clone_closure, slice_first
from .posets import FinitePoset, _bits, _transpose


def join_irreducibles(lattice: FinitePoset) -> FinitePoset:
    """Induced poset of elements with exactly one lower cover."""
    return lattice.induced(lattice.join_irreducible_indices())


class JIElement(NamedTuple):
    """Join-irreducible hom-set member with its polynomial descriptor.

    epsilon ranges over {0,1}^n (1 marks a barred projection factor) and
    meet_h tells whether the polynomial is cut down by h (base) or not
    (hair).
    """

    table: TritTable
    epsilon: tuple[int, ...]
    meet_h: bool

    @property
    def is_base(self) -> bool:
        return self.meet_h

    @property
    def label(self) -> str:
        return polynomial_label(self.epsilon, self.meet_h)


def polynomial_label(epsilon: tuple[int, ...], meet_h: bool) -> str:
    factors = [f"~p{i + 1}" if e else f"p{i + 1}" for i, e in enumerate(epsilon)]
    if meet_h:
        factors.append("h")
    return "∧".join(factors)


def eval_polynomial(epsilon: tuple[int, ...], meet_h: bool) -> TritTable:
    """Meet of (barred) projections selected by epsilon, optionally with h;
    its arity is the length of epsilon."""
    n = len(epsilon)
    table = TritTable.constant(n, Element.ONE)
    for i, e in enumerate(epsilon):
        p = TritTable.projection(n, i + 1)
        table = table.meet(p.bar() if e else p)
    if meet_h:
        table = table.meet_h()
    return table


@lru_cache(maxsize=None)
def eta(table: TritTable) -> tuple[int, ...]:
    """Cube coordinate of a base join-irreducible (order isomorphism onto 2^n);
    computed once per table."""
    n = table.arity
    if not table.leq(TritTable.constant(n, H)):
        raise ValueError("eta is only defined below h")
    if n == 1:
        if table == TritTable.from_string("0hh"):
            return (0,)
        if table == TritTable.from_string("hhh"):
            return (1,)
        raise ValueError(f"{table} is not a base join-irreducible")
    s0, sh, s1 = (slice_first(table, a) for a in ELEMENTS)
    if s0 == sh == s1:
        return (1,) + eta(sh)
    if s0 == TritTable.constant(n - 1, Element.ZERO) and sh == s1:
        return (0,) + eta(sh)
    raise ValueError(f"{table} is not a base join-irreducible")


def polynomial_form(table: TritTable) -> tuple[tuple[int, ...], bool]:
    """Descriptor (epsilon, meet_h) of a join-irreducible table."""
    meet_h = table.leq(TritTable.constant(table.arity, H))
    return eta(table.meet_h()), meet_h


# 2^7 base vertices plus their hairs: 256 elements, and 3.1 MB as JSON.
# Each step up makes the rendered output about six times larger.
MAX_CUBE_DIMENSION = 7


@lru_cache(maxsize=None)
def hairy_cube_recursive(n: int) -> FinitePoset:
    """The join-irreducible poset built by the two slice constructors.

    Dimension 1 is the explicit four-element base case; dimension n glues,
    for each join-irreducible p one arity down, a_p = (0, p^h, p) and
    b_p = (p, p, p^h), whose descriptors prepend p1 and ~p1 to p's
    (`polynomial_form` reads them back as the independent check).  Tables
    compare slice by slice: a_p <= a_q and b_p <= b_q iff p <= q, a_p <= b_q
    iff p <= q and p's ge_1 plane is 0, b_p <= a_q iff p's ge_h plane is 0.
    Dimensions above MAX_CUBE_DIMENSION raise CapExceededError.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n > MAX_CUBE_DIMENSION:
        raise CapExceededError(
            f"hairy cube requested at dimension {n} exceeds the cap {MAX_CUBE_DIMENSION}"
        )
    if n > 1:
        return _glue(hairy_cube_recursive(n - 1))
    tables = map(TritTable.from_string, ("0hh", "hhh", "0h1", "11h"))
    elements = sorted(JIElement(t, *polynomial_form(t)) for t in tables)
    return FinitePoset.from_masks(elements, [e.table.order_mask for e in elements])


def _glue(prev: FinitePoset) -> FinitePoset:
    """The glued poset of a poset of JIElements, sorted, its order read off
    prev's rows by the slice rule of `hairy_cube_recursive`."""
    ps = [e.table for e in prev.elements]
    if not all(p.ge_h for p in ps):
        raise ValueError("a zero table glues to the zero table twice")
    zero = TritTable.constant(ps[0].arity, Element.ZERO)
    glued = [JIElement(assemble(zero, p.meet_h(), p), (0,) + e.epsilon, e.meet_h)
             for p, e in zip(ps, prev.elements)]
    glued += [JIElement(assemble(p, p, p.meet_h()), (1,) + e.epsilon, e.meet_h)
              for p, e in zip(ps, prev.elements)]
    # a_i sits at index i and b_i at m + i until the sort moves every bit
    m, low = prev.n, sum(1 << i for i, p in enumerate(ps) if not p.ge_1)
    down = [prev.down_mask(i) for i in range(m)]
    down += [d << m | d & low for d in down]
    order = sorted(range(2 * m), key=glued.__getitem__)
    bit = {old: 1 << new for new, old in enumerate(order)}
    return FinitePoset([glued[i] for i in order],
                       [sum(bit[j] for j in _bits(down[i])) for i in order])


def _element_table(x) -> TritTable:
    return x.table if isinstance(x, JIElement) else x


class HairyCubeReport(NamedTuple):
    """Clause-by-clause outcome of the hairy-cube shape check."""

    dimension: int
    clauses: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.clauses)


def _cube_poset(n: int) -> FinitePoset:
    # Vertex i has the bits of i as its coordinates, first coordinate highest.
    return FinitePoset.from_masks(sorted(product((0, 1), repeat=n)), range(2 ** n))


def _shape_clauses(poset: FinitePoset, base_idx, n: int, over):
    """The four hairy-cube shape clauses of a poset with a given base.

    `over(i, j)` says whether hair j may sit over base point i.  Returns the
    base's isomorphism onto `_cube_poset(n)` (None if there is none), the
    hair index over each base index, and the (name, ok, detail) clauses.
    """
    in_base = set(base_idx)
    hair_idx = [i for i in range(poset.n) if i not in in_base]
    shown = [_element_table(e) for e in poset.elements]
    clauses = []

    base = poset.induced(base_idx)
    iso = base.isomorphism_to(_cube_poset(n)) if base.n == 2 ** n else None
    clauses.append(
        (
            "base-is-cube",
            iso is not None,
            f"|base| = {base.n}, expected {2 ** n}"
            + ("" if iso is None else ", order-isomorphic to the cube"),
        )
    )

    bad_pairs = [
        (i, j)
        for i, j in combinations(hair_idx, 2)
        if poset.leq_by_index(i, j) or poset.leq_by_index(j, i)
    ]
    clauses.append(
        (
            "hairs-incomparable",
            not bad_pairs,
            f"{len(bad_pairs)} comparable non-base pairs",
        )
    )

    hair_over: dict[int, int] = {}
    ok_up = True
    detail_up = "each base vertex has one non-base cover equal to its hair"
    for i in base_idx:
        ups = [j for j in poset.upper_cover_indices(i) if j not in in_base]
        if len(ups) != 1 or not over(i, ups[0]):
            ok_up = False
            detail_up = f"base element {shown[i]} has non-base covers {ups}"
            break
        hair_over[i] = ups[0]
    clauses.append(("unique-hair-cover", ok_up, detail_up))

    ok_down = True
    detail_down = "each hair covers exactly its meet with h"
    for j in hair_idx:
        downs = poset.lower_cover_indices(j)
        if len(downs) != 1 or downs[0] not in in_base or not over(downs[0], j):
            ok_down = False
            detail_down = f"hair {shown[j]} has lower covers {downs}"
            break
    clauses.append(("hair-covers-own-base", ok_down, detail_down))

    return iso, hair_over, tuple(clauses)


def verify_hairy_cube(poset: FinitePoset, n: int) -> HairyCubeReport:
    """Check the four shape clauses against an arbitrary poset of tables.

    The base is the tables below h, and each hair must meet h to the base
    point it covers.
    """
    tables = [_element_table(e) for e in poset.elements]
    h_const = TritTable.constant(n, H)
    base_idx = [i for i, t in enumerate(tables) if t.leq(h_const)]
    _, _, clauses = _shape_clauses(
        poset, base_idx, n, lambda i, j: tables[j].meet_h() == tables[i]
    )
    return HairyCubeReport(n, clauses)


def ji_meet_formula_check(n: int) -> bool:
    """For distinct join-irreducibles, meets factor through the base:
    x ^ y = (x ^ h) ^ (y ^ h), so the meet lands below h.

    Distinctness matters: a hair meets itself to itself, above h.
    """
    cube = hairy_cube_recursive(n)
    tables = [e.table for e in cube.elements]
    h_const = TritTable.constant(n, H)
    for x, y in combinations(tables, 2):
        m = x.meet(y)
        if m != x.meet_h().meet(y.meet_h()):
            return False
        if not m.leq(h_const):
            return False
    return True


def open_set_order(opens, elements) -> FinitePoset:
    """Specialisation order of a finite T0 topology on `elements`, its opens
    given as bit masks over their indices: x <= y iff every open set
    containing y contains x."""
    elements, opens = tuple(elements), tuple(opens)
    n, union = len(elements), 0
    for o in opens:
        union |= o
    if union != (1 << n) - 1:
        raise ValueError(f"the opens do not cover exactly the indices of the {n} elements")
    # x <= y iff the opens that miss x are among those that miss y; column x
    # of the opens holds the opens that hold x
    full = (1 << len(opens)) - 1
    masks = [full & ~m for m in _transpose(opens, n)]
    if len(set(masks)) != len(masks):
        pairs = combinations(zip(elements, masks), 2)
        x, y = next((x, y) for (x, a), (y, b) in pairs if a == b)
        raise ValueError(f"topology is not T0: {x} and {y} are inseparable")
    return FinitePoset.from_masks(elements, masks)


class PartiallyStoneSpaceFinite(NamedTuple):
    """Finite candidate dual space: a poset, a marked base subset and the
    downset topology, its opens as bit masks over the poset's indices."""

    poset: FinitePoset
    base: frozenset
    opens: tuple[int, ...]

    @classmethod
    def from_poset(cls, poset: FinitePoset, base) -> "PartiallyStoneSpaceFinite":
        base = frozenset(base)
        unknown = base - set(poset.elements)
        if unknown:
            raise ValueError(f"base points {unknown} are not in the poset")
        return cls(poset, base, poset.downset_masks())


class PssResult(NamedTuple):
    ok: bool
    failed_clause: str | None
    mapping: dict | None


def pss_homeomorphism(candidate: PartiallyStoneSpaceFinite, n: int) -> PssResult:
    """Try to exhibit the candidate as the dimension-n hairy cube.

    The four shape clauses are checked in order against the candidate's
    base, and the first that fails is reported.  On success the base's cube
    isomorphism is extended along the hair covers to an index permutation
    onto the recursive construction, which must carry each down row onto the
    image's down row (a full order isomorphism) and the opens onto its
    downsets (which then follows, and is checked as well).
    """
    poset = candidate.poset
    base_idx = [i for i, e in enumerate(poset.elements) if e in candidate.base]
    iso, hair_over, clauses = _shape_clauses(poset, base_idx, n, lambda i, j: True)
    for name, ok, _ in clauses:
        if not ok:
            # a candidate's points need not be tables that meet h, so the
            # fourth clause asks only for one base point below each hair
            if name == "hair-covers-own-base":
                name = "hair-covers-one-base"
            return PssResult(False, name, None)

    target = hairy_cube_recursive(n)
    by_key = {(e.epsilon, e.meet_h): k for k, e in enumerate(target.elements)}
    perm = [0] * poset.n
    for i, j in hair_over.items():
        v = iso[poset.elements[i]]
        perm[i], perm[j] = by_key[v, True], by_key[v, False]

    # bit i of a mask moves to bit perm[i], by one table lookup per byte
    chunks = [perm[lo:lo + 8] for lo in range(0, poset.n, 8)]
    tables = [[sum(1 << c[i] for i in _bits(b)) for b in range(1 << len(c))] for c in chunks]

    def image(mask: int) -> int:
        return sum(t[mask >> 8 * c & 255] for c, t in enumerate(tables))

    if any(image(poset.down_mask(i)) != target.down_mask(perm[i]) for i in range(poset.n)):
        return PssResult(False, "order-isomorphism", None)
    opens, downsets = candidate.opens, set(target.downset_masks())
    if any(m >> poset.n for m in opens) or set(map(image, opens)) != downsets:
        return PssResult(False, "open-sets-correspond", None)
    mapping = {x: target.elements[perm[i]] for i, x in enumerate(poset.elements)}
    return PssResult(True, None, mapping)


def chi_lattice(n: int) -> FinitePoset:
    """The n-ary hom-set as a lattice of tables under the pointwise order."""
    return clone_closure(n).lattice()


def extracted_hairy_cube(n: int) -> FinitePoset:
    """`join_irreducibles(chi_lattice(n))`, read off the clone's order masks:
    only the join-irreducibles become tables."""
    masks = clone_closure(n).order_masks()
    ji = join_irreducibles(FinitePoset.from_masks(masks, masks))
    tables = [TritTable.from_order_mask(n, m) for m in ji.elements]
    return FinitePoset(tables, [ji.down_mask(i) for i in range(ji.n)])
