"""Dual structures on S and the finite checks that compare them.

The four structure variants carry the generating relations and, for the
strong ones, the algebraic partial operations lambda1/lambda2.  The
functions here mechanise the finite claims about them: witness maps
showing each piece of a variant is needed (one table, `_WITNESSES`),
failure of term-for-term composition (FTC), relation entailment by
lambda1, evaluation maps being isomorphisms, and persistence of the
hom-set geometry across variants.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress
from operator import add
from typing import NamedTuple

from . import cube
from .core import ELEMENTS, Element, H, ONE, TritTable, ZERO, all_tuples, order_masks, tuple_index
from .core import _constant_masks
from .homsets import _ABSENT, _CODES, _PRESENT, _broken, _columns, _search
from .homsets import (
    DEFAULT_CARRIER_CAP,
    CapExceededError,
    HomSet,
    StructuredSpace,
    break_flags,
    clone_closure,
    enumerate_homs_bruteforce,
)
from .posets import FinitePoset, _flags, _partners, closed_sets
from .relations import (
    R1,
    R2,
    R3,
    BinaryRelation,
    FULL,
    PartialOp,
    enumerate_subalgebras,
    canonical_name,
    is_subuniverse,
)


def _graph(triples):
    return tuple(
        tuple(Element(v) for v in t) for t in triples
    )


LAMBDA1 = PartialOp.from_graph(
    "λ1",
    R1,
    _graph(
        [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
            (0, 1, 1),
            (0, 2, 1),
            (1, 0, 0),
            (1, 2, 1),
            (2, 1, 2),
        ]
    ),
)

LAMBDA2 = PartialOp.from_graph(
    "λ2",
    R1.inverse(),
    _graph(
        [
            (0, 0, 0),
            (1, 1, 1),
            (2, 2, 2),
            (0, 1, 0),
            (1, 0, 1),
            (2, 0, 1),
            (1, 2, 2),
            (2, 1, 1),
        ]
    ),
)


PI1 = PartialOp.from_graph("pi1", FULL, ((a, b, a) for a, b in FULL.pairs()))
PI2 = PartialOp.from_graph("pi2", FULL, ((a, b, b) for a, b in FULL.pairs()))


class StructureVariant(NamedTuple):
    """A choice of relations and partial operations on S."""

    name: str
    relations: tuple[BinaryRelation, ...]
    partial_ops: tuple[PartialOp, ...] = ()

    def power_space(self, n: int) -> StructuredSpace:
        return StructuredSpace.power(n, self.relations, self.partial_ops)


# pi1 and pi2 are left out of `strong`: f(pi1(u, v)) = f(u) = pi1(f(u), f(v))
# for every map f, so the projections constrain nothing.
VARIANTS: dict[str, StructureVariant] = {
    v.name: v
    for v in (
        StructureVariant("relational", (R1, R2, R3)),
        StructureVariant("strong", (R1, R2, R3), (LAMBDA1, LAMBDA2)),
        StructureVariant("strong-min", (R1, R2, R3), (LAMBDA1,)),
        StructureVariant("optimal-strong", (R2,), (LAMBDA1,)),
    )
}


def variant(name: str) -> StructureVariant:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown variant {name!r}; choose from {sorted(VARIANTS)}"
        ) from None


def compose_lambda_swap() -> bool:
    """lambda1 with swapped arguments is exactly lambda2, undefined pairs too."""
    return all(LAMBDA1.values[3 * b + a] == LAMBDA2.values[3 * a + b]
               for a in ELEMENTS for b in ELEMENTS)


def homs_for_variant(n: int, variant_name: str, carrier_cap: int = DEFAULT_CARRIER_CAP) -> HomSet:
    """The variant's hom-set S^n -> S.  The powers the default cap admits
    (n <= 2) are searched once and shared; larger ones on every call, so no
    module cache keeps them alive."""
    if 3 ** n <= min(carrier_cap, DEFAULT_CARRIER_CAP):
        return _small_power_homs(n, variant_name)
    return enumerate_homs_bruteforce(
        variant(variant_name).power_space(n), carrier_cap=carrier_cap
    )


@lru_cache(maxsize=None)
def _small_power_homs(n: int, variant_name: str) -> HomSet:
    return enumerate_homs_bruteforce(variant(variant_name).power_space(n))


def algebra_homs(carrier: tuple[tuple[Element, ...], ...]) -> tuple[bytes, ...]:
    """The maps from a carrier to S keeping componentwise meet, join and the
    constants: `bytes` of value codes at the sorted carrier's indices, sorted.

    Such a map is its pair of prime filters f^-1{h, 1} and f^-1{1}, nested,
    with the h-tuple in the first only.  In a finite distributive lattice
    they are the upsets of join-irreducibles (Birkhoff), so each jh <= j1
    with jh below the h-tuple and j1 not gives f(a) = [jh <= a] + [j1 <= a].
    Bar needs no check on a subalgebra: bar a is the complement of a v h in
    [h, 1], so f(bar a) is the (unique) one of f(a) v h in S: bar f(a).
    """
    return _algebra_homs(tuple(sorted(set(map(tuple, carrier)))))


@lru_cache(maxsize=None)
def _algebra_homs(points: tuple[tuple[Element, ...], ...]) -> tuple[bytes, ...]:
    """`algebra_homs` of a sorted carrier, computed once per carrier."""
    if not points or len(set(map(len, points))) != 1:
        raise ValueError("carrier must be a nonempty set of points of one width")
    k = len(points[0])
    # the one point of S^0, the empty tuple, has no planes to read
    masks = order_masks(bytes(chain.from_iterable(points)), k) if k else [0]
    known = set(masks)
    if any(not known.issuperset([a & b for b in masks] + [a | b for b in masks]) for a in masks):
        raise ValueError("carrier is not closed under componentwise meet and join")
    if not known.issuperset(_constant_masks(k)):
        raise ValueError("carrier does not contain the constant tuples")
    order = FinitePoset.from_masks(points, masks)
    ups = {j: bytes(order.down_mask(i) >> j & 1 for i in range(order.n))
           for j in order.join_irreducible_indices()}
    h = order.index((H,) * k)
    return tuple(sorted(bytes(map(add, up_h, up_1)) for up_h in ups.values() if up_h[h]
                        for j1, up_1 in ups.items() if up_h[j1] and not up_1[h]))


def total_homs(n: int) -> tuple[TritTable, ...]:
    """Algebra homomorphisms S^n -> S; expected to be the projections."""
    if n > 6:
        raise CapExceededError(f"total hom enumeration capped at arity 6, got {n}")
    return tuple(map(TritTable, algebra_homs(all_tuples(n))))


class ClassifiedHom(NamedTuple):
    values: bytes
    tags: tuple[str, ...]


class ClassificationReport(NamedTuple):
    """Per subalgebra of S^2: its homs into S, each tagged by the known
    operations restricting to it."""

    entries: tuple[tuple[str, tuple[ClassifiedHom, ...]], ...]

    @property
    def unclassified(self) -> int:
        return sum(
            1 for _, homs in self.entries for hom in homs if not hom.tags
        )

    @property
    def passed(self) -> bool:
        return self.unclassified == 0


_TAGGED_OPS = (("pi1", PI1), ("pi2", PI2), ("λ1", LAMBDA1), ("λ2", LAMBDA2))


def classify_partial_homs() -> ClassificationReport:
    entries = []
    for rel in enumerate_subalgebras().elements:
        carrier = tuple(rel.pairs())
        homs = []
        for values in algebra_homs(carrier):
            tags = []
            for tag, op in _TAGGED_OPS:
                if not rel.issubset(op.domain):
                    continue
                if all(op(a, b) == values[i] for i, (a, b) in enumerate(carrier)):
                    tags.append(tag)
            homs.append(ClassifiedHom(values, tuple(tags)))
        entries.append((canonical_name(rel), tuple(homs)))
    return ClassificationReport(tuple(entries))


class Witness(NamedTuple):
    description: str
    preserved: tuple[str, ...]
    violated: str
    ok: bool


# The optimality claims, one finite witness each: a map on a few points of
# some S^n that keeps the rest of the variant and breaks the dropped piece.
# (variant, dropped piece) -> (description, points, values at the sorted points)
_WITNESSES = {
    ("relational", R3): ("unary map 1h1", all_tuples(1), b"\2\1\2"),
    ("relational", R2): ("unary map 00h", all_tuples(1), b"\0\0\1"),
    ("relational", R1): ("α on {(h,0),(0,1)} with α(h,0)=1, α(0,1)=0",
                         ((ZERO, ONE), (H, ZERO)), b"\0\2"),
    ("optimal-strong", R2): ("unary map h00", all_tuples(1), b"\1\0\0"),
}


def _witness(variant_name: str, dropped) -> Witness:
    """The `_WITNESSES` row checked: its map keeps every piece of the variant
    but the dropped one (flags 0), and breaks that one (flags 1)."""
    description, points, values = _WITNESSES[variant_name, dropped]
    var = variant(variant_name)
    names = {r: canonical_name(r) for r in var.relations}
    names.update((op, op.name) for op in var.partial_ops)
    violated = names.pop(dropped)
    space = StructuredSpace.from_points(points)
    flags = [break_flags([values], space, [r for r in var.relations if (r == dropped) is side],
                         [op for op in var.partial_ops if (op == dropped) is side])
             for side in (False, True)]  # the kept pieces, then the dropped one
    return Witness(description, tuple(names.values()), violated, flags == [b"\0", b"\1"])


def optimality_witnesses() -> tuple[Witness, ...]:
    """Dropping any one of r1, r2, r3 admits a new compatible map."""
    return tuple(_witness("relational", rel) for rel in (R3, R2, R1))


class FtcResult(NamedTuple):
    separated: bool
    pair: tuple[TritTable, TritTable] | None
    restrictions: tuple[tuple[Element, ...], ...]


def ftc_check(points, y) -> FtcResult:
    """Does some pair of n-ary morphisms, n the width of y, agree on the given
    points while differing at y?  The restriction list is the certificate
    either way.  The pair is the first in clone order: the first member of
    the first class of equal restrictions not constant at y, and the first
    member of that class differing from it there."""

    def normalize(p):
        if isinstance(p, Element):
            return (p,)
        return tuple(p)

    pts = sorted(set(normalize(p) for p in points))
    y = normalize(y)
    n = len(y)
    if any(len(p) != n for p in pts):
        raise ValueError(f"points must lie in S^{n}, like y")
    if y in pts:
        raise ValueError("the separation point must lie outside the subset")

    at = [tuple_index(p) for p in pts]
    at_y = tuple_index(y)
    maps = clone_closure(n).maps
    restrictions = tuple(tuple(ELEMENTS[m[i]] for i in at) for m in maps)
    classes: dict[tuple[Element, ...], list[bytes]] = {}
    for r, m in zip(restrictions, maps):
        classes.setdefault(r, []).append(m)
    for first, *rest in classes.values():
        for m in rest:
            if m[at_y] != first[at_y]:
                return FtcResult(True, (TritTable(first), TritTable(m)), restrictions)
    return FtcResult(False, None, restrictions)


class EntailmentReport(NamedTuple):
    """Exhaustive check that every lambda1-preserving map on a lambda1-closed
    substructure also preserves r1 and r3.  A violation is (n, subset, values,
    relation name), or (n, domains found, closed subsets, "domains")."""

    max_power: int
    substructures: int
    maps_checked: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def entailment_lambda1(max_power: int = 2) -> EntailmentReport:
    """One search per power n over the partial maps of S̰ⁿ = (Sⁿ; λ1): all
    but the empty map are λ1-preserving maps on nonempty λ1-closed subsets."""
    if max_power < 1:
        raise ValueError(f"entailment check needs a power of at least 1, got {max_power}")
    if max_power > 2:
        raise CapExceededError(
            f"entailment check capped at power 2, got {max_power}"
        )
    substructures = 0
    maps_checked = 0
    violations = []
    for n in range(1, max_power + 1):
        power = StructuredSpace.power(n, (), (LAMBDA1,))
        leaves = list(chain.from_iterable(_search(power, _CODES + (_ABSENT,))))
        leaves.remove(_ABSENT * power.size)  # the empty map, on the empty subset
        present = [m.translate(_PRESENT) for m in leaves]
        domain = {p: tuple(compress(power.carrier, p)) for p in set(present)}
        closed = {tuple(compress(power.carrier, _flags(mask, power.size))): r for r, mask
                  in enumerate(closed_sets(_partners(power.size, power.op_triples(LAMBDA1)))) if mask}
        found = set(domain.values())
        substructures += len(found)
        maps_checked += len(leaves)
        if found != closed.keys():
            violations.append((n, len(found), len(closed), "domains"))
        cols = _columns(b"".join(leaves), power.size)
        named = [(name, _broken(cols, [(rel, *p) for p in power.related_pairs(rel)], ()))
                 for name, rel in (("r1", R1), ("r3", R3))]
        violations += sorted([(n, domain[p], m.replace(_ABSENT, b""), name)
                              for q, (p, m) in enumerate(zip(present, leaves))
                              for name, bad in named if bad >> q & 1],
                             key=lambda v: closed.get(v[1], -1))  # in closed-subset order
    return EntailmentReport(max_power, substructures, maps_checked, tuple(violations))


def entail2_witness() -> bool:
    """(h,0,0) preserves lambda1 yet sends (0,h) in r2 to (h,0) outside it,
    so lambda1 does not entail r2."""
    return _witness("optimal-strong", R2).ok


class EvaluationReport(NamedTuple):
    carrier_size: int
    dual_size: int
    double_dual_size: int
    bijective: bool
    homomorphism: bool

    @property
    def passed(self) -> bool:
        return self.bijective and self.homomorphism


def _keeps_meet_join_constants(carrier, evaluations: list[bytes]) -> bool:
    """Does the map carrier[i] |-> evaluations[i] keep componentwise meet,
    join and the constants?  Points and evaluations are read as `order_masks`,
    where meet and join are `&` and `|` on both sides; carrier must be a
    subuniverse."""
    k, d = len(carrier[0]), len(evaluations[0])
    points = order_masks(bytes(chain.from_iterable(carrier)), k)
    at = dict(zip(points, order_masks(b"".join(evaluations), d)))
    return all(at[c] == e for c, e in zip(_constant_masks(k), _constant_masks(d))) and all(
        at[a & b] == at[a] & at[b] and at[a | b] == at[a] | at[b] for a in at for b in at)


def evaluation_map_check(carrier, variant_name: str = "relational") -> EvaluationReport:
    """Is a |-> (f |-> f(a)) an isomorphism onto the double dual?

    The dual D(A) is the set of algebra homs A -> S viewed inside S^A with
    the variant's structure; the double dual is the hom-set of that space.
    """
    carrier = tuple(sorted(set(tuple(p) for p in carrier)))
    if not carrier:
        raise ValueError("carrier must be nonempty")
    if not is_subuniverse(carrier):
        raise ValueError("carrier is not a subuniverse")

    var = variant(variant_name)
    duals = algebra_homs(carrier)
    dual_space = StructuredSpace.from_points(duals, var.relations, var.partial_ops)
    double_dual = enumerate_homs_bruteforce(dual_space)

    # the evaluation at point i is byte i of every dual, in dual_space's order
    blob = b"".join(duals)
    evaluations = [blob[i::len(carrier)] for i in range(len(carrier))]

    bijective = len(set(evaluations)) == len(carrier) and set(evaluations) == set(
        double_dual.maps
    )
    homomorphism = _keeps_meet_join_constants(carrier, evaluations)

    return EvaluationReport(
        len(carrier),
        len(duals),
        len(double_dual),
        bijective,
        homomorphism,
    )


def persistence_check(n: int) -> bool:
    """The optimal strong structure has the same morphisms S^n -> S as the
    full relational one, and the same join-irreducible geometry."""
    homs = homs_for_variant(n, "optimal-strong")
    clone = clone_closure(n)
    if set(homs.maps) != set(clone.maps):
        return False
    ji = cube.join_irreducibles(homs.lattice())
    return set(ji.elements) == {e.table for e in cube.hairy_cube_recursive(n).elements}
