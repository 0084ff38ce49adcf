"""Dual structures on S and the finite checks that compare them.

The four structure variants carry the generating relations and, for the
strong ones, the algebraic partial operations lambda1/lambda2.  The
functions here mechanise the finite claims about them: algebraicity,
witness maps separating the relations, failure of term-for-term
composition (FTC), relation entailment by lambda1, evaluation maps being
isomorphisms, and persistence of the hom-set geometry across variants.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import NamedTuple

from .core import ELEMENTS, Element, H, ONE, TritTable, ZERO, all_tuples, planes
from .cube import hairy_cube_recursive, join_irreducibles
from .homsets import (
    DEFAULT_CARRIER_CAP,
    CapExceededError,
    HomSet,
    StructuredSpace,
    break_flags,
    clone_closure,
    enumerate_homs_bruteforce,
    preserves_relation,
)
from .posets import FinitePoset
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
    relation,
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


def verify_algebraic(op: PartialOp) -> bool:
    """A partial operation is algebraic when its graph is a subuniverse of S^3."""
    return is_subuniverse(op.graph())


def compose_lambda_swap() -> bool:
    """lambda1 with swapped arguments is exactly lambda2."""
    for a, b in LAMBDA2.domain.pairs():
        if not LAMBDA1.defined(b, a) or LAMBDA1(b, a) != LAMBDA2(a, b):
            return False
    return all(not LAMBDA1.defined(b, a) for a, b in FULL.pairs()
               if not LAMBDA2.defined(a, b))


def homs_for_variant(n: int, variant_name: str, carrier_cap: int = DEFAULT_CARRIER_CAP) -> HomSet:
    return enumerate_homs_bruteforce(
        variant(variant_name).power_space(n), carrier_cap=carrier_cap
    )


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
    points = sorted(set(map(tuple, carrier)))
    if not points or len(set(map(len, points))) != 1:
        raise ValueError("carrier must be a nonempty set of points of one width")
    k = len(points[0])
    # A point's two planes side by side, so & and | are meet and join; the
    # one point of S^0, the empty tuple, has no planes to read.
    masks = [ge_h << k | ge_1 for ge_h, ge_1 in map(planes, points)] if k else [0]
    known = set(masks)
    if any(not known.issuperset([a & b for b in masks] + [a | b for b in masks]) for a in masks):
        raise ValueError("carrier is not closed under componentwise meet and join")
    if any((c,) * k not in points for c in ELEMENTS):
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


def optimality_witnesses() -> tuple[Witness, ...]:
    """Dropping any one of r1, r2, r3 admits a new compatible map."""
    results = []

    def unary_case(table_text: str, kept: tuple[int, int], dropped: int):
        table = TritTable.from_string(table_text)
        space = StructuredSpace.power(1)
        keeps = all(preserves_relation(table, relation(i), space) for i in kept)
        breaks = not preserves_relation(table, relation(dropped), space)
        results.append(
            Witness(
                f"unary map {table_text}",
                tuple(f"r{i}" for i in kept),
                f"r{dropped}",
                keeps and breaks,
            )
        )

    unary_case("1h1", (1, 2), 3)
    unary_case("00h", (1, 3), 2)

    points = (
        (ZERO, ONE),
        (H, ZERO),
    )
    space = StructuredSpace.from_points(points)
    alpha = {(H, ZERO): ONE, (ZERO, ONE): ZERO}
    values = tuple(alpha[p] for p in space.carrier)
    keeps = preserves_relation(values, R2, space) and preserves_relation(
        values, R3, space
    )
    breaks = not preserves_relation(values, R1, space)
    results.append(
        Witness(
            "α on {(h,0),(0,1)} with α(h,0)=1, α(0,1)=0",
            ("r2", "r3"),
            "r1",
            keeps and breaks,
        )
    )
    return tuple(results)


class FtcResult(NamedTuple):
    separated: bool
    pair: tuple[TritTable, TritTable] | None
    restrictions: tuple[tuple[Element, ...], ...]


def ftc_check(points, y) -> FtcResult:
    """Does some pair of n-ary morphisms, n the width of y, agree on the given
    points while differing at y?  The restriction list is the certificate
    either way."""

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

    morphisms = clone_closure(n).tables()
    restrictions = tuple(tuple(t(*p) for p in pts) for t in morphisms)
    for i, j in combinations(range(len(morphisms)), 2):
        if restrictions[i] == restrictions[j] and morphisms[i](*y) != morphisms[j](*y):
            return FtcResult(True, (morphisms[i], morphisms[j]), restrictions)
    return FtcResult(False, None, restrictions)


class EntailmentReport(NamedTuple):
    """Exhaustive check that every lambda1-preserving map on a lambda1-closed
    substructure also preserves r1 and r3."""

    max_power: int
    substructures: int
    maps_checked: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _lambda1_closed_subsets(n: int):
    """The nonempty λ1-closed subsets of Sⁿ, all masks tested at once."""
    power = StructuredSpace.power(n, (), (LAMBDA1,))
    # bit m of `ok` stands for mask m, and of col[i] (runs of 2**i zero bits,
    # then 2**i one bits) for bit i of m
    full = (1 << (1 << power.size)) - 1
    col = [full // ((1 << (1 << i)) + 1) << (1 << i) for i in range(power.size)]
    ok = full
    for i, j, k in power.op_triples(LAMBDA1):
        ok &= ~(col[i] & col[j]) | col[k]
    for mask in range(1, 1 << power.size):
        if ok >> mask & 1:
            yield tuple(p for i, p in enumerate(power.carrier) if mask >> i & 1)


def entailment_lambda1(max_power: int = 2) -> EntailmentReport:
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
        for subset in _lambda1_closed_subsets(n):
            substructures += 1
            space = StructuredSpace.from_points(subset, (), (LAMBDA1,))
            homs = enumerate_homs_bruteforce(space)
            maps_checked += len(homs)
            if any(break_flags(homs.maps, space, (R1, R3))):
                # split by relation only to name the violations
                named = [(name, break_flags(homs.maps, space, (rel,)))
                         for name, rel in (("r1", R1), ("r3", R3))]
                violations += [(n, subset, values, name) for m, values in enumerate(homs.maps)
                               for name, flags in named if flags[m]]
    return EntailmentReport(max_power, substructures, maps_checked, tuple(violations))


def entail2_witness() -> bool:
    """(h,0,0) preserves lambda1 yet sends (0,h) in r2 to (h,0) outside it,
    so lambda1 does not entail r2."""
    table = TritTable.from_string("h00")
    space = StructuredSpace.power(1, (), (LAMBDA1,))
    homs = enumerate_homs_bruteforce(space)
    if table not in homs:
        return False
    return not preserves_relation(table, R2, StructuredSpace.power(1))


class EvaluationReport(NamedTuple):
    carrier_size: int
    dual_size: int
    double_dual_size: int
    bijective: bool
    homomorphism: bool

    @property
    def passed(self) -> bool:
        return self.bijective and self.homomorphism


def evaluation_map_check(carrier, variant_name: str = "relational") -> EvaluationReport:
    """Is a |-> (f |-> f(a)) an isomorphism onto the double dual?

    The dual D(A) is the set of algebra homs A -> S viewed inside S^A with
    the variant's structure; the double dual is the hom-set of that space.
    """
    carrier = tuple(sorted(set(tuple(p) for p in carrier)))
    if not carrier:
        raise ValueError("carrier must be nonempty")
    k = len(carrier[0])
    if not is_subuniverse(carrier):
        raise ValueError("carrier is not a subuniverse")

    var = variant(variant_name)
    duals = algebra_homs(carrier)
    dual_space = StructuredSpace.from_points(duals, var.relations, var.partial_ops)
    double_dual = enumerate_homs_bruteforce(dual_space)

    evaluations = [bytes(f[i] for f in dual_space.carrier) for i in range(len(carrier))]

    bijective = len(set(evaluations)) == len(carrier) and set(evaluations) == set(
        double_dual.maps
    )

    index = {p: i for i, p in enumerate(carrier)}
    homomorphism = True
    for x in carrier:
        for y in carrier:
            em = bytes(map(min, evaluations[index[x]], evaluations[index[y]]))
            ej = bytes(map(max, evaluations[index[x]], evaluations[index[y]]))
            if em != evaluations[index[tuple(map(min, x, y))]]:
                homomorphism = False
            if ej != evaluations[index[tuple(map(max, x, y))]]:
                homomorphism = False
    for c in ELEMENTS:
        if evaluations[index[(c,) * k]] != bytes((c,)) * len(duals):
            homomorphism = False

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
    ji = join_irreducibles(homs.lattice())
    cube = hairy_cube_recursive(n)
    return set(ji.elements) == {e.table for e in cube.elements}
