"""Named verification suites over the library, with certificate payloads.

Each check records a machine-checkable claim, its outcome and a small
certificate.  Reports are deterministic: same input, same bytes.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .core import (
    ELEMENTS,
    H,
    ONE,
    TritTable,
    ZERO,
    bar,
    join,
    meet,
    nu_term,
    semiring_add,
    all_tuples,
)
from .cube import (
    PartiallyStoneSpaceFinite,
    _cube_poset,
    eta,
    eval_polynomial,
    extracted_hairy_cube,
    hairy_cube_recursive,
    ji_meet_formula_check,
    open_set_order,
    polynomial_form,
    pss_homeomorphism,
    verify_hairy_cube,
)
from .duality import (
    LAMBDA1,
    LAMBDA2,
    VARIANTS,
    _WITNESSES,
    classify_partial_homs,
    compose_lambda_swap,
    entail2_witness,
    entailment_lambda1,
    evaluation_map_check,
    ftc_check,
    homs_for_variant,
    optimality_witnesses,
    persistence_check,
    total_homs,
)
from .homsets import (
    StructuredSpace,
    assemble,
    break_flags,
    clone_closure,
    lift,
)
from .posets import FinitePoset
from .relations import (
    DIAGONAL,
    FULL,
    R2,
    R3,
    BinaryRelation,
    canonical_name,
    enumerate_congruences,
    enumerate_subalgebras,
    irreducibility_index,
    is_subuniverse,
    meet_irreducible_congruences,
    subuniverses_of_carrier,
)


class Check(NamedTuple):
    name: str
    statement: str
    passed: bool
    certificate: dict | None = None  # reports write None as {}


class SuiteReport(NamedTuple):
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _tables(ts) -> list[str]:
    return [str(t) for t in ts]


def suite_barops(n_max: int | None = None) -> SuiteReport:
    checks = []
    l1 = all(join(x, bar(x)) == ONE for x in ELEMENTS)
    checks.append(
        Check("l1", "x v bar(x) = 1 on all three elements", l1,
              {"bar": [str(bar(x)) for x in ELEMENTS]})
    )
    l2 = all(meet(x, bar(x)) == meet(x, bar(ONE)) for x in ELEMENTS)
    checks.append(Check("l2", "x ^ bar(x) = x ^ bar(1) on all three elements", l2))
    dist = all(
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        for x, y, z in product(ELEMENTS, repeat=3)
    )
    checks.append(Check("distributivity", "meet distributes over join on all 27 triples", dist))
    semi = all(
        join(x, y) == semiring_add(semiring_add(x, y), meet(x, y))
        for x, y in product(ELEMENTS, repeat=2)
    )
    checks.append(
        Check(
            "semiring-consistency",
            "x v y = (x + y) + (x ^ y) with the derived addition, on all 9 pairs",
            semi,
            {"one-plus-one": str(semiring_add(ONE, ONE))},
        )
    )
    return SuiteReport("barops", tuple(checks))


def suite_nu(n_max: int | None = None) -> SuiteReport:
    checks = []
    nu = all(
        nu_term(x, x, z) == x and nu_term(x, z, x) == x and nu_term(z, x, x) == x
        for x, z in product(ELEMENTS, repeat=2)
    )
    checks.append(
        Check("near-unanimity", "t(x,x,z) = t(x,z,x) = t(z,x,x) = x on all pairs", nu)
    )
    med = nu_term(ZERO, H, ONE) == H
    checks.append(Check("median-sample", "t(0,h,1) = h", med, {"value": str(nu_term(ZERO, H, ONE))}))
    return SuiteReport("nu", tuple(checks))


_SUBALGEBRA_FIGURE_COVERS = {
    ("r1", "S²"), ("r1⁻¹", "S²"),
    ("r2", "r1"), ("r1∩r1⁻¹", "r1"),
    ("r1∩r1⁻¹", "r1⁻¹"), ("r2⁻¹", "r1⁻¹"),
    ("r2∩r1⁻¹", "r2"), ("r2∩r1⁻¹", "r1∩r1⁻¹"),
    ("(r2∩r1⁻¹)⁻¹", "r1∩r1⁻¹"), ("r3", "r1∩r1⁻¹"),
    ("(r2∩r1⁻¹)⁻¹", "r2⁻¹"),
    ("r2∩r1⁻¹∩r3", "r2∩r1⁻¹"), ("r2∩r2⁻¹", "r2∩r1⁻¹"),
    ("(r2∩r1⁻¹∩r3)⁻¹", "(r2∩r1⁻¹)⁻¹"), ("r2∩r2⁻¹", "(r2∩r1⁻¹)⁻¹"),
    ("r2∩r1⁻¹∩r3", "r3"), ("(r2∩r1⁻¹∩r3)⁻¹", "r3"),
    ("Δ", "r2∩r1⁻¹∩r3"), ("Δ", "r2∩r2⁻¹"), ("Δ", "(r2∩r1⁻¹∩r3)⁻¹"),
}


def suite_subalgebras(n_max: int | None = None) -> SuiteReport:
    checks = []
    lat = enumerate_subalgebras()
    checks.append(
        Check("count", "S^2 has exactly 13 subuniverses", len(lat.elements) == 13,
              {"count": len(lat.elements)})
    )
    expected_names = {
        "Δ", "r1", "r1⁻¹", "r2", "r2⁻¹", "r3", "r1∩r1⁻¹", "r2∩r1⁻¹",
        "(r2∩r1⁻¹)⁻¹", "r2∩r2⁻¹", "r2∩r1⁻¹∩r3", "(r2∩r1⁻¹∩r3)⁻¹", "S²",
    }
    names = {canonical_name(r) for r in lat.elements}
    checks.append(
        Check("named-nodes", "every subuniverse is one of the 13 named intersections",
              names == expected_names, {"names": sorted(names)})
    )
    covers = {(canonical_name(a), canonical_name(b)) for a, b in lat.cover_pairs()}
    checks.append(
        Check("hasse-diagram", "the cover relation matches the 20 reference edges",
              covers == _SUBALGEBRA_FIGURE_COVERS,
              {"missing": sorted(map(str, _SUBALGEBRA_FIGURE_COVERS - covers)),
               "extra": sorted(map(str, covers - _SUBALGEBRA_FIGURE_COVERS))})
    )
    inv_ok = all(r.inverse() in lat.elements for r in lat.elements)
    int_ok = all(
        (a & b) in lat.elements for a in lat.elements for b in lat.elements
    )
    checks.append(Check("closed-under-inverse", "the family is closed under converse", inv_ok))
    checks.append(Check("closed-under-intersection", "the family is closed under intersection", int_ok))
    carrier_only = subuniverses_of_carrier() == (frozenset(ELEMENTS),)
    checks.append(
        Check("no-proper-subalgebras", "S itself has no proper subalgebra", carrier_only)
    )
    bottom_top = (
        canonical_name(lat.elements[lat.bottom_index()]) == "Δ"
        and canonical_name(lat.elements[lat.top_index()]) == "S²"
    )
    checks.append(Check("bounds", "the lattice runs from Δ up to S²", bottom_top))
    return SuiteReport("subalgebras", tuple(checks))


def suite_congruences(n_max: int | None = None) -> SuiteReport:
    checks = []
    con_lattice = enumerate_congruences()
    cons = con_lattice.elements
    expected = {DIAGONAL.mask, R3.mask, (R2 & R2.inverse()).mask, FULL.mask}
    checks.append(
        Check("set", "Con(S) = {Δ, r3, r2∩r2⁻¹, S²}",
              {c.mask for c in cons} == expected,
              {"names": [canonical_name(c) for c in cons]})
    )
    # the other route: the equivalences on S are the kernels of the 27 maps
    # S -> S; keep those that are subuniverses of S^2
    kernels = {BinaryRelation.from_pairs((a, b) for a in ELEMENTS for b in ELEMENTS if f[a] == f[b])
               for f in all_tuples(3)}
    filtered = tuple(r for r in kernels if is_subuniverse(r))
    checks.append(
        Check("matches-subalgebra-filter",
              "independently enumerated congruences equal the equivalence "
              "subuniverses of S^2",
              set(cons) == set(filtered))
    )
    checks.append(
        Check("square-shape", "Con(S) is the four-element Boolean lattice",
              con_lattice.isomorphism_to(_cube_poset(2)) is not None)
    )
    mis = meet_irreducible_congruences()
    checks.append(
        Check("meet-irreducibles", "the meet-irreducible congruences are r3 and r2∩r2⁻¹",
              {c.mask for c in mis} == {R3.mask, (R2 & R2.inverse()).mask},
              {"names": [canonical_name(c) for c in mis]})
    )
    idx = irreducibility_index()
    checks.append(
        Check("irreducibility-index",
              "the diagonal needs exactly two meet-irreducible congruences",
              idx == 2, {"index": idx})
    )
    return SuiteReport("congruences", tuple(checks))


_UNARY_TABLES = ("000", "0hh", "0h1", "hhh", "hh1", "11h", "111")
_UNARY_COVERS = {
    ("000", "0hh"), ("0hh", "hhh"), ("0hh", "0h1"), ("hhh", "hh1"),
    ("0h1", "hh1"), ("hhh", "11h"), ("hh1", "111"), ("11h", "111"),
}


def suite_homs_agree(n_max: int | None = None) -> SuiteReport:
    checks = []
    brute1 = homs_for_variant(1, "relational")
    clone1 = clone_closure(1)
    checks.append(
        Check("unary-homset",
              "the unary morphisms are exactly the seven reference tables",
              tuple(_tables(brute1.tables())) == _UNARY_TABLES,
              {"tables": _tables(brute1.tables())})
    )
    lat1 = brute1.lattice()
    covers1 = {(str(a), str(b)) for a, b in lat1.cover_pairs()}
    checks.append(
        Check("unary-covers", "the unary hom-set lattice has the eight reference covers",
              covers1 == _UNARY_COVERS, {"covers": sorted(map(str, covers1))})
    )
    checks.append(
        Check("clone-vs-bruteforce-1",
              "term clone and relational enumeration agree at arity 1",
              set(clone1.maps) == set(brute1.maps))
    )
    brute2 = homs_for_variant(2, "relational")
    clone2 = clone_closure(2)
    checks.append(
        Check("clone-vs-bruteforce-2",
              "term clone and relational enumeration agree at arity 2, with 35 members",
              set(clone2.maps) == set(brute2.maps) and len(clone2) == 35,
              {"count": len(clone2)})
    )
    lifted = set(lift(clone1).maps)
    members = set(clone2.maps)
    checks.append(
        Check("construct-necessity",
              "every binary morphism satisfies the slice conditions",
              members <= lifted)
    )
    closure_ok = True
    for n in (2, 3):
        lower = clone_closure(n - 1)
        upper = clone_closure(n)
        zero = TritTable.constant(n - 1, ZERO)
        for psi in lower.tables():
            psi_h = psi.meet_h()
            built = (
                assemble(psi_h, psi_h, psi_h),
                assemble(zero, psi_h, psi_h),
                assemble(zero, psi_h, psi),
                assemble(psi, psi, psi_h),
            )
            if any(t not in upper for t in built):
                closure_ok = False
    checks.append(
        Check("construct-closure",
              "meeting a spread morphism with h, the first projection or its bar "
              "stays in the hom-set one arity up",
              closure_ok)
    )
    checks.append(
        Check("construct-sufficiency-note",
              "empirical note: count of non-morphisms passing the slice conditions "
              "at arity 2 (the conditions are only claimed necessary)",
              True, {"nonmembers-passing": len(lifted - members)})
    )
    return SuiteReport("homs-agree", tuple(checks))


def suite_hairy_cube(n_max: int | None = None) -> SuiteReport:
    n_max = 3 if n_max is None else min(n_max, 3)
    checks = []
    for n in range(1, n_max + 1):
        cube = hairy_cube_recursive(n)
        report = verify_hairy_cube(cube, n)
        checks.append(
            Check(f"shape-n{n}",
                  f"the dimension-{n} construction is a {2 ** n}-cube with hairs",
                  report.passed and cube.n == 2 ** (n + 1),
                  {"clauses": [list(c[:2]) for c in report.clauses]})
        )
        extracted = extracted_hairy_cube(n)
        ji = {e.table for e in cube.elements}
        same = ji == set(extracted.elements) and set(extracted.cover_pairs()) == {
            (a.table, b.table) for a, b in cube.cover_pairs()}
        checks.append(
            Check(f"recursive-vs-extracted-n{n}",
                  "recursive construction equals the join-irreducibles of the "
                  f"hom-set lattice at arity {n}",
                  same, {"size": cube.n})
        )
        coords = {e.table: eta(e.table) for e in cube.elements if e.is_base}
        order_iso = all(
            t1.leq(t2) == all(a <= b for a, b in zip(c1, c2))
            for t1, c1 in coords.items()
            for t2, c2 in coords.items()
        )
        checks.append(
            Check(f"eta-order-iso-n{n}",
                  f"eta maps the base bijectively and order-isomorphically onto 2^{n}",
                  len(set(coords.values())) == 2 ** n and order_iso)
        )
        meet_h_ji = all(t.meet_h() in ji for t in ji)
        checks.append(
            Check(f"meet-h-stays-ji-n{n}",
                  "meeting a join-irreducible with h lands on a join-irreducible",
                  meet_h_ji)
        )
        checks.append(
            Check(f"ji-meet-formula-n{n}",
                  "distinct join-irreducibles meet inside the base",
                  ji_meet_formula_check(n),
                  {"self-meet-counterexample":
                   "a hair meets itself to itself, strictly above h"})
        )
        topo = cube.downset_masks()
        round_trip = open_set_order(topo, cube.elements) == cube
        checks.append(
            Check(f"alexandrov-roundtrip-n{n}",
                  "specialisation order of the downset topology recovers the poset",
                  round_trip, {"opens": len(topo)})
        )
    relabeled = _relabeled_cube(2)
    found = pss_homeomorphism(relabeled, 2)
    checks.append(
        Check("pss-relabeled",
              "a relabeled dimension-2 candidate is recognised up to homeomorphism",
              found.ok)
    )
    chain = FinitePoset.from_leq(
        tuple("abc"), lambda x, y: x <= y
    )
    bad = PartiallyStoneSpaceFinite.from_poset(chain, frozenset("abc"))
    refused = pss_homeomorphism(bad, 2)
    checks.append(
        Check("pss-detects-bad-base",
              "a three-chain base is rejected by the cube clause",
              (not refused.ok) and refused.failed_clause == "base-is-cube",
              {"failed-clause": refused.failed_clause})
    )
    return SuiteReport("hairy-cube", tuple(checks))


def _relabeled_cube(n: int) -> PartiallyStoneSpaceFinite:
    cube = hairy_cube_recursive(n)
    names = [f"v{i}" for i in range(cube.n)]
    perm = names[::-1]
    relabel = dict(zip(cube.elements, perm))
    unlabel = dict(zip(perm, cube.elements))
    poset = FinitePoset.from_leq(
        sorted(perm), lambda x, y: cube.leq(unlabel[x], unlabel[y])
    )
    base = frozenset(relabel[e] for e in cube.elements if e.is_base)
    return PartiallyStoneSpaceFinite.from_poset(poset, base)


def suite_polynomials(n_max: int | None = None) -> SuiteReport:
    n_max = 3 if n_max is None else min(n_max, 3)
    checks = []
    for n in range(1, n_max + 1):
        descriptor_rt = all(
            polynomial_form(eval_polynomial(eps, flag)) == (eps, flag)
            for eps in product((0, 1), repeat=n)
            for flag in (True, False)
        )
        checks.append(
            Check(f"descriptor-roundtrip-n{n}",
                  "evaluate-then-read-off is the identity on descriptors",
                  descriptor_rt)
        )
        table_rt = all(
            eval_polynomial(*polynomial_form(e.table)) == e.table
            for e in hairy_cube_recursive(n).elements
        )
        checks.append(
            Check(f"table-roundtrip-n{n}",
                  "read-off-then-evaluate is the identity on join-irreducibles",
                  table_rt)
        )
    explicit = (
        polynomial_form(TritTable.from_string("0h1")) == ((0,), False)
        and polynomial_form(TritTable.from_string("11h")) == ((1,), False)
        and polynomial_form(TritTable.from_string("0hh")) == ((0,), True)
        and polynomial_form(TritTable.from_string("hhh")) == ((1,), True)
    )
    checks.append(
        Check("unary-forms",
              "the four unary join-irreducibles read off as p1, ~p1, p1^h, ~p1^h",
              explicit)
    )
    return SuiteReport("polynomials", tuple(checks))


def suite_birkhoff(n_max: int | None = None) -> SuiteReport:
    n_max = 3 if n_max is None else min(n_max, 3)
    checks = []
    expected = {1: 7, 2: 35, 3: 775}
    for n in range(1, n_max + 1):
        clone_size = len(clone_closure(n))
        downsets = len(hairy_cube_recursive(n).downset_masks())
        checks.append(
            Check(f"downset-count-n{n}",
                  f"|hom-set| at arity {n} equals the downset count of its "
                  "join-irreducible poset",
                  clone_size == downsets == expected[n],
                  {"clone": clone_size, "downsets": downsets})
        )
    return SuiteReport("birkhoff", tuple(checks))


def suite_optimality(n_max: int | None = None) -> SuiteReport:
    witnesses = optimality_witnesses()
    checks = [
        Check(f"witness-{w.violated}",
              f"{w.description} preserves {', '.join(w.preserved)} but not {w.violated}",
              w.ok)
        for w in witnesses
    ]
    return SuiteReport("optimality", tuple(checks))


_FTC_RESTRICTIONS = {
    (ZERO, ZERO), (ZERO, H), (ZERO, ONE), (H, H), (H, ONE), (ONE, H), (ONE, ONE),
}


def suite_ftc(n_max: int | None = None) -> SuiteReport:
    checks = []
    res = ftc_check((ZERO, ONE), H)
    checks.append(
        Check("no-separation-at-h",
              "no pair of unary morphisms agrees on {0,1} and differs at h; the "
              "seven restrictions are pairwise distinct",
              (not res.separated) and set(res.restrictions) == _FTC_RESTRICTIONS
              and len(res.restrictions) == 7,
              {"restrictions": ["".join(str(v) for v in r) for r in res.restrictions]})
    )
    pos = ftc_check((ZERO,), ONE)
    checks.append(
        Check("separation-at-one",
              "some pair of unary morphisms agrees at 0 and differs at 1",
              pos.separated and pos.pair is not None,
              {"pair": [] if pos.pair is None else _tables(pos.pair)})
    )
    return SuiteReport("ftc", tuple(checks))


def suite_classify(n_max: int | None = None) -> SuiteReport:
    checks = [Check(f"lambda{i}-algebraic", f"the graph of {op.name} is a subuniverse of S^3",
                    is_subuniverse(op.graph())) for i, op in ((1, LAMBDA1), (2, LAMBDA2))]
    checks.append(
        Check("lambda-swap", "λ1 with swapped arguments is λ2", compose_lambda_swap())
    )
    for n in (1, 2):
        homs = total_homs(n)
        expected = {TritTable.projection(n, i) for i in range(1, n + 1)}
        checks.append(
            Check(f"total-homs-n{n}",
                  f"the algebra homomorphisms S^{n} -> S are the {n} projection(s)",
                  set(homs) == expected,
                  {"count": len(homs)})
        )
    report = classify_partial_homs()
    checks.append(
        Check("all-homs-classified",
              "every hom from each of the 13 subalgebras of S^2 restricts one of "
              "pi1, pi2, λ1, λ2",
              report.passed,
              {"unclassified": report.unclassified,
               "hom-counts": {name: len(homs) for name, homs in report.entries}})
    )
    r1_entry = dict(report.entries)["r1"]
    r1_tags = sorted(tag for hom in r1_entry for tag in hom.tags)
    checks.append(
        Check("r1-homs",
              "the three homs from r1 restrict pi1, pi2 and λ1",
              len(r1_entry) == 3 and r1_tags == ["pi1", "pi2", "λ1"],
              {"tags": r1_tags})
    )
    return SuiteReport("classify", tuple(checks))


def suite_entailment(n_max: int | None = None) -> SuiteReport:
    checks = []
    report = entailment_lambda1(2)
    checks.append(
        Check("lambda1-entails-r1-r3",
              "every λ1-preserving map on a λ1-closed substructure of S or S^2 "
              "preserves r1 and r3",
              report.passed,
              {"substructures": report.substructures,
               "maps-checked": report.maps_checked})
    )
    key = all(LAMBDA1(a, b) == b for a, b in R3.pairs())
    checks.append(
        Check("r3-absorption", "λ1 returns its second argument on r3 pairs", key)
    )
    checks.append(
        Check("r2-not-entailed",
              "(h,0,0) preserves λ1 but carries the r2 pair (0,h) to (h,0)",
              entail2_witness())
    )
    return SuiteReport("entailment", tuple(checks))


def suite_evaluation(n_max: int | None = None) -> SuiteReport:
    algebras = [(f"S{n}", f"from S^{n} onto its double dual", all_tuples(n)) for n in (1, 2)]
    algebras += [(name, f"for the subalgebra {name}", rel.pairs())
                 for rel in enumerate_subalgebras().elements for name in [canonical_name(rel)]]
    checks = []
    for name, what, carrier in algebras:
        rep = evaluation_map_check(carrier)
        checks.append(
            Check(f"evaluation-{name}", f"evaluation is an isomorphism {what}", rep.passed,
                  {"carrier": rep.carrier_size, "dual": rep.dual_size,
                   "double-dual": rep.double_dual_size})
        )
    return SuiteReport("evaluation", tuple(checks))


def suite_persistence(n_max: int | None = None) -> SuiteReport:
    n_max = 2 if n_max is None else min(n_max, 2)
    checks = []
    for n in range(1, n_max + 1):
        checks.append(
            Check(f"optimal-strong-n{n}",
                  f"the optimal strong structure keeps the arity-{n} hom-set and "
                  "its hairy-cube geometry",
                  persistence_check(n))
        )
        sets = {
            name: frozenset(homs_for_variant(n, name).maps) for name in VARIANTS
        }
        agree = len(set(sets.values())) == 1
        checks.append(
            Check(f"variants-agree-n{n}",
                  f"all four structure variants have the same morphisms S^{n} -> S",
                  agree, {"sizes": {k: len(v) for k, v in sorted(sets.items())}})
        )
    _, points, h00 = _WITNESSES["optimal-strong", R2]
    excluded = break_flags([h00], StructuredSpace.from_points(points), (R2,)) == b"\1"
    checks.append(
        Check("r2-excludes-h00", "(h,0,0) is ruled out by r2 alone", excluded)
    )
    return SuiteReport("persistence", tuple(checks))


SUITES = {
    "barops": suite_barops,
    "nu": suite_nu,
    "subalgebras": suite_subalgebras,
    "congruences": suite_congruences,
    "homs-agree": suite_homs_agree,
    "hairy-cube": suite_hairy_cube,
    "polynomials": suite_polynomials,
    "birkhoff": suite_birkhoff,
    "optimality": suite_optimality,
    "ftc": suite_ftc,
    "classify": suite_classify,
    "entailment": suite_entailment,
    "evaluation": suite_evaluation,
    "persistence": suite_persistence,
}


def run_suite(name: str, n_max: int | None = None) -> tuple[SuiteReport, ...]:
    """Run one named suite, or all of them."""
    if n_max is not None and n_max < 1:
        raise ValueError(f"the power cap n must be at least 1, got {n_max}")
    if name == "all":
        return tuple(fn(n_max) for fn in SUITES.values())
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'"
        )
    return (SUITES[name](n_max),)


def report_lines(reports: tuple[SuiteReport, ...]) -> list[str]:
    lines = []
    total = 0
    bad = 0
    for rep in reports:
        for check in rep.checks:
            total += 1
            bad += 0 if check.passed else 1
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status}  {rep.suite}/{check.name}: {check.statement}")
    lines.append(f"{total - bad}/{total} checks passed")
    return lines


def reports_payload(reports: tuple[SuiteReport, ...]) -> dict:
    return {
        "schema": 1,
        "object": "verification-report",
        "suites": [
            {
                "suite": rep.suite,
                "passed": rep.passed,
                "checks": [
                    {
                        "name": c.name,
                        "statement": c.statement,
                        "passed": c.passed,
                        "certificate": c.certificate or {},
                    }
                    for c in rep.checks
                ],
            }
            for rep in reports
        ],
    }
