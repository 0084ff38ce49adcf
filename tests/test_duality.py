"""Partial operations, witnesses, entailment, evaluation, persistence."""

import time
from collections import Counter
from itertools import chain, combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hairycube import duality, homsets
from hairycube.core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    TritTable,
    ZERO,
    all_tuples,
    join,
    meet,
    tuple_join,
    tuple_meet,
)
from hairycube.duality import (
    FtcResult,
    LAMBDA1,
    LAMBDA2,
    PI1,
    PI2,
    VARIANTS,
    Witness,
    algebra_homs,
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
    variant,
)
from hairycube.homsets import (
    CapExceededError,
    StructuredSpace,
    clone_closure,
    enumerate_homs_bruteforce,
    preserves_relation,
)
from hairycube.relations import (
    DIAGONAL,
    FULL,
    R1,
    R2,
    R3,
    BinaryRelation,
    PartialOp,
    canonical_name,
    enumerate_subalgebras,
    is_subuniverse,
)

from test_homsets import _naive_preserves_partial_op, _naive_preserves_relation

Z, O = ZERO, ONE

LAMBDA1_GRAPH = {
    (Z, Z, Z), (H, H, H), (O, O, O),
    (Z, H, H), (Z, O, H), (H, Z, Z), (H, O, H), (O, H, O),
}

LAMBDA2_GRAPH = {
    (Z, Z, Z), (H, H, H), (O, O, O),
    (Z, H, Z), (H, Z, H), (O, Z, H), (H, O, O), (O, H, H),
}


def test_lambda_graphs_frozen():
    assert set(LAMBDA1.graph()) == LAMBDA1_GRAPH
    assert set(LAMBDA2.graph()) == LAMBDA2_GRAPH
    assert LAMBDA1.domain == R1
    assert LAMBDA2.domain == R1.inverse()


def test_lambdas_are_algebraic():
    assert is_subuniverse(LAMBDA1.graph())
    assert is_subuniverse(LAMBDA2.graph())
    assert is_subuniverse(PI1.graph()) and is_subuniverse(PI2.graph())
    crooked = PartialOp.from_graph(
        "f", DIAGONAL, [(e, e, ONE) for e in ELEMENTS]
    )
    assert not is_subuniverse(crooked.graph())


def test_lambda_swap():
    assert compose_lambda_swap()
    for a, b in LAMBDA2.domain.pairs():
        assert LAMBDA2(a, b) == LAMBDA1(b, a)


def test_variant_structures():
    assert set(VARIANTS) == {"relational", "strong", "strong-min", "optimal-strong"}
    assert variant("relational").relations == (R1, R2, R3)
    assert variant("strong").partial_ops == (LAMBDA1, LAMBDA2)
    # the projections are not part of any variant: they constrain no map
    assert variant("strong").power_space(1).partial_ops == (LAMBDA1, LAMBDA2)
    assert variant("strong-min").partial_ops == (LAMBDA1,)
    assert variant("optimal-strong").relations == (R2,)
    assert variant("optimal-strong").partial_ops == (LAMBDA1,)
    with pytest.raises(ValueError):
        variant("bogus")


def test_variants_agree_on_homsets():
    for n in (1, 2):
        maps = {
            name: frozenset(homs_for_variant(n, name).maps) for name in VARIANTS
        }
        assert len(set(maps.values())) == 1
        assert maps["relational"] == frozenset(clone_closure(n).maps)


def test_algebra_homs_of_s_is_identity():
    homs = algebra_homs(all_tuples(1))
    assert homs == (bytes((ZERO, H, ONE)),)


def test_total_homs_are_projections():
    assert [str(t) for t in total_homs(1)] == ["0h1"]
    assert {str(t) for t in total_homs(2)} == {
        str(TritTable.projection(2, 1)),
        str(TritTable.projection(2, 2)),
    }
    for n in range(7):  # S^0 is one point where the constants coincide: no homs
        homs = total_homs(n)
        assert len(homs) == n
        assert set(homs) == {TritTable.projection(n, i) for i in range(1, n + 1)}
    with pytest.raises(CapExceededError):
        total_homs(7)


def test_algebra_homs_input_validation():
    with pytest.raises(ValueError):
        algebra_homs(())
    with pytest.raises(ValueError):
        algebra_homs(((ZERO,), (ONE,)))  # no (h,)
    with pytest.raises(ValueError):
        # contains constants but meets escape: (0,1) ^ (h,h) = (0,h)
        algebra_homs(((ZERO, ZERO), (H, H), (ONE, ONE), (ZERO, ONE)))
    with pytest.raises(ValueError):
        # closed under meet, but (0,1) v (h,h) = (h,1) is missing
        algebra_homs(((Z, Z), (Z, H), (Z, O), (H, H), (O, O)))
    with pytest.raises(ValueError):
        # closed under join, but (0,1) ^ (h,h) = (0,h) is missing
        algebra_homs(((Z, Z), (Z, O), (H, H), (H, O), (O, O)))
    with pytest.raises(ValueError):
        algebra_homs(((Z,), (H,), (O,), (Z, Z)))  # points of two widths


def _naive_algebra_homs(carrier):
    """Every map carrier -> S, kept when it fixes the constant tuples and
    commutes with componentwise meet and join; no index tables involved."""
    kept = []
    for values in product(ELEMENTS, repeat=len(carrier)):
        f = dict(zip(carrier, values))
        if all(f[(c,) * len(carrier[0])] == c for c in ELEMENTS) and all(
            f[tuple(map(op, u, v))] == op(f[u], f[v])
            for op in (meet, join)
            for u in carrier
            for v in carrier
        ):
            kept.append(bytes(values))
    return tuple(kept)


MEET = PartialOp.from_graph("meet", FULL, ((a, b, meet(a, b)) for a, b in FULL.pairs()))
JOIN = PartialOp.from_graph("join", FULL, ((a, b, join(a, b)) for a, b in FULL.pairs()))
# The constant c, as the relation whose only pair is (c, c): a map preserves
# it on a carrier exactly when it sends the constant tuple (c, ..., c) to c.
CONSTANTS = tuple(BinaryRelation.from_pairs([(c, c)]) for c in ELEMENTS)


def _searched_algebra_homs(carrier):
    """The hom-set of the carrier with meet and join as total operations and
    the constants as relations, found by the exhaustive search."""
    space = StructuredSpace.from_points(carrier, CONSTANTS, (MEET, JOIN))
    return enumerate_homs_bruteforce(space, carrier_cap=space.size).maps


def _free_algebra(n):
    """F(n): the n-ary clone as points of S^(3^n)."""
    return tuple(tuple(m) for m in clone_closure(n).maps)


def _evaluations(points):
    """The maps a |-> a[i] on sorted points, one per coordinate, sorted."""
    points = sorted(points)
    return tuple(sorted(bytes(p[i] for p in points) for i in range(len(points[0]))))


# r3 with (h,1) added is closed under meet and join but not under bar:
# bar (h,1) = (1,h).  The contract asks for no bar.
R3_WITH_H1 = tuple(sorted(R3.pairs() + ((H, O),)))


def test_algebra_homs_match_naive_filter():
    # S, then the 13 subalgebras of S², the last of which is S² itself
    carriers = [all_tuples(1)] + [r.pairs() for r in enumerate_subalgebras().elements]
    assert len(carriers) == 14 and carriers[-1] == all_tuples(2)
    for carrier in carriers + [_free_algebra(1), R3_WITH_H1]:
        assert algebra_homs(carrier) == _naive_algebra_homs(carrier)


def test_algebra_homs_match_the_search():
    carriers = [all_tuples(1)] + [r.pairs() for r in enumerate_subalgebras().elements]
    carriers += [_free_algebra(1), _free_algebra(2), R3_WITH_H1]
    for carrier in carriers:
        assert algebra_homs(carrier) == _searched_algebra_homs(carrier)
    # 3^35 maps are too many for the naive filter; the dual of F(2) is the
    # evaluations at the 9 points of S²
    assert algebra_homs(_free_algebra(2)) == _evaluations(_free_algebra(2))
    # jh in {(0,h), (h,0)} below the h-tuple, j1 in {(h,1), (1,1)} above it
    assert len(algebra_homs(R3_WITH_H1)) == 4


def test_algebra_homs_of_the_free_algebra_on_three_generators():
    # 775 points of S^27, out of the search's reach; its dual is the 27
    # evaluations at the points of S³
    points = _free_algebra(3)
    assert len(points) == 775
    start = time.perf_counter()
    homs = algebra_homs(points)
    elapsed = time.perf_counter() - start
    assert homs == _evaluations(points)
    assert elapsed < 1.0


def _closure(points):
    """The least set holding the points and the constants of S³ that is
    closed under componentwise meet and join."""
    closed = set(points) | {(c,) * 3 for c in ELEMENTS}
    while True:
        more = {op(u, v) for u in closed for v in closed for op in (tuple_meet, tuple_join)}
        if more <= closed:
            return tuple(sorted(closed))
        closed |= more


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(all_tuples(3)), max_size=6))
def test_algebra_homs_match_the_search_on_drawn_lattices(points):
    carrier = _closure(points)
    assert algebra_homs(carrier) == _searched_algebra_homs(carrier)


EXPECTED_HOM_COUNTS = {
    "Δ": 1,
    "r2∩r1⁻¹∩r3": 2, "(r2∩r1⁻¹∩r3)⁻¹": 2, "r3": 2, "r2∩r2⁻¹": 2,
    "r2∩r1⁻¹": 4, "(r2∩r1⁻¹)⁻¹": 4, "r1∩r1⁻¹": 4,
    "r2": 3, "r2⁻¹": 3, "r1": 3, "r1⁻¹": 3,
    "S²": 2,
}


def test_classification_counts_and_coverage():
    report = classify_partial_homs()
    assert report.passed and report.unclassified == 0
    counts = {name: len(homs) for name, homs in report.entries}
    assert counts == EXPECTED_HOM_COUNTS
    by_name = dict(report.entries)
    # the square itself only carries the projections
    assert sorted(tag for hom in by_name["S²"] for tag in hom.tags) == ["pi1", "pi2"]
    # the diagonal restriction of all four operations is the same single hom
    (diag,) = by_name["Δ"]
    assert set(diag.tags) == {"pi1", "pi2", "λ1", "λ2"}
    # on r1 the third hom beyond the projections restricts λ1
    r1_tags = sorted(tag for hom in by_name["r1"] for tag in hom.tags)
    assert r1_tags == ["pi1", "pi2", "λ1"]


def test_dual_of_r3_is_the_projection_pair():
    carrier = R3.pairs()  # sorted canonical order
    homs = algebra_homs(carrier)
    pi1 = tuple(a for a, _ in carrier)
    pi2 = tuple(b for _, b in carrier)
    assert set(homs) == {bytes(pi1), bytes(pi2)}
    # both lambda restrictions coincide with projections on r3
    assert tuple(LAMBDA1(a, b) for a, b in carrier) == pi2
    assert tuple(LAMBDA2(a, b) for a, b in carrier) == pi1


def test_optimality_witnesses():
    witnesses = optimality_witnesses()
    assert len(witnesses) == 3
    assert all(w.ok for w in witnesses)
    facts = {(w.preserved, w.violated) for w in witnesses}
    assert facts == {
        (("r1", "r2"), "r3"),
        (("r1", "r3"), "r2"),
        (("r2", "r3"), "r1"),
    }


def test_optimality_witnesses_are_the_three_relational_rows_in_order():
    assert optimality_witnesses() == (
        Witness("unary map 1h1", ("r1", "r2"), "r3", True),
        Witness("unary map 00h", ("r1", "r3"), "r2", True),
        Witness("α on {(h,0),(0,1)} with α(h,0)=1, α(0,1)=0", ("r2", "r3"), "r1", True),
    )
    assert duality._witness("optimal-strong", R2) == Witness("unary map h00", ("λ1",), "r2", True)


def test_every_witness_row_is_confirmed_by_the_naive_oracles():
    """Each row's map keeps every piece of its variant but the dropped one,
    and breaks that one, checked related pair by related pair and triple by
    triple rather than through break_flags."""
    assert set(duality._WITNESSES) == {
        ("relational", R1), ("relational", R2), ("relational", R3), ("optimal-strong", R2),
    }
    for (name, dropped), (_, points, values) in duality._WITNESSES.items():
        var = VARIANTS[name]
        space = StructuredSpace.from_points(points)
        assert len(values) == space.size

        def keeps(piece):
            if isinstance(piece, PartialOp):
                return _naive_preserves_partial_op(values, piece, space)
            return _naive_preserves_relation(values, piece, space)

        pieces = var.relations + var.partial_ops
        assert dropped in pieces
        assert all(keeps(p) for p in pieces if p != dropped)
        assert not keeps(dropped)
        assert duality._witness(name, dropped).ok


def test_h00_is_a_lambda1_map_found_by_the_search():
    _, points, h00 = duality._WITNESSES["optimal-strong", R2]
    assert points == all_tuples(1) and h00 == TritTable.from_string("h00")._codes()
    assert h00 in enumerate_homs_bruteforce(StructuredSpace.power(1, (), (LAMBDA1,))).maps


def test_a_witness_row_that_breaks_nothing_or_too_much_is_refused(monkeypatch):
    from hairycube.verify import suite_persistence

    identity = ("the identity", all_tuples(1), b"\0\1\2")
    for key in list(duality._WITNESSES):
        monkeypatch.setitem(duality._WITNESSES, key, identity)
    assert [w.ok for w in optimality_witnesses()] == [False] * 3
    assert not entail2_witness()
    checks = {c.name: c.passed for c in suite_persistence(1).checks}
    assert checks["r2-excludes-h00"] is False
    # 00h breaks r2, which the r3 row keeps
    monkeypatch.setitem(duality._WITNESSES, ("relational", R3),
                        ("unary map 00h", all_tuples(1), b"\0\0\1"))
    assert not duality._witness("relational", R3).ok
    # a row naming a piece its variant does not have
    monkeypatch.setitem(duality._WITNESSES, ("optimal-strong", R3), identity)
    with pytest.raises(KeyError):
        duality._witness("optimal-strong", R3)


FTC_RESTRICTIONS = {
    (Z, Z), (Z, H), (Z, O), (H, H), (H, O), (O, H), (O, O),
}


def test_ftc_fails_at_h_over_01():
    res = ftc_check((ZERO, ONE), H)
    assert not res.separated and res.pair is None
    assert len(res.restrictions) == 7
    assert set(res.restrictions) == FTC_RESTRICTIONS


def test_ftc_succeeds_elsewhere():
    res = ftc_check((ZERO,), ONE)
    assert res.separated
    assert tuple(str(t) for t in res.pair) == ("000", "0hh")
    res = ftc_check([(ZERO, ZERO)], (ONE, H))
    assert res.separated


def test_ftc_input_validation():
    with pytest.raises(ValueError):
        ftc_check((ZERO, ONE), ZERO)  # y inside the subset
    with pytest.raises(ValueError):
        ftc_check((ZERO,), (ONE, ONE))  # points narrower than y
    # n is y's width; arity 4 is past the clone closure's cap
    with pytest.raises(CapExceededError, match="clone closure"):
        ftc_check([(ZERO,) * 4], (ONE,) * 4)


def test_ftc_answers_at_arity_three():
    res = ftc_check([(ZERO,) * 3], (ONE,) * 3)
    assert res.separated and len(res.restrictions) == 775
    assert tuple(str(t) for t in res.pair) == ("0" * 27, "0000000000000hh0hh0000hh0hh")
    # on the diagonal the ternary morphisms restrict to the unary ones
    res = ftc_check([(ZERO,) * 3, (ONE,) * 3], (H,) * 3)
    assert not res.separated and set(res.restrictions) == FTC_RESTRICTIONS


def _ftc_by_pairs(points, y):
    """The FTC check by its definition: every pair of clone tables in
    `combinations` order, each evaluated at the points and at y."""
    pts = sorted(set(points))
    morphisms = clone_closure(len(y)).tables()
    restrictions = tuple(tuple(t(*p) for p in pts) for t in morphisms)
    for i, j in combinations(range(len(morphisms)), 2):
        if restrictions[i] == restrictions[j] and morphisms[i](*y) != morphisms[j](*y):
            return FtcResult(True, (morphisms[i], morphisms[j]), restrictions)
    return FtcResult(False, None, restrictions)


@pytest.mark.parametrize("n", [1, 2])
def test_ftc_matches_the_pairwise_check_on_every_subset(n):
    power = all_tuples(n)
    separated = 0
    for mask in range(1, 1 << len(power)):
        subset = [p for i, p in enumerate(power) if mask >> i & 1]
        for y in power:
            if y not in subset:
                res = ftc_check(subset, y)
                assert res == _ftc_by_pairs(subset, y)
                separated += res.separated
    assert separated > 0


@settings(max_examples=25, deadline=None)
@given(st.sets(st.sampled_from(all_tuples(3)), min_size=1, max_size=26),
       st.sampled_from(all_tuples(3)))
@example({(Z, Z, Z), (O, O, O)}, (H, H, H))  # not separated
@example({(Z, Z, Z)}, (O, O, O))
def test_ftc_matches_the_pairwise_check_at_arity_three(subset, y):
    assume(y not in subset)
    assert ftc_check(subset, y) == _ftc_by_pairs(subset, y)


def test_ftc_restrictions_at_arity_three_are_pinned():
    res = ftc_check([(ZERO,) * 3], (ONE,) * 3)
    assert tuple(str(t) for t in res.pair) == ("0" * 27, "0000000000000hh0hh0000hh0hh")
    assert Counter(res.restrictions) == {(Z,): 519, (H,): 128, (O,): 128}
    assert res.restrictions == tuple((t(Z, Z, Z),) for t in clone_closure(3).tables())
    assert all(isinstance(v, Element) for r in res.restrictions for v in r)


def test_entailment_exhaustive():
    report = entailment_lambda1(2)
    assert report.passed
    assert report.substructures == 107
    assert report.maps_checked == 1326
    assert report.violations == ()
    with pytest.raises(CapExceededError):
        entailment_lambda1(3)


def _closed_subsets_mask_by_mask(n):
    """The λ1-closed subsets by their definition, one mask at a time."""
    power = StructuredSpace.power(n, (), (LAMBDA1,))
    triples = power.op_triples(LAMBDA1)
    for mask in range(1, 1 << power.size):
        if all(mask >> k & 1 for i, j, k in triples if mask >> i & mask >> j & 1):
            yield tuple(p for i, p in enumerate(power.carrier) if mask >> i & 1)


@pytest.mark.parametrize("n, count", [(1, 6), (2, 101)])
def test_lambda1_closed_subsets_match_the_mask_by_mask_test(n, count):
    subsets = list(duality._lambda1_closed_subsets(StructuredSpace.power(n, (), (LAMBDA1,))))
    assert subsets == list(_closed_subsets_mask_by_mask(n))
    assert len(subsets) == count


def test_entailment_names_each_violation(monkeypatch):
    """With r2, which λ1 does not entail, standing in for r3, the report
    lists exactly the maps that a per-map check finds breaking it."""
    monkeypatch.setattr(duality, "R3", R2)
    expected = []
    for n in (1, 2):
        power = StructuredSpace.power(n, (), (LAMBDA1,))
        for subset in duality._lambda1_closed_subsets(power):
            space = StructuredSpace.from_points(subset, (), (LAMBDA1,))
            for values in enumerate_homs_bruteforce(space):
                expected += [(n, subset, values, name)
                             for name, rel in (("r1", R1), ("r3", R2))
                             if not preserves_relation(values, rel, space)]
    assert entailment_lambda1(2).violations == tuple(expected)
    assert len(expected) == 272
    assert {name for *_, name in expected} == {"r3"}
    assert (1, all_tuples(1), b"\1\0\0", "r3") in expected


@pytest.mark.parametrize("n", [1, 2])
def test_partial_search_equals_one_search_per_closed_subset(n):
    """The per-subset route as the oracle: on each λ1-closed X, the partial
    maps of (Sⁿ; λ1) that keep exactly X are the λ1-preserving maps on X,
    in their order."""
    power = StructuredSpace.power(n, (), (LAMBDA1,))
    by_domain = {}
    for m in chain.from_iterable(homsets._search(power, homsets._CODES + (homsets._ABSENT,))):
        domain = tuple(p for p, c in zip(power.carrier, m) if c != 3)
        by_domain.setdefault(domain, []).append(m.replace(b"\3", b""))
    assert by_domain.pop(()) == [b""]
    closed = list(duality._lambda1_closed_subsets(power))
    assert set(by_domain) == set(closed)
    for subset in closed:
        space = StructuredSpace.from_points(subset, (), (LAMBDA1,))
        assert tuple(by_domain[subset]) == enumerate_homs_bruteforce(space).maps


def test_entailment_runs_one_search_per_power(monkeypatch):
    searched = []
    search = duality._search
    monkeypatch.setattr(duality, "_search",
                        lambda space, codes: searched.append(space.size) or search(space, codes))
    for name in ("enumerate_homs_bruteforce", "break_flags"):
        monkeypatch.setattr(duality, name, None)  # no search or check per subset
    monkeypatch.setattr(StructuredSpace, "from_points", None)
    assert entailment_lambda1(2).passed
    assert searched == [3, 9]


def test_entailment_compiles_each_power_once(monkeypatch):
    built = []
    init = StructuredSpace.__init__
    monkeypatch.setattr(StructuredSpace, "__init__",
                        lambda self, carrier, *rest: built.append(len(carrier)) or
                        init(self, carrier, *rest))
    assert entailment_lambda1(2).passed
    assert built == [3, 9]


def test_entailment_fails_when_the_domains_are_not_the_closed_subsets(monkeypatch):
    """The closed subsets' bit-parallel count is a second route: a missing
    subset fails the report, and the substructures are still the domains
    the search found."""
    closed_subsets = duality._lambda1_closed_subsets
    monkeypatch.setattr(duality, "_lambda1_closed_subsets",
                        lambda power: list(closed_subsets(power))[1:])
    report = entailment_lambda1(2)
    assert not report.passed
    assert report.violations == ((1, 6, 5, "domains"), (2, 101, 100, "domains"))
    assert (report.substructures, report.maps_checked) == (107, 1326)


@pytest.mark.parametrize("max_power", [0, -1])
def test_entailment_refuses_a_power_below_one(max_power):
    # range(1, max_power + 1) is empty there: the check would pass on nothing
    with pytest.raises(ValueError, match="power of at least 1") as exc:
        entailment_lambda1(max_power)
    assert not isinstance(exc.value, CapExceededError)


def test_entailment_witness_against_r2():
    assert entail2_witness()
    # and r2 really is the reason (h,0,0) is not a morphism
    from hairycube.homsets import StructuredSpace, preserves_relation

    table = TritTable.from_string("h00")
    space = StructuredSpace.power(1)
    assert preserves_relation(table, R1, space)
    assert preserves_relation(table, R3, space)
    assert not preserves_relation(table, R2, space)


EXPECTED_DUAL_SIZES = {
    "Δ": 1,
    "r2∩r1⁻¹∩r3": 2, "(r2∩r1⁻¹∩r3)⁻¹": 2, "r3": 2, "r2∩r2⁻¹": 2,
    "r2∩r1⁻¹": 4, "(r2∩r1⁻¹)⁻¹": 4, "r1∩r1⁻¹": 4,
    "r2": 3, "r2⁻¹": 3, "r1": 3, "r1⁻¹": 3,
    "S²": 2,
}


def test_evaluation_isomorphisms():
    rep = evaluation_map_check(all_tuples(1))
    assert rep.passed and (rep.carrier_size, rep.dual_size) == (3, 1)
    rep = evaluation_map_check(all_tuples(2))
    assert rep.passed and (rep.carrier_size, rep.dual_size) == (9, 2)
    for rel in enumerate_subalgebras().elements:
        rep = evaluation_map_check(rel.pairs())
        assert rep.passed
        assert rep.double_dual_size == len(rel)
        assert rep.dual_size == EXPECTED_DUAL_SIZES[canonical_name(rel)]


def _loop_keeps_meet_join_constants(carrier, evaluations) -> bool:
    """The pair-by-pair test on entry codes: evaluation at the meet (join) of
    two points is the pointwise min (max) of theirs, and at a constant tuple
    it is that constant."""
    index = {p: i for i, p in enumerate(carrier)}
    k, d = len(carrier[0]), len(evaluations[0])
    for x in carrier:
        for y in carrier:
            ex, ey = evaluations[index[x]], evaluations[index[y]]
            if bytes(map(min, ex, ey)) != evaluations[index[tuple(map(min, x, y))]]:
                return False
            if bytes(map(max, ex, ey)) != evaluations[index[tuple(map(max, x, y))]]:
                return False
    return all(evaluations[index[(c,) * k]] == bytes((c,)) * d for c in ELEMENTS)


def _the_fifteen_algebras():
    return [all_tuples(1), all_tuples(2)] + [rel.pairs() for rel in enumerate_subalgebras().elements]


def test_homomorphism_flag_matches_the_pair_loop():
    """On all 15 algebras and every evaluation with one code changed."""
    failed = 0
    for carrier in map(tuple, _the_fifteen_algebras()):
        duals = algebra_homs(carrier)
        evaluations = [bytes(f[i] for f in duals) for i in range(len(carrier))]
        assert duality._keeps_meet_join_constants(carrier, evaluations)
        assert _loop_keeps_meet_join_constants(carrier, evaluations)
        for i, j, v in product(range(len(carrier)), range(len(duals)), range(3)):
            if evaluations[i][j] != v:
                bad = list(evaluations)
                bad[i] = bad[i][:j] + bytes((v,)) + bad[i][j + 1:]
                flag = duality._keeps_meet_join_constants(carrier, bad)
                assert flag == _loop_keeps_meet_join_constants(carrier, bad), (carrier, i, j, v)
                failed += not flag
    assert failed > 0
    # h evaluated as 1 on S: the constant h is no longer kept
    assert not duality._keeps_meet_join_constants(all_tuples(1), [b"\0", b"\2", b"\2"])


def test_the_shared_objects_are_computed_once():
    carrier = R3.pairs()
    assert algebra_homs(carrier) is algebra_homs(carrier[::-1])
    for n, name in product((1, 2), VARIANTS):
        assert homs_for_variant(n, name) is homs_for_variant(n, name)
    with pytest.raises(CapExceededError):
        homs_for_variant(2, "relational", carrier_cap=8)
    # past the default cap every call searches, and no cache keeps the result
    cached = duality._small_power_homs.cache_info().currsize
    first, second = (homs_for_variant(3, "relational", carrier_cap=27) for _ in range(2))
    assert first == second and first is not second
    assert duality._small_power_homs.cache_info().currsize == cached


def test_evaluation_rejects_an_empty_carrier():
    for carrier in ((), []):
        with pytest.raises(ValueError, match="carrier must be nonempty"):
            evaluation_map_check(carrier)


def test_evaluation_rejects_non_subuniverse():
    with pytest.raises(ValueError):
        evaluation_map_check(((ZERO, ZERO), (H, H), (ONE, ONE), (H, ONE)))
    # S³ is in reach of every variant; S⁴ is past what is_subuniverse decides
    for name in VARIANTS:
        rep = evaluation_map_check(all_tuples(3), name)
        assert rep.passed
        assert (rep.carrier_size, rep.dual_size, rep.double_dual_size) == (27, 3, 27)
    with pytest.raises(ValueError, match="k must be 1, 2 or 3"):
        evaluation_map_check(all_tuples(4))


def test_persistence():
    assert persistence_check(1)
    assert persistence_check(2)
    with pytest.raises(CapExceededError):
        persistence_check(3)
