"""Bitmask poset machinery."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hairycube import homsets, posets
from hairycube.cube import chi_lattice, hairy_cube_recursive
from hairycube.posets import CapExceededError, FinitePoset
from hairycube.relations import enumerate_subalgebras


def greatest_lower_bound(p: FinitePoset, i: int, j: int) -> int:
    """The index of the meet of i and j, read off `leq_by_index`; asserts
    that it exists and is unique."""
    common = [k for k in range(p.n) if p.leq_by_index(k, i) and p.leq_by_index(k, j)]
    best = [k for k in common if all(p.leq_by_index(c, k) for c in common)]
    assert len(best) == 1, "no unique greatest lower bound"
    return best[0]


def least_upper_bound(p: FinitePoset, i: int, j: int) -> int:
    """The index of the join of i and j, read off `leq_by_index`; asserts
    that it exists and is unique."""
    common = [k for k in range(p.n) if p.leq_by_index(i, k) and p.leq_by_index(j, k)]
    best = [k for k in common if all(p.leq_by_index(k, c) for c in common)]
    assert len(best) == 1, "no unique least upper bound"
    return best[0]


def divides(a, b):
    return b % a == 0


def test_from_leq_divisibility():
    p = FinitePoset.from_leq(range(1, 11), divides)
    assert p.n == 10
    assert p.leq(2, 8) and not p.leq(2, 9)
    assert p.bottom_index() == p.index(1)
    with pytest.raises(ValueError):
        p.top_index()  # no greatest element among 1..10
    assert set(p.cover_pairs()) >= {(1, 2), (2, 4), (3, 9), (5, 10)}
    assert (2, 8) not in set(p.cover_pairs())  # 4 sits between


def test_validation_rejects_non_orders():
    with pytest.raises(ValueError):
        FinitePoset.from_leq([0, 1], lambda x, y: True)  # not antisymmetric
    with pytest.raises(ValueError):
        FinitePoset.from_leq([0, 1], lambda x, y: x != y)  # not reflexive
    with pytest.raises(ValueError):
        # 0<1, 1<2 without 0<2 breaks transitivity
        FinitePoset.from_leq(
            [0, 1, 2], lambda x, y: x == y or (x, y) in {(0, 1), (1, 2)}
        )
    with pytest.raises(ValueError):
        FinitePoset([0, 0], [1, 3])  # duplicate elements


def test_cover_indices_both_directions():
    p = FinitePoset.from_leq([1, 2, 3, 6], divides)
    six = p.index(6)
    one = p.index(1)
    assert sorted(p.lower_cover_indices(six)) == sorted(
        [p.index(2), p.index(3)]
    )
    assert sorted(p.upper_cover_indices(one)) == sorted(
        [p.index(2), p.index(3)]
    )
    assert p.comparable(1, 6) and not p.comparable(2, 3)


def test_induced_subposet():
    p = FinitePoset.from_leq(range(1, 13), divides)
    q = p.induced([p.index(x) for x in (1, 2, 4, 8)])
    assert q.n == 4
    assert q.cover_pairs() == ((1, 2), (2, 4), (4, 8))


def test_downsets_of_chain_and_antichain():
    chain = FinitePoset.from_leq([1, 2, 4], divides)
    assert len(chain.downset_masks()) == 4  # {}, {1}, {1,2}, all
    anti = FinitePoset.from_leq([2, 3, 5], divides)
    assert len(anti.downset_masks()) == 8
    assert 0 in chain.downset_masks() and 0b111 in chain.downset_masks()
    # every mask is downward closed: it holds each divisor of a point it holds
    for p in (chain, anti):
        assert all(
            d >> j & 1
            for d in p.downset_masks()
            for i, x in enumerate(p.elements) if d >> i & 1
            for j, y in enumerate(p.elements) if divides(y, x)
        )


def test_downset_cap():
    big = FinitePoset.from_leq(range(21), lambda x, y: x == y)
    with pytest.raises(ValueError):
        big.downset_masks()


def test_downset_cap_counts_downsets_not_elements(monkeypatch):
    chain = FinitePoset.from_leq(range(30), lambda x, y: x <= y)
    assert len(chain.downset_masks()) == 31
    # 32 elements, 319,107 downsets: the hom-set size at arity 4
    assert len(hairy_cube_recursive(4).downset_masks()) == 319_107
    monkeypatch.setattr(posets, "DOWNSET_CAP", 7)
    assert len(FinitePoset.from_leq(range(6), lambda x, y: x <= y).downset_masks()) == 7
    anti = FinitePoset.from_leq(range(3), lambda x, y: x == y)
    with pytest.raises(CapExceededError, match="more than 7 downsets of a 3-element poset"):
        anti.downset_masks()
    # the one cap error type, still a ValueError, under its old import path too
    assert homsets.CapExceededError is CapExceededError
    assert issubclass(CapExceededError, ValueError)


def test_isomorphism_found_and_refused():
    p = FinitePoset.from_leq([1, 2, 3, 6], divides)
    q = FinitePoset.from_leq(
        ["00", "01", "10", "11"],
        lambda x, y: all(a <= b for a, b in zip(x, y)),
    )
    iso = p.isomorphism_to(q)
    assert iso is not None
    assert iso[1] == "00" and iso[6] == "11"
    assert {iso[2], iso[3]} == {"01", "10"}
    chain = FinitePoset.from_leq([1, 2, 4, 8], divides)
    assert p.isomorphism_to(chain) is None
    smaller = FinitePoset.from_leq([1, 2], divides)
    assert p.isomorphism_to(smaller) is None


def test_poset_equality_is_by_relation():
    p = FinitePoset.from_leq([1, 2, 4], divides)
    q = FinitePoset.from_leq([4, 2, 1], divides)
    assert p == q
    r = FinitePoset.from_leq([1, 2, 5], divides)
    assert p != r


def test_lattice_meets_and_joins():
    lat = FinitePoset.from_leq([1, 2, 3, 6], divides)
    two, three, six = lat.index(2), lat.index(3), lat.index(6)
    assert lat.elements[greatest_lower_bound(lat, two, three)] == 1
    assert lat.elements[least_upper_bound(lat, two, three)] == 6
    assert greatest_lower_bound(lat, six, two) == two
    assert lat.join_irreducible_indices() == (two, three)


@st.composite
def divisor_subsets(draw):
    values = draw(
        st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8)
    )
    return sorted(values)


@given(divisor_subsets())
def test_random_subposets_are_consistent(values):
    p = FinitePoset.from_leq(values, divides)
    # covers regenerate the full order by transitivity
    reach = {x: {x} for x in values}
    changed = True
    while changed:
        changed = False
        for a, b in p.cover_pairs():
            for src, seen in reach.items():
                if a in seen and b not in seen:
                    seen.add(b)
                    changed = True
    for x in values:
        for y in values:
            assert p.leq(x, y) == (y in reach[x])
    for i in range(p.n):
        assert p.lower_cover_indices(i) == tuple(a for a, b in p.cover_index_pairs() if b == i)
        assert p.upper_cover_indices(i) == tuple(b for a, b in p.cover_index_pairs() if a == i)


@given(divisor_subsets())
def test_downsets_are_exactly_down_closed_sets(values):
    # descending, so index order is no linear extension
    p = FinitePoset.from_leq(values[::-1], divides)
    naive = [
        mask
        for mask in range(1 << p.n)
        if all(
            not (mask >> i & 1) or (mask & p.down_mask(i)) == p.down_mask(i)
            for i in range(p.n)
        )
    ]
    assert p.downset_masks() == tuple(sorted(naive, key=lambda m: (bin(m).count("1"), m)))


@st.composite
def distinct_masks(draw):
    # two 5-bit fields, the high one far out, so that comparable pairs are
    # common and the masks are also wide ints
    wide = draw(st.sampled_from([5, 4000]))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            unique=True,
            max_size=16,
        )
    )
    return [low | high << wide for low, high in pairs]


@given(distinct_masks())
def test_from_masks_matches_inclusion_through_from_leq(masks):
    elements = [f"e{i}" for i in range(len(masks))]
    mask_of = dict(zip(elements, masks))
    p = FinitePoset.from_masks(elements, masks)
    q = FinitePoset.from_leq(elements, lambda x, y: mask_of[x] & ~mask_of[y] == 0)
    assert p.elements == q.elements
    assert [p.down_mask(i) for i in range(p.n)] == [q.down_mask(i) for i in range(q.n)]
    assert p.cover_index_pairs() == q.cover_index_pairs()


def transposed(rows):
    """Naive bit-matrix transpose of square order rows."""
    return tuple(
        sum(1 << j for j in range(len(rows)) if rows[j] >> i & 1)
        for i in range(len(rows))
    )


@st.composite
def bit_rows(draw):
    """A width in 0..20 and up to 12 rows of that width, some of them all
    zero; `_transpose` pads rows wider than 8 bits to 2 or 3 bytes."""
    width = draw(st.integers(0, 20))
    row = st.integers(0, (1 << width) - 1)
    return width, draw(st.lists(st.one_of(st.just(0), row), max_size=12))


@given(bit_rows())
def test_transpose_matches_a_naive_transpose(case):
    width, rows = case
    naive = [sum(1 << i for i, r in enumerate(rows) if r >> c & 1) for c in range(width)]
    assert posets._transpose(rows, width) == naive


@st.composite
def narrow_or_wide_masks(draw):
    # Up to 64 masks of at most 6, 12 or 20 bits take the column path of
    # `from_masks` once the count N has N*N above 64 per bit (N >= 20, 28
    # and 36 at full width), and the pairwise path below that.  At 12 and
    # 20 bits the column path mostly sees more than 8 and more than 16
    # distinct columns, so it looks each element up in more than two and
    # more than four slices of 4 columns.  `distinct_masks` gives masks
    # wider than their count.
    if draw(st.booleans()):
        bits = draw(st.sampled_from([6, 12, 20]))
        size = draw(st.integers(0, 64))
        return draw(
            st.lists(st.integers(0, (1 << bits) - 1), unique=True, min_size=size, max_size=size)
        )
    return draw(distinct_masks())


@given(narrow_or_wide_masks(), st.randoms(use_true_random=False))
def test_order_rows_of_both_from_masks_paths_match_from_leq(masks, rng):
    elements = [f"e{i}" for i in range(len(masks))]
    mask_of = dict(zip(elements, masks))
    p = FinitePoset.from_masks(elements, masks)
    q = FinitePoset.from_leq(elements, lambda x, y: mask_of[x] & ~mask_of[y] == 0)
    assert (p._down, p._up) == (q._down, q._up)
    # a shuffled subset, so that `induced` renumbers as well as restricts
    kept = rng.sample(range(len(masks)), rng.randint(0, len(masks)))
    r = p.induced(kept)
    ref = FinitePoset.from_leq(
        [elements[i] for i in kept], lambda x, y: mask_of[x] & ~mask_of[y] == 0
    )
    assert (r._down, r._up) == (ref._down, ref._up)
    for poset in (p, q, r):
        assert poset._up == transposed(poset._down)


@pytest.mark.parametrize("bits, columns", [(12, 8), (20, 16)])
def test_column_path_past_8_and_16_distinct_columns(bits, columns):
    """Seeded masks with more than 8 (16) distinct bit columns."""
    rng = random.Random(bits)
    masks = rng.sample(range(1 << bits), 40)
    assert len(set(posets._transpose(masks, bits))) > columns
    p = FinitePoset.from_masks(range(40), masks)
    q = FinitePoset.from_leq(range(40), lambda x, y: masks[x] & ~masks[y] == 0)
    assert (p._down, p._up) == (q._down, q._up)


def test_small_posets_take_the_pairwise_path(monkeypatch):
    """The 7 unary tables (6 bits) and the 13 subalgebras of S^2 (9 bits)
    cost less pairwise than one slice of 4 columns, so they never reach the
    column path; the 35 binary tables (18 bits) do."""
    unary = [t.order_mask for t in homsets.clone_closure(1).tables()]
    subalgebras = [r.mask for r in enumerate_subalgebras().elements]
    binary = [t.order_mask for t in homsets.clone_closure(2).tables()]
    calls = []
    flags = posets._flags  # read by the column path only, once per column
    monkeypatch.setattr(posets, "_flags", lambda bits, count: calls.append(count) or flags(bits, count))
    for masks, column_path in ((unary, False), (subalgebras, False), (binary, True)):
        calls.clear()
        p = FinitePoset.from_masks(range(len(masks)), masks)
        q = FinitePoset.from_leq(range(len(masks)), lambda x, y: masks[x] & ~masks[y] == 0)
        assert (p._down, p._up) == (q._down, q._up)
        assert bool(calls) == column_path, len(masks)


@st.composite
def shuffled_orders(draw):
    """A random order on 0..n-1 (its edges go up in label), listed in a
    shuffled order, so that index order is seldom a linear extension."""
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    above = [{x} for x in range(n)]
    for (a, b), edge in reversed(list(zip(pairs, edges))):
        if edge:
            above[a] |= above[b]
    return draw(st.permutations(range(n))), above


@given(shuffled_orders())
def test_covers_match_the_transitive_reduction(case):
    labels, above = case
    p = FinitePoset.from_leq(labels, lambda x, y: y in above[x])
    leq = p.leq_by_index
    reduction = tuple(
        (j, i)
        for j in range(p.n)
        for i in range(p.n)
        if j != i
        and leq(j, i)
        and not any(k not in (i, j) and leq(j, k) and leq(k, i) for k in range(p.n))
    )
    assert p.cover_index_pairs() == reduction
    for i in range(p.n):
        assert p.lower_cover_indices(i) == tuple(j for j, k in reduction if k == i)
        assert p.upper_cover_indices(i) == tuple(k for j, k in reduction if j == i)


def _ji_by_covers(p: FinitePoset) -> tuple[int, ...]:
    """The oracle: join-irreducibles as the elements with one lower cover."""
    return tuple(i for i in range(p.n) if len(p.lower_cover_indices(i)) == 1)


@st.composite
def drawn_posets(draw):
    """Inclusion of distinct drawn masks, or an induced subposet of the
    binary hom-set lattice or of the 3-dimensional hairy cube."""
    source = draw(st.sampled_from(["masks", "chi", "cube"]))
    if source == "masks":
        masks = draw(narrow_or_wide_masks())
        return FinitePoset.from_masks(range(len(masks)), masks)
    whole = chi_lattice(2) if source == "chi" else hairy_cube_recursive(3)
    return whole.induced(sorted(draw(st.sets(st.integers(0, whole.n - 1)))))


@given(drawn_posets())
def test_join_irreducibles_match_the_one_lower_cover_oracle(p):
    assert p.join_irreducible_indices() == _ji_by_covers(p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_join_irreducibles_of_whole_hom_set_lattices(n):
    lat = chi_lattice(n)
    assert lat.join_irreducible_indices() == _ji_by_covers(lat)
    assert len(lat.join_irreducible_indices()) == 2 ** (n + 1)


def test_from_masks_rejects_equal_masks():
    with pytest.raises(ValueError):
        FinitePoset.from_masks("abc", [1, 3, 1])
    with pytest.raises(ValueError):
        FinitePoset.from_masks("ab", [0, 1, 3])  # one mask too many


def test_lattice_from_masks_is_a_lattice():
    lat = FinitePoset.from_masks("0abt", [0b00, 0b01, 0b10, 0b11])
    assert type(lat) is FinitePoset
    assert lat.elements[least_upper_bound(lat, 1, 2)] == "t"
    assert lat.elements[greatest_lower_bound(lat, 1, 2)] == "0"
    assert lat.join_irreducible_indices() == (1, 2)


def _closure(triples, mask):
    """The least superset of mask closed under the triples, by rounds over all of them."""
    while True:
        more = mask
        for i, j, k in triples:
            if mask >> i & mask >> j & 1:
                more |= 1 << k
        if more == mask:
            return mask
        mask = more


@st.composite
def closure_systems(draw):
    size = draw(st.integers(0, 10))
    index = st.integers(0, max(size - 1, 0))
    triples = draw(st.lists(st.tuples(index, index, index), max_size=30)) if size else []
    return size, triples, draw(st.integers(0, (1 << size) - 1))


@given(closure_systems())
def test_closed_sets_are_the_brute_force_filter_in_mask_order(case):
    size, triples, start = case
    listed = list(posets.closed_sets(posets._partners(size, triples), start))
    assert listed == [m for m in range(1 << size)
                      if m & start == start and _closure(triples, m) == m]
    assert listed[0] == _closure(triples, start)
