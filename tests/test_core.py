"""Element arithmetic and table plumbing."""

import random
from itertools import chain, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hairycube.core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    TritTable,
    ZERO,
    all_tuples,
    bar,
    complement_upper,
    join,
    meet,
    nu_term,
    mask_codes,
    order_masks,
    planes,
    _constant_masks,
    codes_text,
    semiring_add,
    tuple_bar,
    tuple_index,
    tuple_join,
    tuple_meet,
)
from hairycube.cube import JIElement
from hairycube.homsets import assemble, slice_first

elements = st.sampled_from(ELEMENTS)


def tuple_leq(x, y):
    """The pointwise order on entry tuples: the oracle for `TritTable.leq`."""
    return all(a <= b for a, b in zip(x, y))


def test_element_order_and_str():
    assert ZERO < H < ONE
    assert [str(e) for e in ELEMENTS] == ["0", "h", "1"]
    assert [Element.from_char(c) for c in "0h1"] == list(ELEMENTS)
    with pytest.raises(ValueError):
        Element.from_char("x")


def test_meet_join_are_min_max():
    for a, b in product(ELEMENTS, repeat=2):
        assert meet(a, b) == min(a, b)
        assert join(a, b) == max(a, b)


def test_bar_values():
    assert [bar(e) for e in ELEMENTS] == [ONE, ONE, H]


def test_bar_via_upper_complement():
    # bar is the complement of x v h inside the two-element interval [h, 1]
    for x in ELEMENTS:
        assert bar(x) == complement_upper(join(x, H))
    with pytest.raises(ValueError):
        complement_upper(ZERO)


def test_l1_l2_exhaustive():
    for x in ELEMENTS:
        assert join(x, bar(x)) == ONE
        assert meet(x, bar(x)) == meet(x, bar(ONE))


def test_semiring_add_table():
    add = {
        (ZERO, ZERO): ZERO, (ZERO, H): H, (ZERO, ONE): ONE,
        (H, ZERO): H, (H, H): H, (H, ONE): ONE,
        (ONE, ZERO): ONE, (ONE, H): ONE, (ONE, ONE): H,
    }
    for (a, b), c in add.items():
        assert semiring_add(a, b) == c


@given(elements, elements)
def test_add_commutative_and_join_identity(a, b):
    assert semiring_add(a, b) == semiring_add(b, a)
    assert join(a, b) == semiring_add(semiring_add(a, b), meet(a, b))


@given(elements)
def test_bar_is_one_plus_x(x):
    assert bar(x) == semiring_add(ONE, x)


@given(elements, elements, elements)
def test_add_associative(a, b, c):
    assert semiring_add(semiring_add(a, b), c) == semiring_add(a, semiring_add(b, c))


def test_nu_term_is_near_unanimity():
    for x, z in product(ELEMENTS, repeat=2):
        assert nu_term(x, x, z) == x
        assert nu_term(x, z, x) == x
        assert nu_term(z, x, x) == x
    assert nu_term(ZERO, H, ONE) == H


@given(elements, elements, elements)
def test_distributivity(x, y, z):
    assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
    assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))


def test_tuple_helpers():
    x = (ZERO, H, ONE)
    y = (ONE, ZERO, ONE)
    assert tuple_meet(x, y) == (ZERO, ZERO, ONE)
    assert tuple_join(x, y) == (ONE, H, ONE)
    assert tuple_bar(x) == (ONE, ONE, H)
    assert tuple_leq(x, (ZERO, ONE, ONE))
    assert not tuple_leq(y, x)


def test_all_tuples_canonical_order():
    assert all_tuples(1) == ((ZERO,), (H,), (ONE,))
    pairs = all_tuples(2)
    assert len(pairs) == 9
    assert pairs[0] == (ZERO, ZERO)
    assert pairs[-1] == (ONE, ONE)
    for i, t in enumerate(all_tuples(3)):
        assert tuple_index(t) == i


def test_order_masks_of_points_are_their_planes():
    """Read off all of S^k in one pass, each point's mask is its two planes
    side by side, ge_h above ge_1, so `&` and `|` are componentwise min and
    max; the constant points are `_constant_masks`."""
    for k in (1, 2, 3):
        points = all_tuples(k)
        masks = order_masks(bytes(chain.from_iterable(points)), k)
        assert masks == [ge_h << k | ge_1 for ge_h, ge_1 in map(planes, points)]
        at = dict(zip(points, masks))
        assert _constant_masks(k) == tuple(at[(c,) * k] for c in ELEMENTS)
        for p in points:
            assert all(at[tuple(map(f, p, q))] == g(at[p], at[q])
                       for q in points for f, g in ((min, int.__and__), (max, int.__or__)))


@st.composite
def code_runs(draw):
    """A width (the powers of 3 that tables have, and any other up to 30,
    so 2 * width is not always a multiple of 8) and 0 to 12 runs of that
    many entry codes."""
    width = draw(st.sampled_from([1, 3, 9, 27]) | st.integers(min_value=1, max_value=30))
    run = st.lists(st.integers(min_value=0, max_value=2), min_size=width, max_size=width)
    return width, draw(st.lists(run.map(bytes), max_size=12))


@given(code_runs())
@example((4, []))  # an empty blob
@example((3, [b"\0\1\2"]))
def test_order_masks_and_mask_codes_match_the_tables(case):
    """The one-pass reader and writer against a run at a time: `planes`
    side by side, and each code read off the mask's two bits; at a width
    3^n, against `TritTable.order_mask` and `TritTable._codes`."""
    width, runs = case
    masks = order_masks(b"".join(runs), width)
    assert masks == [planes(r)[0] << width | planes(r)[1] for r in runs]
    assert mask_codes(masks, width) == runs
    assert runs == [bytes((m >> width + i & 1) + (m >> i & 1) for i in range(width))
                    for m in masks]
    arity = {1: 0, 3: 1, 9: 2, 27: 3}.get(width)
    if arity is not None:
        assert masks == [TritTable(r).order_mask for r in runs]
        assert runs == [TritTable.from_order_mask(arity, m)._codes() for m in masks]


def test_table_construction_and_call():
    ident = TritTable.projection(1, 1)
    assert str(ident) == "0h1"
    assert ident(H) == H
    c = TritTable.constant(2, H)
    assert str(c) == "hhhhhhhhh"
    with pytest.raises(ValueError):
        TritTable.projection(2, 3)
    with pytest.raises(ValueError):
        TritTable((ZERO, H))  # wrong entry count


def table_from_function(arity, fn):
    """The table of `fn` on every argument tuple, in canonical order."""
    return TritTable(fn(*args) for args in all_tuples(arity))


def test_table_from_function_matches_pointwise():
    t = table_from_function(2, meet)
    for a, b in product(ELEMENTS, repeat=2):
        assert t(a, b) == meet(a, b)


def test_table_string_roundtrip():
    t = TritTable.from_string("0h1hh1111")
    assert t.arity == 2
    assert str(t) == "0h1hh1111"
    with pytest.raises(ValueError):
        TritTable.from_string("0h")  # not a power of 3


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(elements, min_size=3 ** n, max_size=3 ** n))))
def test_table_arity_is_read_off_the_entry_count(case):
    n, x = case
    t = TritTable(x)
    assert (t.arity, t.entries) == (n, tuple(x))
    assert TritTable.from_string(str(t)) == t


@pytest.mark.parametrize("count", [0, 2, 4, 10])
def test_table_refuses_an_entry_count_off_the_powers_of_three(count):
    with pytest.raises(ValueError, match="not a power of 3"):
        TritTable((ZERO,) * count)
    with pytest.raises(ValueError, match="not a power of 3"):
        TritTable.from_string("0" * count)


table_entries = st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.tuples(*([st.sampled_from(ELEMENTS)] * (3 ** n)))
)


@given(table_entries)
def test_table_pointwise_ops(entries):
    n = 1 if len(entries) == 3 else 2
    t = TritTable(entries)
    other = TritTable.constant(n, H)
    assert t.meet_h().entries == t.meet(other).entries
    for args in all_tuples(n):
        assert t.meet(other)(*args) == meet(t(*args), H)
        assert t.join(other)(*args) == join(t(*args), H)
        assert t.bar()(*args) == bar(t(*args))
    assert t.leq(t)
    assert t.meet_h().leq(t)


def test_table_arity_mismatch():
    with pytest.raises(ValueError):
        TritTable.projection(1, 1).meet(TritTable.projection(2, 1))
    with pytest.raises(ValueError):
        TritTable.projection(2, 1)(ZERO)


def entry_tuples(n):
    return st.tuples(*([elements] * 3 ** n))


@st.composite
def table_pairs(draw):
    """Two entry tuples of one arity in 0..3; the second shares a prefix
    with the first, and is sometimes pushed above it, so that order and
    lexicographic comparison see more than the first entry."""
    n = draw(st.integers(min_value=0, max_value=3))
    x, y = draw(entry_tuples(n)), draw(entry_tuples(n))
    k = draw(st.integers(min_value=0, max_value=len(x)))
    y = x[:k] + y[k:]
    if draw(st.booleans()):
        y = tuple_join(x, y)
    return n, x, y


@given(table_pairs())
def test_table_planes_match_tuple_oracle(case):
    n, x, y = case
    a, b = TritTable(x), TritTable(y)
    # built from entries, from planes, and from the bytes of entry codes
    for t in (a, TritTable.from_planes(n, a.ge_h, a.ge_1), TritTable(bytes(x))):
        assert t.entries == x
        assert str(t) == "".join(str(e) for e in x) == "".join(str(e) for e in t.entries)
        assert TritTable.from_string(str(t)) == t
    c = a.meet(b)
    assert c.entries == c.entries and str(c) is str(c)  # str() is memoised
    assert c.entries == tuple_meet(x, y)
    assert a.join(b).entries == tuple_join(x, y)
    assert a.bar().entries == tuple_bar(x)
    assert a.meet_h().entries == tuple_meet(x, (H,) * len(x))
    assert a.leq(b) == tuple_leq(x, y)
    assert b.leq(a) == tuple_leq(y, x)
    for args in all_tuples(n):
        assert a(*args) == x[tuple_index(args)]
    assert (a == b) == (x == y)
    if x == y:
        assert hash(a) == hash(b)
    assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)


tables = st.integers(min_value=0, max_value=2).flatmap(
    lambda n: entry_tuples(n).map(TritTable))


@given(tables, tables)
def test_table_equality_and_hash_contract(a, b):
    """Tables are equal iff their arities and entries are; equal tables hash
    equal, to the hash of (arity, ge_h, ge_1); no other class compares equal."""
    assert (a == b) == ((a.arity, a.entries) == (b.arity, b.entries)) == (not a != b)
    if a == b:
        assert hash(a) == hash(b)
    assert hash(a) == hash((a.arity, a.ge_h, a.ge_1))
    assert (a <= b) == (a < b or a == b) and (a >= b) == (not a < b)
    for other in (JIElement(a, (), True), a.entries, str(a), (a.arity, a.ge_h, a.ge_1)):
        assert a.__eq__(other) is NotImplemented
        assert a != other and not other == a


def test_tables_of_different_arities_are_unequal():
    a, b = TritTable.constant(1, ZERO), TritTable.constant(2, ZERO)
    assert (a.ge_h, a.ge_1) == (b.ge_h, b.ge_1)
    assert a != b and len({a, b}) == 2 and a < b


@pytest.mark.parametrize("n", range(4, 8))
def test_wide_table_decode_matches_calls(n):
    """`entries` and `str()` of wide tables against per-entry calls: the
    three constants, random planes, and random planes whose last k entries
    are 0, so that the leading hex digits of the decode are padding."""
    width, rng = 3 ** n, random.Random(n)
    cases = [(t.ge_h, t.ge_1) for t in (TritTable.constant(n, v) for v in ELEMENTS)]
    for k in (0, 0, 1, 2, 5, width // 2, width - 1, width):
        keep = (1 << width - k) - 1
        ge_h = rng.getrandbits(width) & keep
        cases.append((ge_h, ge_h & rng.getrandbits(width)))
    for ge_h, ge_1 in cases:
        t = TritTable.from_planes(n, ge_h, ge_1)
        calls = tuple(t(*args) for args in all_tuples(n))
        assert t.entries == calls
        assert str(t) == "".join(map(str, calls))
    for v in ELEMENTS:
        assert TritTable.constant(n, v).entries == (v,) * width


def _decoded(t: TritTable) -> str:
    """The text of t's planes, read past its memo."""
    return codes_text(t._codes())


@pytest.mark.parametrize("n", range(0, 5))
def test_built_tables_keep_the_text_they_are_built_from(n):
    for v in ELEMENTS:
        c = TritTable.constant(n, v)
        assert c._text is not None and str(c) == _decoded(c) == str(v) * 3 ** n
    text = "".join(random.Random(n).choice("0h1") for _ in range(3 ** n))
    t = TritTable.from_string(text)
    assert str(t) is text and _decoded(t) == text


# Three slices of one arity, each built from its text (memo kept) or from
# its entries (no memo until str() is called).
slice_triples = st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.tuples(*[st.tuples(entry_tuples(n), st.booleans())] * 3))


@given(slice_triples)
def test_assemble_and_meet_h_memos_are_the_plane_decode(triple):
    slices = [TritTable.from_string("".join(map(str, x))) if kept else TritTable(x)
              for x, kept in triple]
    glued = assemble(*slices)
    assert (glued._text is not None) == all(kept for _, kept in triple)
    for t in (glued, *slices):
        h = t.meet_h()
        assert (h._text is None) == (t._text is None)
        for u in (t, h):
            if u._text is not None:
                assert u._text == _decoded(u)
    assert assemble(*(s.meet_h() for s in slices)) == glued.meet_h()
    assert str(glued) == _decoded(glued) == "".join(map(str, slices))


@given(st.lists(
    st.integers(min_value=0, max_value=2).flatmap(lambda n: st.tuples(st.just(n), entry_tuples(n))),
    max_size=8,
))
def test_table_sort_is_lexicographic(cases):
    tables = [TritTable(entries) for _, entries in cases]
    assert [(t.arity, t.entries) for t in sorted(tables)] == sorted(cases)


@given(st.integers(min_value=1, max_value=3).flatmap(entry_tuples))
def test_slices_match_entry_slicing(x):
    n = {3: 1, 9: 2, 27: 3}[len(x)]
    t = TritTable(x)
    block = 3 ** (n - 1)
    slices = [slice_first(t, a) for a in ELEMENTS]
    assert [s.entries for s in slices] == [x[k * block : (k + 1) * block] for k in range(3)]
    assert assemble(*slices) == t
    assert assemble(*slices).entries == x
