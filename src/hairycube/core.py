"""Carrier algebra of the three-element Boolean semiring S = {0, h, 1}.

The primary view is the bounded distributive chain 0 < h < 1 whose upper
interval [h, 1] is a two-element Boolean algebra.  `bar` is the derived
unary operation x |-> (x v h)' and `semiring_add` the derived addition
pulled back along the embedding of S into 2 x Z_2.  An operation table on
a power of S (`TritTable`) is stored as two bit planes over its canonical
argument positions, so pointwise meet, join, bar and order are integer
operations; the `tuple_*` helpers do the same on plain entry tuples.
`order_masks` and `mask_codes` turn joined entry codes into both planes in
one int and back, many tables or points at a time.
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache, total_ordering
from itertools import product
from typing import Collection, Iterable


class Element(IntEnum):
    """Carrier values; the int codes 0, 1, 2 realise the chain order."""

    ZERO = 0
    H = 1
    ONE = 2

    def __str__(self) -> str:
        return "0h1"[int(self)]

    @classmethod
    def from_char(cls, ch: str) -> "Element":
        try:
            return cls("0h1".index(ch))
        except ValueError:
            raise ValueError(f"unknown element character {ch!r}") from None


ZERO = Element.ZERO
H = Element.H
ONE = Element.ONE

ELEMENTS: tuple[Element, Element, Element] = (ZERO, H, ONE)


def meet(a: Element, b: Element) -> Element:
    return a if a <= b else b


def join(a: Element, b: Element) -> Element:
    return a if a >= b else b


def complement_upper(a: Element) -> Element:
    """Boolean complement inside the interval [h, 1]; undefined at 0."""
    if a == ZERO:
        raise ValueError("complement_upper is only defined on [h, 1]")
    return ONE if a == H else H


def bar(a: Element) -> Element:
    """Derived unary operation: the complement of a v h taken in [h, 1]."""
    return complement_upper(join(a, H))


def nu_term(x: Element, y: Element, z: Element) -> Element:
    """Ternary near-unanimity term xy + yz + xz, the median on the chain."""
    return join(join(meet(x, y), meet(y, z)), meet(x, z))


# S embeds into the product of the two-element lattice and the two-element
# Boolean ring via 0 -> (0,0), h -> (1,0), 1 -> (1,1).  Addition there is
# (or, xor); the image is closed under it, so addition pulls back.
_EMBED = {ZERO: (0, 0), H: (1, 0), ONE: (1, 1)}
_UNEMBED = {pair: elem for elem, pair in _EMBED.items()}


def semiring_add(a: Element, b: Element) -> Element:
    (p, q), (r, s) = _EMBED[a], _EMBED[b]
    return _UNEMBED[(p | r, q ^ s)]


_BAR = (ONE, ONE, H)  # bar by element code


# Module names only because perfbench/spans.py counts them; they go with ROADMAP item 1a.
def tuple_meet(x: tuple[Element, ...], y: tuple[Element, ...]) -> tuple[Element, ...]:
    return tuple(map(min, x, y))


def tuple_join(x: tuple[Element, ...], y: tuple[Element, ...]) -> tuple[Element, ...]:
    return tuple(map(max, x, y))


def tuple_bar(x: tuple[Element, ...]) -> tuple[Element, ...]:
    return tuple(_BAR[v] for v in x)


@lru_cache(maxsize=None)
def all_tuples(arity: int) -> tuple[tuple[Element, ...], ...]:
    """All of S^arity in canonical (big-endian code) order."""
    if arity < 0:
        raise ValueError("arity must be nonnegative")
    return tuple(product(ELEMENTS, repeat=arity))


def tuple_index(args: tuple[Element, ...]) -> int:
    """Canonical index of a tuple: first coordinate is the most significant trit."""
    idx = 0
    for a in args:
        idx = idx * 3 + int(a)
    return idx


# Byte translations between entry codes 0, 1, 2, bit planes and characters.
_GE_H_BIT = bytes.maketrans(b"\0\1\2", b"011")
_GE_1_BIT = bytes.maketrans(b"\0\1\2", b"001")
_HEX_CODES = bytes.maketrans(b"012", b"\0\1\2")
_CHARS = bytes.maketrans(b"\0\1\2", b"0h1")


def planes(codes) -> tuple[int, int]:
    """The (ge_h, ge_1) bit planes of a nonempty sequence of entry codes
    0, 1, 2: bit i is entry i."""
    bits = bytes(codes)[::-1]  # entry 0 becomes the lowest bit
    return int(bits.translate(_GE_H_BIT), 2), int(bits.translate(_GE_1_BIT), 2)


def order_masks(blob: bytes, width: int) -> list[int]:
    """The `TritTable.order_mask` of each run of width entry codes joined in
    blob (ge_h above ge_1, bit i of a plane entry i of the run), read in one
    pass.  On a point of S^k, width k, `&` and `|` are meet and join."""
    # Reversed, a run's codes go from its last entry down, so its ge_h bits
    # and then its ge_1 bits, read as one binary number, are its mask.
    rev = blob[::-1]
    ge_h, ge_1 = rev.translate(_GE_H_BIT), rev.translate(_GE_1_BIT)
    return [int(ge_h[i:i + width] + ge_1[i:i + width], 2) for i in range(0, len(rev), width)][::-1]


def mask_codes(masks: Collection[int], width: int) -> list[bytes]:
    """Each order mask's width entry codes (`TritTable._codes` on many
    tables), written in one pass in blocks of `step` bits: read as hex, bit
    i of a block is its nibble i, and ge_h added onto ge_1 is entry i's code."""
    step = 8 * -(-2 * width // 8)
    whole = int.from_bytes(b"".join([m.to_bytes(step // 8, "little") for m in masks]), "little")
    whole = int(format(whole, "b"), 16)
    codes = format(whole + (whole >> 4 * width), f"0{len(masks) * step}x")[::-1]
    codes = codes.encode().translate(_HEX_CODES)
    return [codes[i:i + width] for i in range(0, len(masks) * step, step)]


def _constant_masks(k: int) -> tuple[int, int, int]:
    """The order masks of the constant points 0, h and 1 of S^k."""
    full = (1 << k) - 1
    return 0, full << k, full << k | full


def codes_text(codes: bytes) -> str:
    """Entry codes 0, 1, 2 written as the characters 0, h, 1."""
    return codes.translate(_CHARS).decode("ascii")


class Frozen:
    """Base of the immutable value classes: `__init__` sets each slot once
    through `object.__setattr__`.  Equality and hash read the subclass's
    `_key()`, the tuple of its slots whose names do not start with an
    underscore, and repr shows those slots; instances of different classes
    are never equal."""

    __slots__ = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        """Set the slots, in their declared order, once."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


@total_ordering
class TritTable(Frozen):
    """Total map S^arity -> S, built from its 3^arity entries in canonical
    argument order and held as two bit planes over those positions: bit i of
    `ge_h` is set when entry i is h or 1, bit i of `ge_1` when it is 1.
    `entries` and `str()` are views decoded one hex nibble per entry, and
    `str()` is memoised.  The memo is also filled where the text is known
    without decoding: `from_string` and `constant` keep the text they are
    built from, `meet_h` maps 1 to h in its table's memo, and
    `homsets.assemble` joins its slices' memos, so the tables the hairy-cube
    glue builds never decode theirs.  Order is lexicographic on (arity, entries).
    Equality and hash read (arity, ge_h, ge_1) directly, being the hottest
    calls on tables (set and dict lookups)."""

    __slots__ = ("arity", "ge_h", "ge_1", "_text")

    def __init__(self, entries: Iterable[int]) -> None:
        codes = bytes(entries)
        arity = 0
        while 3 ** arity < len(codes):
            arity += 1
        if len(codes) != 3 ** arity:
            raise ValueError(f"{len(codes)} entries is not a power of 3")
        self._fill(arity, *planes(codes))

    def _fill(self, arity: int, ge_h: int, ge_1: int, text: str | None = None) -> None:
        set_slot = object.__setattr__
        set_slot(self, "arity", arity)
        set_slot(self, "ge_h", ge_h)
        set_slot(self, "ge_1", ge_1)
        set_slot(self, "_text", text)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ge_h == other.ge_h and self.ge_1 == other.ge_1 and self.arity == other.arity

    def __hash__(self) -> int:
        return hash((self.arity, self.ge_h, self.ge_1))

    @classmethod
    def from_planes(cls, arity: int, ge_h: int, ge_1: int, text: str | None = None) -> "TritTable":
        """The table with these planes; ge_1 must lie inside ge_h.  text, when
        given, is its `str()`, taken as the memo unchecked."""
        table = object.__new__(cls)
        table._fill(arity, ge_h, ge_1, text)
        return table

    @classmethod
    def constant(cls, arity: int, value: Element) -> "TritTable":
        full = (1 << 3 ** arity) - 1
        return cls.from_planes(arity, full if value >= H else 0, full if value == ONE else 0,
                               "0h1"[value] * 3 ** arity)

    @classmethod
    def projection(cls, arity: int, i: int) -> "TritTable":
        """The i-th projection, 1-based."""
        if not 1 <= i <= arity:
            raise ValueError(f"projection index {i} out of range for arity {arity}")
        return cls(args[i - 1] for args in all_tuples(arity))

    @classmethod
    def from_string(cls, text: str) -> "TritTable":
        table = cls(map(Element.from_char, text))
        object.__setattr__(table, "_text", str(text))
        return table

    def _codes(self) -> bytes:
        """One byte per entry, its code 0, 1 or 2, in canonical order: read as
        hex, a plane's binary string has bit i in nibble i, so hex digit i of
        the two planes' sum is entry i's code."""
        h, o = (int(format(p, "b"), 16) for p in (self.ge_h, self.ge_1))
        return format(h + o, f"0{3 ** self.arity}x")[::-1].encode().translate(_HEX_CODES)

    @property
    def entries(self) -> tuple[Element, ...]:
        return tuple(map(ELEMENTS.__getitem__, self._codes()))

    def __str__(self) -> str:
        if self._text is None:
            object.__setattr__(self, "_text", codes_text(self._codes()))
        return self._text

    def __repr__(self) -> str:
        return f"TritTable.from_string({str(self)!r})"

    def __lt__(self, other: "TritTable") -> bool:
        if not isinstance(other, TritTable):
            return NotImplemented
        if self.arity != other.arity:
            return self.arity < other.arity
        diff = (self.ge_h ^ other.ge_h) | (self.ge_1 ^ other.ge_1)
        # The first differing entry is the lowest differing bit; other's
        # entry there is the larger one when it sets a bit that self lacks.
        return bool(diff & -diff & (other.ge_h & ~self.ge_h | other.ge_1 & ~self.ge_1))

    def __call__(self, *args: Element) -> Element:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        i = tuple_index(args)
        return ELEMENTS[(self.ge_h >> i & 1) + (self.ge_1 >> i & 1)]

    def meet(self, other: "TritTable") -> "TritTable":
        self._same_arity(other)
        return TritTable.from_planes(self.arity, self.ge_h & other.ge_h, self.ge_1 & other.ge_1)

    def join(self, other: "TritTable") -> "TritTable":
        self._same_arity(other)
        return TritTable.from_planes(self.arity, self.ge_h | other.ge_h, self.ge_1 | other.ge_1)

    def bar(self) -> "TritTable":
        full = (1 << 3 ** self.arity) - 1
        return TritTable.from_planes(self.arity, full, full & ~self.ge_1)

    def meet_h(self) -> "TritTable":
        text = None if self._text is None else self._text.replace("1", "h")
        return TritTable.from_planes(self.arity, self.ge_h, 0, text)

    def leq(self, other: "TritTable") -> bool:
        self._same_arity(other)
        return not (self.ge_h & ~other.ge_h or self.ge_1 & ~other.ge_1)

    @property
    def order_mask(self) -> int:
        """Both planes in one int; within an arity, `leq` is mask inclusion."""
        return self.ge_h << 3 ** self.arity | self.ge_1

    @classmethod
    def from_order_mask(cls, arity: int, mask: int) -> "TritTable":
        """The table whose `order_mask` is mask."""
        width = 3 ** arity
        return cls.from_planes(arity, mask >> width, mask & (1 << width) - 1)

    def _same_arity(self, other: "TritTable") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
