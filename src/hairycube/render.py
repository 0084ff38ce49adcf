"""Deterministic JSON payloads and Graphviz DOT text for the key objects.

Everything here is a pure function of its arguments: no timestamps, no
environment lookups, stable ordering.  Writing the same object twice must
produce identical bytes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator

from . import cube, relations
from .core import codes_text

SCHEMA = 1


# json's text for the characters it escapes under ensure_ascii=False (controls,
# quote, backslash), for NaN and the infinities, and for its three constants
_ESCAPES = {i: f"\\u{i:04x}" for i in range(32)} | {
    8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r", 34: '\\"', 92: "\\\\"}
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}
_CONTAINERS = (dict, list, tuple)


def _scalar(value) -> str:
    """A value that is no string and no nonempty dict or list, as json writes it."""
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, (int, float)):
        text = (float.__repr__ if isinstance(value, float) else int.__repr__)(value)
        return _FLOATS.get(text, text)
    if isinstance(value, _CONTAINERS):
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_chunks(payload: dict) -> Iterator[str]:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\\n"` in pieces of at
    most one string each, escaping each distinct string once (json's indenting
    encoder escapes it at every occurrence).  A string that needs no escape
    goes out as itself between two quote chunks, never copied, so the
    document's table texts are the tables' own `str()` memos.  The pieces are
    made as they are read, in batches of 64 or more, so the document's whole
    list of pieces is never held.  Non-string keys raise TypeError once read.
    No `json` is imported: the tables above are its text."""
    out: list[str] = []

    @lru_cache(maxsize=None)
    def quoted(text: str) -> tuple[str, ...]:
        # str.isprintable raises TypeError on a key that is no string
        if not (str.isprintable(text) and '"' not in text and "\\" not in text):
            escaped = text.translate(_ESCAPES)
            if len(escaped) > len(text):  # each escape lengthens the text
                return (f'"{escaped}"',)
        return ('"', text, '"')

    def put(value, indent: str) -> bool:
        """Append the pieces of a scalar or string, or of a dict or list of at most
        64 of those, and return True; else append nothing and return False."""
        if not (value and isinstance(value, _CONTAINERS)):
            out.extend(quoted(value) if isinstance(value, str) else (_scalar(value),))
            return True
        if len(value) > 64:
            return False
        start, is_dict = len(out), isinstance(value, dict)
        inner, sep = indent + "  ", "{" if is_dict else "["
        for key, item in value.items() if is_dict else enumerate(value):
            if item and isinstance(item, _CONTAINERS):
                del out[start:]
                return False
            out.append(f"{sep}{inner}{''.join(quoted(key))}: " if is_dict else sep + inner)
            out.extend(quoted(item) if isinstance(item, str) else (_scalar(item),))
            sep = ","
        out.append(indent + ("}" if is_dict else "]"))
        return True

    def emit(value, indent: str) -> Iterator[list[str]]:
        """Append the pieces of a dict or list that `put` refuses; after an item
        that leaves 64 pieces or more in out, yield out and start a new one."""
        nonlocal out
        is_dict = isinstance(value, dict)
        inner, sep = indent + "  ", "{" if is_dict else "["
        for key, item in value.items() if is_dict else enumerate(value):
            out.append(f"{sep}{inner}{''.join(quoted(key))}: " if is_dict else sep + inner)
            if not put(item, inner):
                yield from emit(item, inner)
            sep = ","
            if len(out) >= 64:
                yield out
                out = []
        out.append(indent + ("}" if is_dict else "]"))

    def batches() -> Iterator[list[str]]:
        if not put(payload, "\n"):
            yield from emit(payload, "\n")
        yield [*out, "\n"]

    return chain.from_iterable(batches())


def dumps(payload: dict) -> str:
    """The whole document as one string; the command line writes the chunks."""
    return "".join(json_chunks(payload))


def _quote(label: str) -> str:
    """label as a DOT string: backslashes first, so a quote's escape stays whole."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _poset_dot(name: str, poset: FinitePoset, labels: list[str], filled=()) -> list[str]:
    """The Hasse diagram's lines, bottom up; the indices in `filled` are shaded."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for i, label in enumerate(labels):
        shade = ', style="filled", fillcolor="lightgrey"' if i in filled else ""
        lines.append(f"  n{i} [label={_quote(label)}{shade}];")
    lines.extend(f"  n{i} -> n{j};" for i, j in poset.cover_index_pairs())
    lines.append("}")
    return lines


def homset_payload(homset: HomSet, variant: str, method: str) -> dict:
    arity = homset.source.arity
    return {
        "schema": SCHEMA,
        "object": "hom-set",
        "arity": arity,
        "variant": variant,
        "method": method,
        "count": len(homset),
        "maps": [codes_text(m) for m in homset.maps],
    }


def homset_text(homset: HomSet, variant: str, method: str) -> list[str]:
    payload = homset_payload(homset, variant, method)
    lines = [
        f"hom-set: arity {payload['arity']}, variant {variant}, "
        f"{payload['count']} maps ({method})"
    ]
    lines.extend(payload["maps"])
    return lines


def _poset_payload(poset: FinitePoset, labels: list[str]) -> dict:
    return {
        "nodes": labels,
        "covers": [
            [labels[i], labels[j]] for i, j in poset.cover_index_pairs()
        ],
    }


def subalgebras_payload() -> dict:
    lat = relations.enumerate_subalgebras()
    return {
        "schema": SCHEMA,
        "object": "subalgebra-lattice",
        "count": len(lat.elements),
        "nodes": [
            {
                "name": relations.canonical_name(r),
                "size": len(r),
                "pairs": [f"({a},{b})" for a, b in r.pairs()],
            }
            for r in lat.elements
        ],
        "covers": [
            [relations.canonical_name(a), relations.canonical_name(b)] for a, b in lat.cover_pairs()
        ],
    }


def subalgebras_dot() -> list[str]:
    lat = relations.enumerate_subalgebras()
    return _poset_dot("subalgebras", lat, [relations.canonical_name(r) for r in lat.elements])


def congruences_payload() -> dict:
    lat = relations.enumerate_congruences()
    labels = [relations.canonical_name(c) for c in lat.elements]
    return {
        "schema": SCHEMA,
        "object": "congruence-lattice",
        "count": lat.n,
        **_poset_payload(lat, labels),
    }


def congruences_dot() -> list[str]:
    lat = relations.enumerate_congruences()
    return _poset_dot("congruences", lat, [relations.canonical_name(c) for c in lat.elements])


def chi_payload(n: int) -> dict:
    lat = cube.chi_lattice(n)
    ji = set(lat.join_irreducible_indices())
    labels = [str(t) for t in lat.elements]
    return {
        "schema": SCHEMA,
        "object": "hom-lattice",
        "arity": n,
        "count": lat.n,
        "join_irreducible": sorted(str(lat.elements[i]) for i in ji),
        **_poset_payload(lat, labels),
    }


def chi_dot(n: int) -> list[str]:
    lat = cube.chi_lattice(n)
    labels = [str(t) for t in lat.elements]
    return _poset_dot(f"hom_lattice_{n}", lat, labels, set(lat.join_irreducible_indices()))


def hairy_cube_payload(n: int) -> dict:
    poset = cube.hairy_cube_recursive(n)
    return {
        "schema": SCHEMA,
        "object": "hairy-cube",
        "dimension": n,
        "count": poset.n,
        "nodes": [
            {
                "table": str(e.table),
                "label": e.label,
                "kind": "base" if e.is_base else "hair",
            }
            for e in poset.elements
        ],
        "covers": [
            [str(a.table), str(b.table)] for a, b in poset.cover_pairs()
        ],
    }


def hairy_cube_dot(n: int) -> list[str]:
    poset = cube.hairy_cube_recursive(n)
    base = {i for i, e in enumerate(poset.elements) if e.is_base}
    return _poset_dot(f"hairy_cube_{n}", poset, [e.label for e in poset.elements], base)


RENDERABLES = {
    "chi": (chi_payload, chi_dot, True),
    "subalgebras": (subalgebras_payload, subalgebras_dot, False),
    "congruences": (congruences_payload, congruences_dot, False),
    "hairy-cube": (hairy_cube_payload, hairy_cube_dot, True),
}
