"""Outside-in tracing of the hairycube layers.

`install` wraps the public functions of each library module in place, from
the benchmark's side: the library itself carries no instrumentation.  A
wrapped function records a span (name, start, end, parent) or, for the hot
table operations of `core`, only a call count.  Spans stay in memory in a
`Recorder` and are written out once, when the traced process ends.  `install`
returns the targets the library no longer has, so a traced request whose
instrumentation is lost fails instead of reading 0 for that layer.

`layer_metrics` turns the spans and counts of one request into the
per-layer metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

VERIFY_SUITES = (
    "barops", "nu", "subalgebras", "congruences", "homs-agree", "hairy-cube",
    "polynomials", "birkhoff", "optimality", "ftc", "classify", "entailment",
    "evaluation", "persistence",
)

# (name, unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("core.table_leq.calls", "count", "lower"),
    ("core.table_ops.calls", "count", "lower"),
    ("homsets.clone_closure.self_s", "s", "lower"),
    ("homsets.clone_closure.maps", "count", "higher"),
    ("homsets.filter.self_s", "s", "lower"),
    ("homsets.filter.calls", "count", "lower"),
    ("homsets.filter.pass_ratio", "ratio", "higher"),
    ("homsets.search.self_s", "s", "lower"),
    ("homsets.search.calls", "count", "lower"),
    ("homsets.search.maps", "count", "higher"),
    ("homsets.search.maps_per_s", "1/s", "higher"),
    ("posets.from_leq.self_s", "s", "lower"),
    ("posets.from_leq.pairs", "count", "lower"),
    ("posets.covers.self_s", "s", "lower"),
    ("posets.covers.count", "count", "higher"),
    ("posets.isomorphism.self_s", "s", "lower"),
    ("cube.recursive.self_s", "s", "lower"),
    ("cube.recursive.elements", "count", "higher"),
    ("cube.chi_lattice.self_s", "s", "lower"),
    ("cube.shape_check.self_s", "s", "lower"),
    ("duality.algebra_homs.self_s", "s", "lower"),
    ("duality.algebra_homs.calls", "count", "lower"),
    ("duality.evaluation.self_s", "s", "lower"),
    ("duality.entailment.self_s", "s", "lower"),
    ("relations.self_s", "s", "lower"),
    *((f"verify.{suite}.wall_s", "s", "lower") for suite in VERIFY_SUITES),
    ("render.payload.self_s", "s", "lower"),
    ("render.dumps.self_s", "s", "lower"),
    ("render.out_bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.wait_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def inside(self, name: str) -> bool:
        """Is a span of this name open around the current call?"""
        return any(self.spans[i][0] == name for i in self._stack)

    def span(self, name, fn, on_result=None, when=None):
        """Wrap fn so each call records a span; `when(args)` may skip calls
        that do no work, `on_result(rec, args, result)` adds counts."""
        rec, clock, spans, stack = self, time.perf_counter, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            entry = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(rec, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only bumps a count: for hot methods."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(children[i], start, end)
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def totals_by_name(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(self time, inclusive time) summed per span name."""
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for (name, start, end, _), t in zip(spans, self_times(spans)):
        own[name] += t
        inclusive[name] += end - start
    return own, inclusive


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced request; layers it did not run read 0."""
    own, inclusive = totals_by_name(dump["spans"])
    counts = defaultdict(float, dump["counts"])
    out = {name: 0.0 for name, _, _ in LAYER_METRICS}
    for name in out:
        if name.endswith(".self_s"):
            out[name] = own[name[: -len(".self_s")]]
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.wall_s"] = inclusive[f"verify.{suite}"]
    for key in (
        "core.table_leq.calls", "core.table_ops.calls", "homsets.clone_closure.maps",
        "homsets.filter.calls", "homsets.search.calls", "homsets.search.maps",
        "posets.from_leq.pairs", "posets.covers.count", "cube.recursive.elements",
        "duality.algebra_homs.calls", "render.out_bytes",
    ):
        out[key] = counts[key]
    out["homsets.filter.passed"] = counts["homsets.filter.passed"]
    out["homsets.search.wall_s"] = inclusive["homsets.search"]
    return out


def finish_ratios(m: dict[str, float]) -> dict[str, float]:
    """Ratios from summed counts; call after summing requests of a round."""
    m = dict(m)
    passed = m.pop("homsets.filter.passed", 0.0)
    search_wall = m.pop("homsets.search.wall_s", 0.0)
    calls = m["homsets.filter.calls"]
    m["homsets.filter.pass_ratio"] = passed / calls if calls else 0.0
    maps = m["homsets.search.maps"]
    m["homsets.search.maps_per_s"] = maps / search_wall if search_wall else 0.0
    return m


# ---- what gets wrapped -------------------------------------------------

def _count(key, amount):
    def hook(rec, args, result):
        rec.counts[key] += amount(args, result)
    return hook


def _filter_hook(rec, args, result):
    rec.counts["homsets.filter.calls"] += 1
    rec.counts["homsets.filter.passed"] += bool(result)


def _search_hook(rec, args, result):
    rec.counts["homsets.search.calls"] += 1
    rec.counts["homsets.search.maps"] += len(result)


def _outer_cube_hook(rec, args, result):
    # hairy_cube_recursive calls itself one dimension down: count the
    # elements of the outermost call only.
    if not rec.inside("cube.recursive"):
        rec.counts["cube.recursive.elements"] += result.n


def _dumps_hook(rec, args, result):
    rec.counts["render.out_bytes"] += len(result.encode("utf-8"))


def _covers_pending(args) -> bool:
    # cover_index_pairs memoises on the instance; only the first call works.
    return getattr(args[0], "_covers", None) is None


# (module, attribute path, span name, on_result, when)
SPAN_TARGETS = (
    ("hairycube.homsets", "clone_closure", "homsets.clone_closure",
     _count("homsets.clone_closure.maps", lambda a, r: len(r)), None),
    ("hairycube.homsets", "preserves_relation", "homsets.filter", _filter_hook, None),
    ("hairycube.homsets", "preserves_partial_op", "homsets.filter", _filter_hook, None),
    ("hairycube.homsets", "enumerate_homs_bruteforce", "homsets.search", _search_hook, None),
    ("hairycube.posets", "FinitePoset.from_leq", "posets.from_leq",
     _count("posets.from_leq.pairs", lambda a, r: r.n * r.n), None),
    ("hairycube.posets", "FinitePoset.cover_index_pairs", "posets.covers",
     _count("posets.covers.count", lambda a, r: len(r)), _covers_pending),
    ("hairycube.posets", "FinitePoset.isomorphism_to", "posets.isomorphism", None, None),
    ("hairycube.cube", "hairy_cube_recursive", "cube.recursive", _outer_cube_hook, None),
    ("hairycube.cube", "chi_lattice", "cube.chi_lattice", None, None),
    ("hairycube.cube", "verify_hairy_cube", "cube.shape_check", None, None),
    ("hairycube.cube", "pss_homeomorphism", "cube.shape_check", None, None),
    ("hairycube.duality", "algebra_homs", "duality.algebra_homs",
     _count("duality.algebra_homs.calls", lambda a, r: 1), None),
    ("hairycube.duality", "evaluation_map_check", "duality.evaluation", None, None),
    ("hairycube.duality", "entailment_lambda1", "duality.entailment", None, None),
    *(
        ("hairycube.relations", fn, "relations", None, None)
        for fn in (
            "relation", "inverse", "intersect", "is_subuniverse",
            "enumerate_subalgebras", "canonical_name", "enumerate_congruences",
            "meet_irreducible_congruences", "subuniverses_of_carrier",
            "irreducibility_index",
        )
    ),
    *(
        ("hairycube.render", fn, "render.payload", None, None)
        for fn in (
            "homset_payload", "homset_text", "subalgebras_payload", "subalgebras_dot",
            "congruences_payload", "congruences_dot", "chi_payload", "chi_dot",
            "hairy_cube_payload", "hairy_cube_dot",
        )
    ),
    ("hairycube.render", "dumps", "render.dumps", _dumps_hook, None),
)

# (module, attribute path, counter name): hot functions, counted only.  The
# pointwise tuple operations are counted rather than TritTable.meet/join/bar:
# those methods call them, and so does the clone closure directly on entries.
COUNT_TARGETS = (
    ("hairycube.core", "TritTable.leq", "core.table_leq.calls"),
    ("hairycube.core", "tuple_meet", "core.table_ops.calls"),
    ("hairycube.core", "tuple_join", "core.table_ops.calls"),
    ("hairycube.core", "tuple_bar", "core.table_ops.calls"),
)


def _library_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hairycube" or name.startswith("hairycube."))
    ]


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every module-level reference to `original`, including the
    copies made by `from .x import f` and the values of registry dicts
    such as `verify.SUITES` and `render.RENDERABLES`."""
    for mod in _library_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper
                    elif isinstance(v, tuple) and any(x is original for x in v):
                        value[k] = tuple(wrapper if x is original else x for x in v)


def _patch(module: str, path: str, make) -> bool:
    """Wrap module.path in place; False if the library has no such target."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if outer:  # a method: patch the class, keeping classmethods as such
        raw = vars(owner).get(attr) if owner is not None else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif raw is not None:
            setattr(owner, attr, make(raw))
        return raw is not None
    original = getattr(owner, attr, None)
    if original is not None:
        _replace_everywhere(original, make(original))
    return original is not None


def install(rec: Recorder) -> list[str]:
    """Wrap every target and return those the library no longer has."""
    import hairycube.cli  # noqa: F401  (pulls in every library module)

    missing = []
    for module, path, name, on_result, when in SPAN_TARGETS:
        make = lambda fn, n=name, h=on_result, w=when: rec.span(n, fn, h, w)  # noqa: E731
        if not _patch(module, path, make):
            missing.append(f"{module}.{path}")
    for module, path, name in COUNT_TARGETS:
        if not _patch(module, path, lambda fn, n=name: rec.counter(n, fn)):
            missing.append(f"{module}.{path}")
    suites = sys.modules["hairycube.verify"].SUITES
    for suite in VERIFY_SUITES:
        if suite in suites:
            _replace_everywhere(suites[suite], rec.span(f"verify.{suite}", suites[suite]))
        else:
            missing.append(f"hairycube.verify.SUITES[{suite!r}]")
    return missing
