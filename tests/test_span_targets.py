"""Every library name the benchmark's tracer wraps still exists.

`perfbench/spans.py` wraps library functions from outside; a renamed or
removed one makes a traced benchmark request fail.  This test loads that
file without installing anything, so the break shows in pytest instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if outer:  # a method: it must be defined on the class itself
        return owner is not None and attr in vars(owner)
    return getattr(owner, attr, None) is not None


def test_every_wrapped_target_resolves():
    spans = _load_spans()
    targets = [t[:2] for t in spans.SPAN_TARGETS] + [t[:2] for t in spans.COUNT_TARGETS]
    assert targets
    missing = [f"{m}.{p}" for m, p in targets if not _resolves(m, p)]
    assert missing == []


def test_every_traced_suite_exists():
    from hairycube.verify import SUITES

    assert set(_load_spans().VERIFY_SUITES) <= set(SUITES)
