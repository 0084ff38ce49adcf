"""The public namespace: every name in `__all__` resolves; the library
reads no environment, so its output depends on its arguments alone."""

from pathlib import Path

import hairycube

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hairycube").glob("*.py"))


def test_all_names_are_attributes():
    missing = [name for name in hairycube.__all__ if not hasattr(hairycube, name)]
    assert missing == []


def test_the_library_reads_no_environment():
    assert SOURCES
    readers = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []
