"""The public namespace: every name in `__all__` resolves."""

import hairycube


def test_all_names_are_attributes():
    missing = [name for name in hairycube.__all__ if not hasattr(hairycube, name)]
    assert missing == []
