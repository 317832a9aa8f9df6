"""The package's public surface: every name in `raketab.__all__` resolves.

The benchmark's traced run wraps each listed name with `getattr`, so a
name left in `__all__` after its function is deleted would break it.
"""

import raketab as rt


def test_all_names_resolve_once():
    assert len(set(rt.__all__)) == len(rt.__all__)
    missing = [name for name in rt.__all__ if not hasattr(rt, name)]
    assert missing == []
