"""The package namespace."""

import sumrips


def test_every_export_resolves():
    """A stale `__all__` entry would only fail on `from sumrips import *`."""
    missing = [name for name in sumrips.__all__ if not hasattr(sumrips, name)]
    assert not missing
    assert len(set(sumrips.__all__)) == len(sumrips.__all__)
