"""The package's public names."""

import shiftbnn


def test_every_exported_name_resolves():
    assert [name for name in shiftbnn.__all__ if not hasattr(shiftbnn, name)] == []
    assert len(set(shiftbnn.__all__)) == len(shiftbnn.__all__)


def test_star_import():
    namespace = {}
    exec("from shiftbnn import *", namespace)
    assert set(shiftbnn.__all__) <= set(namespace)
