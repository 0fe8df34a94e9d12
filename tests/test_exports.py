"""The package namespace: every exported name resolves, and a star import
binds exactly the exported names."""

import padichyp


def test_every_exported_name_resolves():
    missing = [name for name in padichyp.__all__ if not hasattr(padichyp, name)]
    assert not missing
    assert len(set(padichyp.__all__)) == len(padichyp.__all__)


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from padichyp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(padichyp.__all__)
