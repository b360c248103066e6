"""The package's public API: every exported name exists."""

import nlslab


def test_every_exported_name_resolves_and_star_import_works():
    assert [name for name in nlslab.__all__ if not hasattr(nlslab, name)] == []
    assert len(set(nlslab.__all__)) == len(nlslab.__all__)
    namespace: dict = {}
    exec("from nlslab import *", namespace)
    assert set(nlslab.__all__) <= namespace.keys()
