"""The package's public names: every exported name resolves."""

import fragma


def test_every_exported_name_resolves():
    missing = [name for name in fragma.__all__ if not hasattr(fragma, name)]
    assert missing == []
    assert len(set(fragma.__all__)) == len(fragma.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fragma import *", namespace)
    assert set(fragma.__all__) <= set(namespace)
