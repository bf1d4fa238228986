"""The package's public names."""

import montesinos


def test_all_names_are_unique_and_resolve():
    names = montesinos.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(montesinos, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from montesinos import *", namespace)
    assert set(montesinos.__all__) <= namespace.keys()
