"""The package's exported names."""

import carleman

DELETED = ("eval_closed_form", "mode_of", "scalar_abs")


def test_every_exported_name_imports():
    namespace = {}
    exec("from carleman import *", namespace)
    for name in carleman.__all__:
        assert getattr(carleman, name) is namespace[name]
    assert len(set(carleman.__all__)) == len(carleman.__all__)


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in carleman.__all__
        assert not hasattr(carleman, name)
        assert not hasattr(carleman.solver, name)
        assert not hasattr(carleman.scalars, name)
