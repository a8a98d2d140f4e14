"""The package's public names are its modules' ``__all__`` lists, once each."""

import ladsysid
from ladsysid import cert, errors, harness, matgen, solver, threshold

MODULES = (errors, matgen, solver, cert, threshold, harness)


def test_all_is_the_modules_lists_in_order():
    assert ladsysid.__all__ == ["__version__", *(n for mod in MODULES for n in mod.__all__)]
    assert len(set(ladsysid.__all__)) == len(ladsysid.__all__)
    assert "EstimatorRun" in ladsysid.__all__


def test_each_name_is_the_object_its_module_defines():
    for mod in MODULES:
        for name in mod.__all__:
            obj = vars(mod)[name]
            assert getattr(ladsysid, name) is obj
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from ladsysid import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(ladsysid.__all__)
