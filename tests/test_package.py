"""The package namespace: __all__ lists exactly what __init__ imports."""

import inspect

import cuspsums


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from cuspsums import *", namespace)
    assert [name for name in cuspsums.__all__ if name not in namespace] == []


def test_all_equals_the_public_imports():
    public = {name for name, obj in vars(cuspsums).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(cuspsums.__all__) == sorted(public | {"__version__"})
    assert len(set(cuspsums.__all__)) == len(cuspsums.__all__)
