"""The package's lazy export table (PEP 562)."""

from __future__ import annotations

import importlib
import subprocess

import pytest

import orderdim

from .test_cli import child

MODULES = {
    "check",
    "digraphs",
    "errors",
    "generate",
    "reduction",
    "relations",
    "rng",
    "selectors",
    "solvers",
}


def run_child(code: str) -> None:
    proc = child("-c", code, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()


def test_import_loads_no_submodule():
    run_child(
        "import sys, orderdim; "
        "loaded = [m for m in sys.modules if m.startswith('orderdim.')]; "
        "assert not loaded, loaded; "
        "assert orderdim.__version__ == '0.1.0'"
    )


def test_first_use_loads_only_the_defining_submodule():
    # rng imports nothing of orderdim, so SplitMix64 loads it alone
    run_child(
        "import sys, orderdim; orderdim.SplitMix64; "
        "loaded = {m for m in sys.modules if m.startswith('orderdim.')}; "
        "assert loaded == {'orderdim.rng'}, loaded"
    )


def test_every_export_is_its_submodule_attribute():
    assert set(orderdim._SUBMODULE.values()) == MODULES
    assert orderdim.__all__ == sorted(orderdim._SUBMODULE)
    for name in orderdim.__all__:
        module = importlib.import_module(f"orderdim.{orderdim._SUBMODULE[name]}")
        assert getattr(orderdim, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from orderdim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == orderdim.__all__
    for name, value in namespace.items():
        assert value is getattr(orderdim, name)


def test_dir_lists_every_export():
    listed = dir(orderdim)
    assert listed == sorted(listed)
    assert set(orderdim.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_names_raise_attribute_error():
    # Certificate and bits_of are defined in submodules but not exported
    for name in ("no_such_name", "Certificate", "bits_of"):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            getattr(orderdim, name)
        assert not hasattr(orderdim, name)


def test_version_is_a_plain_attribute():
    assert vars(orderdim)["__version__"] == orderdim.__version__
    assert isinstance(orderdim.__version__, str)
