"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` patches every function named in its ``TRACED``
table, and ``perfbench/reference.py`` imports library names directly.
A deleted or renamed name would otherwise show up only as a crash of
a traced benchmark run. Both files are loaded by path, so nothing
under ``perfbench/`` needs to be importable as a package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load("tracer").TRACED


@pytest.mark.parametrize("modname,attr", TRACED,
                         ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_is_a_package_function(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        # the tracer patches the class attribute itself
        cls_name, meth = attr.split(".")
        fn = vars(getattr(module, cls_name))[meth]
    else:
        fn = getattr(module, attr)
    assert inspect.isfunction(fn)
    assert fn.__module__.startswith("wgqed.")


def test_reference_imports_cleanly():
    reference = load("reference")
    assert callable(reference.check_shift)
