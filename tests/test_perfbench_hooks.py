"""The benchmark's hooks into the package still resolve.

``perfbench/tracer.py`` patches every function named in its ``TRACED``
table, and ``perfbench/reference.py`` imports library names directly.
A deleted or renamed name, or a changed call pattern of the chain,
would otherwise show up only as a crash of a traced benchmark run.
Both files are loaded by path, so nothing under ``perfbench/`` needs
to be importable as a package.
"""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

from wgqed.detection import solve_emitter

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


WORKER = load("worker")
ROOT = PERFBENCH.parent


def test_traced_demo_baseline_runs():
    # what a ``run.py --trace 1`` run opens with: one traced level shift
    # on the demo emitter and the traced chain against the plain one,
    # after importing every layer the tracer patches, as run.py does
    import wgqed.cli  # noqa: F401

    baseline, overhead = WORKER._demo_baseline()
    assert set(baseline) == {"coupling_at_calls", "integrate_calls",
                             "pv_integrate_calls", "quadrature_nodes",
                             "gl_nodes_cache_hits"}
    assert math.isfinite(overhead)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_ops_pass_the_benchmark_check(seed):
    # every op of a sweep run, through the worker's own prepare, run
    # and check: decay rate, the level shift against QUADPACK, the pole
    sweep = WORKER.Sweep(None)
    for op in WORKER.inputs.ops("sweep", seed, 20.0, ROOT):
        cfg = sweep.prepare(op)
        assert sweep.check(cfg, sweep.run(cfg)) == 0, op["omega"]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_figure_op_passes_the_benchmark_check(tmp_path, out_format):
    # one corr figure op in each format: row count, the artifact parses
    # and the fitted slopes match the exact rates
    figure = WORKER.Figure(tmp_path)
    op = next(op for op in WORKER.inputs.ops("figure", 1, 20.0, ROOT)
              if op["format"] == out_format)
    prepared = figure.prepare(op)
    assert figure.check(prepared, figure.run(prepared)) > 0
    assert not list(tmp_path.glob("corr.*"))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_chain_is_the_product_chain(seed):
    # the worker's private decay -> window -> shift -> pole chain gives
    # the records of the chain ``RunConfig.correlation`` runs
    sweep = WORKER.Sweep(None)
    for op in WORKER.inputs.ops("sweep", seed, 20.0, ROOT):
        cfg = sweep.prepare(op)
        decay, shift, res = WORKER._sweep_chain(cfg)
        sol = solve_emitter(cfg.waveguide_spec(), cfg.atom(), cfg.box(),
                            cfg.dos, cfg.radicand, max_index=cfg.max_mn,
                            window=cfg.shift_window)
        assert (decay, shift, res) == (sol.decay, sol.shift, sol.pole), (
            op["omega"])
