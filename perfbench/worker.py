"""Worker process of one benchmark run.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --tmp DIR --result PATH [--spans PATH]

Started by run.py with ``PYTHONPATH=src`` and numpy's BLAS pinned to
one thread. It runs the workload's ops closed loop, one at a time,
times each op, checks each op's output outside the timed region and
writes a JSON record to ``--result``. With ``--trace 1`` the ops run
under the span tracer and the record holds the per-layer aggregates,
the tracing overhead and, for the sweep, the per-``level_shift``
counts on the demo emitter.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402

SHIFT_REL_TOL = 1e-8       # QUADPACK agrees to <1e-9 at this commit
FIT_REL_TOL = 1e-6         # fitted slopes of exact exponentials
POLE_REL_TOL = 1e-12
CHILD_TIMEOUT_S = 150.0
CALIBRATION_REPEATS = 3
FIGURE_ROWS = math.prod(int(inputs.FIGURE_GRID[f"grid.{axis}_count"])
                        for axis in "xzt")


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


# --- sweep -----------------------------------------------------------

def _sweep_chain(cfg):
    # module attribute lookups, so that the tracer's patches apply
    from wgqed import detection, emission

    spec, atom, box = cfg.waveguide_spec(), cfg.atom(), cfg.box()
    decay = emission.decay_rate(spec, atom, box, cfg.dos,
                                max_index=cfg.max_mn)
    window = cfg.shift_window(decay.total)
    shift = emission.level_shift(spec, atom, box, cfg.dos,
                                 window=window, max_index=cfg.max_mn)
    params = emission.MarkovParameters(
        decay_total=decay.total, level_shift=shift.value,
        transition_frequency=atom.transition_frequency)
    res = detection.pole(spec, params.shifted_frequency, decay.total,
                         cfg.radicand)
    return decay, shift, res


class Sweep:
    """One emitter through the chain, in process; checked against a
    QUADPACK principal value and the pole identity."""

    def __init__(self, tmp):
        del tmp  # no files

    def prepare(self, op):
        from wgqed.config import parse_config

        return parse_config(op["config"])

    def run(self, cfg):
        return _sweep_chain(cfg)

    def check(self, cfg, result):
        decay, shift, res = result
        if not decay.total > 0.0:
            raise CheckFailed(f"decay rate {decay.total!r} is not positive")
        reason = reference.check_shift(cfg.waveguide_spec(), cfg.atom(),
                                       cfg.box(), cfg.dos, shift,
                                       SHIFT_REL_TOL)
        if reason:
            raise CheckFailed(reason)
        beta = complex(res.beta_r, res.beta_i)
        if (abs(beta * beta - res.radicand)
                > POLE_REL_TOL * abs(res.radicand)
                or not res.beta_r > 0.0 or res.beta_i > 0.0):
            raise CheckFailed(f"pole {beta!r} does not solve its radicand")
        return 0


# --- figure ----------------------------------------------------------

class Figure:
    def __init__(self, tmp):
        self.tmp = Path(tmp)

    def prepare(self, op):
        path = self.tmp / "figure.conf"
        path.write_text(op["config"], encoding="utf-8")
        out = self.tmp / f"corr.{op['format']}"
        argv = ["corr", "--config", str(path), "--reproducible",
                "--format", op["format"], "--out", str(out)]
        return argv, out, op["format"]

    def run(self, prepared):
        from wgqed import cli

        return cli.main(prepared[0])

    def check(self, prepared, rc):
        _, out, fmt = prepared
        if rc != 0:
            raise CheckFailed(f"corr exited {rc}")
        written = out.stat().st_size
        if fmt == "csv":
            side = Path(str(out) + ".json")
            written += side.stat().st_size
            with open(out, encoding="utf-8") as fh:
                lines = sum(1 for line in fh if not line.startswith("#"))
            rows = lines - 1  # header
            fit = json.loads(side.read_text(encoding="utf-8"))["fit"]
        else:
            doc = json.loads(out.read_text(encoding="utf-8"))
            rows = len(doc["rows"])
            fit = doc["fit"]
        if rows != FIGURE_ROWS:
            raise CheckFailed(f"{rows} rows, expected {FIGURE_ROWS}")
        _close(fit["fitted_temporal_slope"], -fit["decay_rate"],
               "temporal slope")
        _close(fit["fitted_spatial_slope"], fit["spatial_rate"],
               "spatial slope")
        for path in self.tmp.glob("corr.*"):
            path.unlink()
        return written


def _close(got, want, what):
    if not abs(got - want) <= FIT_REL_TOL * abs(want):
        raise CheckFailed(f"fitted {what} {got!r} against exact {want!r}")


# --- commands --------------------------------------------------------

class Commands:
    """One fresh ``python -m wgqed`` process per op; with tracer files
    the process runs tracedcli.py instead, unless ``traced=False``."""

    def __init__(self, tmp, tracer_files=None):
        self.tmp = Path(tmp)
        self.tracer_files = tracer_files   # (summary dir, spans path)
        self.op_id = -1   # index of the last traced op, as in records

    def prepare(self, op):
        path = self.tmp / "cmd.conf"
        path.write_text(op["config"], encoding="utf-8")
        out = self.tmp / f"{op['command']}.csv"
        args = [op["command"], "--config", str(path), "--reproducible",
                "--out", str(out)] + op["extra"]
        return args, out, op["command"]

    def argv(self, args, traced):
        if traced is None:
            traced = self.tracer_files is not None
        if not traced:
            return [sys.executable, "-m", "wgqed"] + args
        summary_dir, spans = self.tracer_files
        self.op_id += 1
        return [sys.executable, str(HERE / "tracedcli.py"),
                "--summary", str(summary_dir / f"{self.op_id}.json"),
                "--spans", str(spans), "--op", str(self.op_id),
                "--"] + args

    def run(self, prepared, traced=None):
        proc = subprocess.run(self.argv(prepared[0], traced), cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stderr.decode(errors="replace")

    def check(self, prepared, result):
        _, out, command = prepared
        rc, err = result
        if rc != 0:
            raise ExitStatus(rc, err.strip().splitlines()[-1:] or [""])
        written = out.stat().st_size
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        meta = [line for line in text.splitlines() if line.startswith("#")]
        table = list(csv.reader(line for line in text.splitlines()
                                if not line.startswith("#")))
        if len(table) < 2 or any(len(r) != len(table[0]) for r in table):
            raise CheckFailed(f"{command}: artifact is not a table")
        if command == "validate" and "# summary.failures = 0" not in meta:
            raise CheckFailed("validate reported failing checks")
        if command == "corr":
            side = Path(str(out) + ".json")
            written += side.stat().st_size
            json.loads(side.read_text(encoding="utf-8"))
        for path in self.tmp.glob(f"{command}.csv*"):
            path.unlink()
        return written


class ExitStatus(Exception):
    def __init__(self, rc, last_line):
        super().__init__(f"exit {rc}: {last_line[0]}")
        self.rc = rc


# --- the loop --------------------------------------------------------

def _run_ops(ops, runner, tracer=None):
    """Closed loop over ``ops``; returns per-op records and the bytes
    written."""
    from wgqed.errors import ConvergenceError, WgError

    records, written = [], 0
    for i, op in enumerate(ops):
        prepared = runner.prepare(op)
        rec = {"kind": op["kind"], "omega": op["omega"], "ok": False,
               "expected": False, "error": None}
        if tracer is not None:
            tracer.op_id = i
            tracer.enabled = True
        result, rec["latency_s"], rec["probe_s"] = hostclock.timed(
            lambda: runner.run(prepared))
        if tracer is not None:
            tracer.enabled = False
        if isinstance(result, WgError):
            rec["error"] = f"{type(result).__name__}: {result}"
            rec["expected"] = isinstance(result, ConvergenceError)
        elif isinstance(result, Exception):
            rec["error"] = "".join(traceback.format_exception(result,
                                                              limit=3))
        else:
            try:
                written += runner.check(prepared, result)
                rec["ok"] = True
            except ExitStatus as err:
                rec["error"] = str(err)
                rec["expected"] = err.rc == 4   # convergence failure
            except (CheckFailed, OSError, ValueError, KeyError) as err:
                rec["error"] = f"check: {type(err).__name__}: {err}"
        records.append(rec)
    return records, written


def _overhead(plain, traced):
    """Median time of ``traced()`` over that of ``plain()``, minus one.
    The two alternate and are scaled to the reference host speed, so a
    drift in the machine's speed hits neither."""
    times = ([], [])
    for _ in range(CALIBRATION_REPEATS):
        for fn, out in zip((plain, traced), times):
            _, elapsed, probe_s = hostclock.timed(fn)
            out.append(hostclock.scaled(elapsed, probe_s))
    return statistics.median(times[1]) / statistics.median(times[0]) - 1.0


def _under_tracer(fn):
    """``fn`` run under a throwaway tracer installed for the call."""
    def call():
        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
        try:
            return fn()
        finally:
            tracer.enabled = False
            tracer.uninstall()
    return call


def _demo_baseline():
    """Counts of one traced ``level_shift`` on configs/demo.conf with a
    cold Gauss-Legendre node cache, as in a fresh process, and the
    tracing overhead of the whole chain on the same emitter."""
    from wgqed import emission, numerics
    from wgqed.config import load_config

    cfg = load_config(ROOT / "configs" / "demo.conf")
    spec, atom, box = cfg.waveguide_spec(), cfg.atom(), cfg.box()
    decay = emission.decay_rate(spec, atom, box, cfg.dos,
                                max_index=cfg.max_mn)
    window = cfg.shift_window(decay.total)
    tracer = Tracer()
    tracer.install()
    try:
        numerics._gl_nodes.cache_clear()
        tracer.enabled = True
        emission.level_shift(spec, atom, box, cfg.dos, window=window,
                             max_index=cfg.max_mn)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    cache = numerics._gl_nodes.cache_info()
    calls = {name: st.calls for name, st in tracer.stats.items()}
    baseline = {
        "coupling_at_calls": calls["quantize.coupling_at"],
        "integrate_calls": calls["numerics.integrate"],
        "pv_integrate_calls": calls["numerics.pv_integrate"],
        "quadrature_nodes": tracer.integrate_nodes,
        "gl_nodes_cache_hits": f"{cache.hits}/{cache.hits + cache.misses}",
    }
    chain = lambda: _sweep_chain(cfg)  # noqa: E731
    return baseline, _overhead(chain, _under_tracer(chain))


def _peak_rss_kb(workload):
    who = (resource.RUSAGE_CHILDREN if workload == "commands"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "figure", "commands"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import wgqed.cli  # noqa: F401  every layer, before any patching

    ops = inputs.ops(args.workload, args.seed, args.seconds, ROOT)
    tmp = Path(args.tmp)
    record = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        record.update(_traced(args.workload, ops, tmp, Path(args.spans)))
    else:
        runner = {"sweep": Sweep, "figure": Figure,
                  "commands": Commands}[args.workload](tmp)
        record["ops"], record["bytes_written"] = _run_ops(ops, runner)
        record["peak_rss_kb"] = _peak_rss_kb(args.workload)
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


def _traced(workload, ops, tmp, spans):
    """The traced run: tracing overhead first, then every op under the
    tracer; the spans go to ``spans``."""
    from wgqed import numerics

    out = {}
    tracer = Tracer()
    if workload == "commands":
        summaries = tmp / "summaries"
        summaries.mkdir()
        runner = Commands(tmp, (summaries, spans))
        first = runner.prepare(ops[0])
        out["overhead"] = _overhead(
            lambda: runner.run(first, traced=False),
            lambda: runner.run(first))
        for path in summaries.iterdir():
            path.unlink()
        spans.unlink(missing_ok=True)
        runner.op_id = -1
        out["ops"], out["bytes_written"] = _run_ops(ops, runner)
        for path in summaries.iterdir():
            tracer.merge(json.loads(path.read_text(encoding="utf-8")))
    else:
        if workload == "sweep":
            out["baseline"], out["overhead"] = _demo_baseline()
            runner = Sweep(tmp)
        else:
            runner = Figure(tmp)
            first = runner.prepare(ops[0])
            op = lambda: runner.run(first)  # noqa: E731
            out["overhead"] = _overhead(op, _under_tracer(op))
        before = numerics._gl_nodes.cache_info()
        tracer.install()
        try:
            out["ops"], out["bytes_written"] = _run_ops(ops, runner, tracer)
        finally:
            tracer.uninstall()
        after = numerics._gl_nodes.cache_info()
        tracer.gl_hits = after.hits - before.hits
        tracer.gl_misses = after.misses - before.misses
        tracer.write_spans(spans)
    out["layers"] = tracer.summary()
    return out


if __name__ == "__main__":
    sys.exit(main())
