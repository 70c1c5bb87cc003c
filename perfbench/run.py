"""Benchmark of the wgqed emitter chain, end to end and layer by layer.

    python3 perfbench/run.py --workload {sweep,figure,commands}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from
``src/`` as it stands, nothing is installed. Three closed-loop
workloads, one client each, with inputs drawn from ``--seed``:

sweep     library calls in one worker: each op takes one emitter
          through decay_rate -> RunConfig.shift_window -> level_shift
          -> pole; paper and dispersion state densities alternate.
          Checked against a QUADPACK principal value (reference.py).
figure    in-process ``wgqed corr --reproducible`` on a 4 x 200 x 200
          grid, CSV and JSON alternating. Checked: row count, JSON
          parses, fitted slopes against the exact rates.
commands  one fresh ``python -m wgqed`` process per op, cycling
          through decay, corr, omegad, validate, modes and
          ``decay --max-mn 400``. Checked: exit 0, the artifact
          parses, validate reports no failures.

With ``--trace 0`` the ops run untraced and the end-to-end metrics
are reported; with ``--trace 1`` the same ops run under the span
tracer (tracer.py) and the per-layer metrics are reported, with the
tracing overhead. Human-readable lines go first; the last line of
standard output is one JSON object. Records of each run, and the spans
of traced runs, are written under ``.perfbench_out/``.

End-to-end timings are scaled to a reference host speed measured by
a fixed loop around each timed interval (hostclock.py), because the
shared host drifts by +-20% within a minute; raw times are kept in
the run record. The per-layer self times are raw.

An op fails if it raises a WgError, exits nonzero or fails its check;
failed ops count in ``attempted`` and ``failed``, and their time
counts in the wall time. ``correct`` is false when an op produced a
wrong output or failed any other way than a convergence failure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import inputs  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
BLAS_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 165.0
TAIL_BEYOND = 10

SETUP_PROBE = ("import sys; import wgqed.cli; "
               "from wgqed.config import load_config; "
               "load_config(sys.argv[1])")



def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(BLAS_PIN)
    return env


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "blas_threads": "1 (" + ", ".join(sorted(BLAS_PIN)) + ")",
    }


def measure_setup(config_path: Path, env: dict) -> list:
    """Host-scaled wall times of fresh interpreters that import
    wgqed.cli and load the workload's config; one unrecorded start
    first, which also compiles the package's bytecode in a fresh
    checkout."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(config_path)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc, elapsed, probe_s = hostclock.timed(lambda: subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S))
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc}")
        if i:
            times.append(hostclock.scaled(elapsed, probe_s))
    return times


def run_worker(argv: list, env: dict) -> tuple:
    """Run the worker in a session of its own, so that on a timeout the
    processes it started go down with it. Returns (status, stderr)."""
    with subprocess.Popen(argv, cwd=ROOT, env=env, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return -1, f"worker timed out after {WORKER_TIMEOUT_S} s\n"
    return proc.returncode, err.decode(errors="replace")


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return (ordered[rank - 1], 100.0 * rank / len(ordered),
            len(ordered) - rank)


def end_to_end(record: dict, setup_times: list) -> tuple:
    ops = record["ops"]
    lat = [hostclock.scaled(op["latency_s"], op["probe_s"]) for op in ops]
    ok = sum(op["ok"] for op in ops)
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * value,
        "success_rate": ok / len(ops),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    notes = [
        f"op_tail_ms is p{pct:.1f} of {len(lat)} ops, "
        f"{beyond} beyond it",
        f"fail_rate = {len(ops) - ok}/{len(ops)} = "
        f"{(len(ops) - ok) / len(ops):.4f} (= 1 - success_rate)",
        f"wall time of all ops {sum(lat):.3f} s at the reference host "
        f"speed, {sum(op['latency_s'] for op in ops):.3f} s as measured",
        f"unscaled: op p50 "
        f"{1e3 * statistics.median(op['latency_s'] for op in ops):.1f} ms",
    ]
    return metrics, notes


def per_layer(record: dict) -> dict:
    layers = record["layers"]
    stats = layers["stats"]
    n = len(record["ops"])

    def st(name, field):
        calls, total, self_t, fails = stats.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "total": total, "self": self_t,
                "failures": fails}[field]

    def per_call(name):
        calls = st(name, "calls")
        return st(name, "total") / calls if calls else 0.0

    nodes = layers["integrate_nodes"]
    gl = layers["gl_hits"] + layers["gl_misses"]
    render = sum(v[2] for k, v in stats.items() if k.startswith("cli.cmd_"))
    m = {
        "quantize.coupling_at.calls": st("quantize.coupling_at", "calls") / n,
        "quantize.coupling_at.self_s": st("quantize.coupling_at", "self") / n,
        "quantize.continuum_weight.calls":
            st("quantize.continuum_weight", "calls") / n,
        "modes.dispersion.calls": st("modes.dispersion", "calls") / n,
        "modes.field_at.calls": st("modes.field_at", "calls") / n,
        "numerics.integrate.calls": st("numerics.integrate", "calls") / n,
        "numerics.integrate.nodes": nodes / n,
        "numerics.integrate.useful_ratio":
            layers["integrate_useful"] / nodes if nodes else 0.0,
        "numerics.integrate.failures":
            st("numerics.integrate", "failures") / n,
        "numerics.pv_integrate.calls":
            st("numerics.pv_integrate", "calls") / n,
        "numerics.pv_integrate.self_s":
            st("numerics.pv_integrate", "self") / n,
        "numerics.pv_integrate.integrate_calls":
            layers["pv_integrate_calls"] / n,
        "numerics.gl_nodes.hit_ratio":
            layers["gl_hits"] / gl if gl else 0.0,
        "emission.level_shift.calls": st("emission.level_shift", "calls") / n,
        "emission.level_shift.self_s": st("emission.level_shift", "self") / n,
        "emission.level_shift.failures":
            st("emission.level_shift", "failures") / n,
        "emission.decay_rate.self_s": st("emission.decay_rate", "self") / n,
        "cli.render.self_s": render / n,
        "cli.bytes_written": record["bytes_written"] / n,
        "detection.correlation_grid.self_s":
            st("detection.correlation_grid", "self") / n,
        "detection.fit_decay_rates.self_s":
            st("detection.fit_decay_rates", "self") / n,
        "detection.omega_d.self_s": st("detection.omega_d", "self") / n,
        "detection.pole.calls": st("detection.pole", "calls") / n,
        "modes.modes_below.calls": st("modes.modes_below", "calls") / n,
        "modes.modes_below.self_s": st("modes.modes_below", "self") / n,
        "emission.amplitudes_ode_oracle.self_s":
            st("emission.amplitudes_ode_oracle", "self") / n,
        "validate.run_checks.self_s": st("validate.run_checks", "self") / n,
        "config.load_config.self_s": st("config.load_config", "self") / n,
    }
    for cmd in ("modes", "decay", "corr", "omegad", "validate"):
        m[f"cli.cmd_{cmd}.s"] = per_call(f"cli.cmd_{cmd}")
    m["trace.overhead"] = record["overhead"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "figure", "commands"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not ((ROOT / "src" / "wgqed" / "__init__.py").is_file()
            and (ROOT / "configs" / "demo.conf").is_file()):
        print(f"perfbench: no wgqed source tree at {ROOT}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}

    env_record = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    env = _child_env()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times = []
        if not args.trace:
            first = inputs.ops(args.workload, args.seed, args.seconds,
                               ROOT)[0]
            probe_cfg = tmp / "setup.conf"
            probe_cfg.write_text(first["config"], encoding="utf-8")
            setup_times = measure_setup(probe_cfg, env)
        result = tmp / "result.json"
        worker = [sys.executable, str(HERE / "worker.py"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--tmp", str(tmp),
                  "--result", str(result),
                  "--spans", str(OUT_DIR / f"{stem}-spans.jsonl")]
        rc, err = run_worker(worker, env)
        if rc != 0:
            sys.stderr.write(err)
            print(f"perfbench: worker exited {rc}", file=sys.stderr)
            return 1
        record = json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = record["ops"]
    failed = sum(not op["ok"] for op in ops)
    correct = all(op["ok"] or op["expected"] for op in ops)
    if args.trace:
        values, notes = per_layer(record), []
        if "baseline" in record:
            notes.append("demo emitter, one level_shift: " + ", ".join(
                f"{k}={v}" for k, v in record["baseline"].items()))
    else:
        values, notes = end_to_end(record, setup_times)
    if set(values) != set(units):
        raise SystemExit("perfbench: computed metrics differ from "
                         f"BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    print(f"  {len(ops)} ops, {failed} failed, correct={correct}")
    print("environment: " + ", ".join(f"{k}={v}"
                                      for k, v in env_record.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for note in notes:
        print("  " + note)
    for op in ops:
        if not op["ok"]:
            print(f"  failed op {op['kind']} omega={op['omega']!r} "
                  f"after {op['latency_s']:.2f} s: {op['error']}")

    full = {"environment": env_record, "setup_s_samples": setup_times,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "notes": notes, **record}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1),
                                          encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
