"""Span tracer installed from outside the package.

Each traced function is replaced, in every ``wgqed`` module namespace
that holds it, by a wrapper that times the call. The lookup site
matters: ``emission`` does ``from .quantize import coupling_at``, so
patching ``wgqed.quantize.coupling_at`` alone would miss the calls
``level_shift`` makes. Replacing every binding that *is* the original
function object catches all of them, including calls a module makes
to its own globals (``pv_integrate`` -> ``integrate``).

Self time is a span's duration minus the time covered by its traced
children, computed on the fly with a stack. Every call is counted
exactly. Spans of the coarse layers are kept in memory as
(name, start, end, parent, op id) and written out at the end; the
per-node leaves (coupling, state density, dispersion, field) run
~7,000 times per ``level_shift`` and millions of times in a failing
quadrature, so they are aggregated only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of every traced function; "Class.method" names
# a method. The first part of the metric name is the module.
TRACED = (
    ("wgqed.modes", "dispersion"),
    ("wgqed.modes", "field_at"),
    ("wgqed.modes", "modes_below"),
    ("wgqed.quantize", "coupling_at"),
    ("wgqed.quantize", "continuum_weight"),
    ("wgqed.numerics", "integrate"),
    ("wgqed.numerics", "pv_integrate"),
    ("wgqed.emission", "decay_rate"),
    ("wgqed.emission", "level_shift"),
    ("wgqed.emission", "amplitudes_ode_oracle"),
    ("wgqed.detection", "pole"),
    ("wgqed.detection", "correlation_grid"),
    ("wgqed.detection", "fit_decay_rates"),
    ("wgqed.detection", "omega_d"),
    ("wgqed.config", "load_config"),
    ("wgqed.config", "RunConfig.shift_window"),
    ("wgqed.validate", "run_checks"),
    ("wgqed.cli", "cmd_modes"),
    ("wgqed.cli", "cmd_decay"),
    ("wgqed.cli", "cmd_corr"),
    ("wgqed.cli", "cmd_omegad"),
    ("wgqed.cli", "cmd_validate"),
)

LEAVES = frozenset({"modes.dispersion", "modes.field_at",
                    "quantize.coupling_at", "quantize.continuum_weight"})


class Stat:
    __slots__ = ("calls", "total", "self", "failures")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.failures = 0


class Tracer:
    """Collects spans and per-function aggregates while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.stats = {}
        self.spans = []          # [name, start, end, parent, op_id]
        self._stack = []         # [span index or -1, child time]
        self.integrate_nodes = 0
        self.integrate_useful = 0
        self.pv_integrate_calls = 0
        self.gl_hits = 0         # Gauss-Legendre node cache, filled
        self.gl_misses = 0       # in by the caller
        self._restore = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, name: str, fn):
        st = self.stat(name)
        keep = name not in LEAVES
        is_integrate = name == "numerics.integrate"
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_integrate:
                args, sizes = self._count_nodes(args)
            parent = stack[-1][0] if stack else -1
            idx = -1
            if keep:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.op_id])
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st.calls += 1
                st.total += dur
                st.self += dur - frame[1]
                if not ok:
                    st.failures += 1
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans[idx][1] = start
                    spans[idx][2] = end
                if is_integrate:
                    self.integrate_nodes += sum(sizes)
                    if ok and sizes:
                        self.integrate_useful += sizes[-1]
                    if parent >= 0 and spans[parent][0] == \
                            "numerics.pv_integrate":
                        self.pv_integrate_calls += 1

        return traced

    @staticmethod
    def _count_nodes(args):
        # integrate(f, a, b, spec): count the abscissae of each f call;
        # the last call is the accepted refinement when it returns
        sizes = []
        f = args[0]

        def counted(x):
            sizes.append(len(x))
            return f(x)

        return (counted,) + tuple(args[1:]), sizes

    def install(self):
        """Patch every binding of every traced function."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "wgqed" or n.startswith("wgqed.")) and m]
        for modname, attr in TRACED:
            module = sys.modules[modname]
            short = modname.split(".", 1)[1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{short}.{meth}", orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(f"{short}.{attr}", orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def summary(self) -> dict:
        """Aggregates as plain data, mergeable with ``merge``."""
        return {
            "stats": {k: [s.calls, s.total, s.self, s.failures]
                      for k, s in self.stats.items() if s.calls},
            "integrate_nodes": self.integrate_nodes,
            "integrate_useful": self.integrate_useful,
            "pv_integrate_calls": self.pv_integrate_calls,
            "gl_hits": self.gl_hits,
            "gl_misses": self.gl_misses,
        }

    def merge(self, other: dict):
        for name, (calls, total, self_t, fails) in \
                other["stats"].items():
            st = self.stat(name)
            st.calls += calls
            st.total += total
            st.self += self_t
            st.failures += fails
        self.integrate_nodes += other["integrate_nodes"]
        self.integrate_useful += other["integrate_useful"]
        self.pv_integrate_calls += other["pv_integrate_calls"]
        self.gl_hits += other["gl_hits"]
        self.gl_misses += other["gl_misses"]

    def write_spans(self, path, mode="w"):
        """One JSON line per span. ``id`` and ``parent`` index the
        spans of one process; every op of the commands workload is a
        process of its own, so (op, id) is unique in a file."""
        with open(path, mode, encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
