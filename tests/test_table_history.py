"""An emitter's bits do not depend on what the process computed before.

``modes.mode_table``, behind ``modes.modes_below``, is the one
per-guide table kept for the life of the process. Two child processes
run the same emitters in two orders: each starts with a different
emitter of a mirrored pair (x0 = +0.0 and -0.0, whose channel tables
differ in their sign bits), computes the other emitters, then repeats
the pair. Every run of an emitter, in either child and in this
process, must give the same ``float.hex`` lines: the corpus lines of
``scripts/chain_corpus.py``, the listing ``modes_below`` returns and
the raw bytes of the ``quantize.Channels`` table, which show that the
table is built fresh at each call, the mirrored pair's sign bits
included.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from wgqed.detection import RadicandModel
from wgqed.modes import cutoff_frequency, modes_below
from wgqed.quantize import Atom, Channels, DensityModel

ROOT = Path(__file__).resolve().parent.parent

# name: (guide in chain_corpus.GUIDES, position, dipole as (re, im)
# pairs, transition frequency, density model, radicand)
EMITTERS = {
    "plus": (0, (0.0, 0.6, 0.3), ((0.05, 0.02), (0.1, -0.01), (0.0, 0.03)),
             1.45, "paper", "paper"),
    "minus": (0, (-0.0, 0.6, 0.3),
              ((0.05, 0.02), (0.1, -0.01), (0.0, 0.03)),
              1.45, "paper", "paper"),
    "demo_high": (0, (1.1, 0.4, -0.0), ((0.0, 0.0), (0.124, 0.0),
                                        (0.0, 0.0)),
                  2.1, "dispersion", "consistent"),
    "flat": (1, (0.9, 0.0, 1.5), ((0.02, 0.0), (0.03, 0.01), (0.0, 0.0)),
             1.2, "dispersion", "paper"),
    "flat_minus_y": (1, (0.9, -0.0, 1.5),
                     ((0.02, 0.0), (0.03, 0.01), (0.0, 0.0)),
                     1.2, "paper", "consistent"),
    "square": (2, (0.7, 1.3, 0.0), ((0.01, 0.02), (0.03, 0.0),
                                    (0.0, -0.02)),
               2.0, "paper", "paper"),
}


def load_corpus():
    spec = importlib.util.spec_from_file_location(
        "chain_corpus", ROOT / "scripts" / "chain_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = load_corpus()


def emitter_lines(guide, position, dipole, omega, dos, radicand):
    """``{part: lines}`` of one emitter of EMITTERS."""
    spec = corpus.GUIDES[guide]
    atom = Atom(position=tuple(position),
                dipole=tuple(complex(*d) for d in dipole),
                transition_frequency=omega)
    out = {name: [] for name in corpus.CLASSES}
    corpus.run_emitter(0, spec, atom, DensityModel(dos),
                       RadicandModel(radicand), 12, out)
    listing = modes_below(spec, 2.0 * omega)
    chans = Channels(spec, atom, listing)
    out["listing"] = [f"{corpus.hx(cutoff_frequency(spec, m))} "
                      f"{corpus.label(m)}" for m in listing]
    out["table"] = [chans.columns.tobytes().hex(),
                    chans.cutoff.tobytes().hex()]
    return out


# runs emitters in the order given, in a fresh process, through this
# module's emitter_lines
CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("history", sys.argv[1])
history = importlib.util.module_from_spec(spec)
spec.loader.exec_module(history)
for name in sys.argv[2:]:
    lines = history.emitter_lines(*history.EMITTERS[name])
    print(json.dumps([name, lines]))
"""


def runs_in_child(order, child_env):
    """``[(name, lines)]`` of the emitters run in order in a fresh
    process."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, __file__, *order],
        capture_output=True, text=True, timeout=120, env=child_env,
        check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_first_in_process_equals_later(child_env):
    others = [name for name in EMITTERS if name not in ("plus", "minus")]
    orders = (["plus", "minus", *others, "plus", "minus"],
              ["minus", "plus", *others[::-1], "minus", "plus"])
    runs = {}
    for order in orders:
        for name, lines in runs_in_child(order, child_env):
            runs.setdefault(name, []).append(lines)
    for name, params in EMITTERS.items():
        runs[name].append(emitter_lines(*params))
    for name, seen in runs.items():
        assert all(lines == seen[0] for lines in seen), (
            f"{name} changed with what ran before it")
    # the mirrored tables differ, so one handed to the other emitter
    # would show above
    assert runs["plus"][0]["table"] != runs["minus"][0]["table"]
