"""The research scripts in ``scripts/`` run end to end.

Each script is loaded by path and its ``main`` run in process on small
arguments, with every output under ``tmp_path``; the test checks the
exit status and that each output parses. ``cone_ratio_profile``
renders its ``corr`` artifact through ``wgqed.cli.main``. Every
emitter a script builds is configs/demo.conf's with only the keys its
docstring names replaced.
"""

import csv
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from wgqed.config import SCHEMA, load_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DEMO = SCRIPTS.parent / "configs" / "demo.conf"


def load_script(monkeypatch, name):
    # as ``python scripts/<name>.py`` does, so a script imports its
    # neighbours
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(monkeypatch, module, *argv):
    monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py",
                                      *map(str, argv)])
    return module.main()


def run_script(monkeypatch, name, *argv):
    return run_main(monkeypatch, load_script(monkeypatch, name), *argv)


def written_keys(path):
    """The keys set on the lines of a config file, in file order."""
    return [line.split("=", 1)[0].strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if "=" in line.split("#", 1)[0]]


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return list(csv.reader(line for line in lines
                           if not line.startswith("#")))


def test_cone_ratio_profile(tmp_path, monkeypatch):
    outdir = tmp_path / "profile"
    assert run_script(monkeypatch, "cone_ratio_profile",
                      "--grid", 40, "--outdir", outdir) == 0
    header, *rows = read_csv(outdir / "profile.csv")
    assert header == ["x", "z", "t", "g1", "inside_cone"]
    assert len(rows) == 40 * 40
    assert all(float(row[3]) >= 0.0 for row in rows)
    fit = json.loads((outdir / "profile.csv.json").read_text())["fit"]
    assert abs(fit["cone_ratio"] - 0.8) < 1e-3


def test_cone_ratio_profile_config_is_demo_with_four_keys(tmp_path,
                                                          monkeypatch):
    # demo.conf samples 40 x 40
    outdir = tmp_path / "profile"
    assert run_script(monkeypatch, "cone_ratio_profile",
                      "--grid", 30, "--outdir", outdir) == 0
    demo = dict(load_config(str(DEMO)).effective_items())
    profile = dict(load_config(str(outdir / "profile.conf"))
                   .effective_items())
    changed = {key for key in demo if profile[key] != demo[key]}
    assert changed == {"atom.y0", "atom.omega", "grid.z_count",
                       "grid.t_count"}
    assert profile["atom.y0"] == demo["waveguide.b"] / 4.0
    assert profile["grid.z_count"] == profile["grid.t_count"] == 30
    # the file sets demo.conf's keys and no other, each once, and has
    # as many lines, its heading rewritten to say it is derived
    written = written_keys(outdir / "profile.conf")
    assert len(written) == len(set(written))
    assert set(written) == set(written_keys(DEMO))
    lines = (outdir / "profile.conf").read_text(encoding="utf-8").splitlines()
    demo_lines = DEMO.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(demo_lines)
    assert lines[0] != demo_lines[0]


# how each replaced key reads off an emitter the library was handed
ATOM_KEYS = {"atom.x0": lambda atom: atom.position[0],
             "atom.y0": lambda atom: atom.position[1],
             "atom.omega": lambda atom: atom.transition_frequency}


@pytest.mark.parametrize("name, function, argv, keys", [
    ("decay_sweep", "decay_rate",
     ("--sweep", "omega", "--count", 3, "--out", "out.csv"),
     {"atom.y0", "atom.omega"}),
    ("decay_sweep", "decay_rate",
     ("--sweep", "position", "--count", 3, "--omega", 1.3, "--out",
      "out.csv"), {"atom.y0", "atom.x0", "atom.omega"}),
    ("spatial_temporal_rates", "solve_emitter",
     ("--count", 3, "--out", "out.csv"), {"atom.y0", "atom.omega"}),
    ("cone_ratio_profile", "solve_emitter", ("--grid", 8, "--outdir", "out"),
     {"atom.y0", "atom.omega"}),
], ids=["decay_sweep_omega", "decay_sweep_position",
        "spatial_temporal_rates", "cone_ratio_profile"])
def test_research_emitter_is_demo_with_stated_keys(tmp_path, monkeypatch,
                                                   name, function, argv,
                                                   keys):
    # every spec, atom, box and model choice the script hands the
    # library is demo.conf's, but for the keys its docstring names;
    # atom.y0 moves to b/4 and the index bound stays the library's
    demo = load_config(str(DEMO))
    module = load_script(monkeypatch, name)
    real, calls = getattr(module, function), []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, function, record)
    monkeypatch.chdir(tmp_path)
    assert run_main(monkeypatch, module, *argv) == 0
    assert len(calls) >= 3
    for args, kwargs in calls:
        spec, atom, box, dos, *radicand = args
        assert kwargs == {}
        assert atom.position[1] == demo.waveguide_b / 4.0
        expected = replace(demo, **{SCHEMA[key].name: read(atom)
                                    for key, read in ATOM_KEYS.items()
                                    if key in keys})
        assert spec == expected.waveguide_spec()
        assert atom == expected.atom()
        assert box == expected.box()
        assert dos is expected.dos
        # decay_rate takes no radicand
        assert radicand == ([] if function == "decay_rate"
                            else [expected.radicand])


def test_decay_sweep(tmp_path, monkeypatch):
    for sweep in ("omega", "position"):
        out = tmp_path / f"{sweep}.csv"
        assert run_script(monkeypatch, "decay_sweep", "--sweep", sweep,
                          "--count", 9, "--out", out) == 0
        header, *rows = read_csv(out)
        assert header[1:] == ["decay_rate", "open_channels",
                              "oscillatory"]
        assert len(rows) == 9
        assert all(float(row[1]) > 0.0 for row in rows)


def test_spatial_temporal_rates(tmp_path, monkeypatch):
    out = tmp_path / "rates.csv"
    assert run_script(monkeypatch, "spatial_temporal_rates",
                      "--count", 9, "--out", out) == 0
    header, *rows = read_csv(out)
    assert header == ["omega", "temporal_rate", "axial_rate",
                      "cone_ratio"]
    assert len(rows) == 9
    assert all(float(cell) > 0.0 for row in rows for cell in row)
