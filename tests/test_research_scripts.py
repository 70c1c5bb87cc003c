"""The research scripts in ``scripts/`` run end to end.

Each script is loaded by path and its ``main`` run in process on small
arguments, with every output under ``tmp_path``; the test checks the
exit status and that each output parses. ``cone_ratio_profile``
renders its ``corr`` artifact through ``wgqed.cli.main``.
"""

import csv
import importlib.util
import json
import sys
from pathlib import Path

from wgqed.config import load_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DEMO = SCRIPTS.parent / "configs" / "demo.conf"


def run_script(monkeypatch, name, *argv):
    # as ``python scripts/<name>.py`` does, so a script imports its
    # neighbours
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(
        name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *map(str, argv)])
    return module.main()


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
