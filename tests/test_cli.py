"""Configuration parsing and command line artifact tests.

Commands run in-process through main() with artifacts written to tmp
paths; the byte-level determinism contract gets its own end-to-end
rehearsal in the acceptance suite.
"""

import csv
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wgqed import (
    cli,
    config as config_module,
    emission,
    errors,
    gformat,
    validate,
)
from wgqed.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_NO_CROSSING,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from wgqed.config import RunConfig, load_config, parse_config
from wgqed.detection import CorrelationGrid, PoleResult
from wgqed.errors import ConfigError, ConvergenceError
from wgqed.validate import run_checks

BASE = {
    "waveguide.a": "3.141592653589793",
    "waveguide.b": "1.5707963267948966",
    "waveguide.eps": "1.0",
    "waveguide.mu": "1.44",
    "atom.x0": "1.5707963267948966",
    "atom.y0": "0.7853981633974483",
    "atom.z0": "0.0",
    "atom.omega": "1.45",
    "atom.dipole_x_re": "0.0",
    "atom.dipole_x_im": "0.0",
    "atom.dipole_y_re": "0.124",
    "atom.dipole_y_im": "0.0",
    "atom.dipole_z_re": "0.0",
    "atom.dipole_z_im": "0.0",
}


def config_text(**overrides):
    items = dict(BASE)
    items.update({k: str(v) for k, v in overrides.items()})
    return "\n".join(f"{k} = {v}" for k, v in items.items()) + "\n"


def write_config(tmp_path, name="run.conf", **overrides):
    path = tmp_path / name
    path.write_text(config_text(**overrides))
    return str(path)


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(config_text())
        assert cfg.max_mn == 8
        assert cfg.out_format == "csv"
        assert cfg.digits == 12
        assert cfg.dos.value == "paper"
        assert cfg.radicand.value == "paper"
        assert cfg.box_length == 1.0

    def test_comments_and_blanks(self):
        text = "# leading comment\n\n" + config_text() \
            + "   # trailing comment line\n"
        assert parse_config(text).atom_omega == 1.45

    def test_unknown_key_reports_line_and_hint(self):
        text = config_text() + "waveguide.epss = 2\n"
        with pytest.raises(ConfigError, match=r"line 15.*waveguide.eps"):
            parse_config(text)

    def test_duplicate_key_points_at_first(self):
        text = config_text() + "atom.omega = 2.0\n"
        with pytest.raises(ConfigError, match="duplicate.*line 8"):
            parse_config(text)

    def test_missing_required_consolidated(self):
        items = dict(BASE)
        del items["waveguide.mu"], items["atom.omega"]
        text = "\n".join(f"{k} = {v}" for k, v in items.items())
        with pytest.raises(ConfigError,
                           match="atom.omega, waveguide.mu"):
            parse_config(text)

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="real number"):
            parse_config(config_text(**{"waveguide.a": "wide"}))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(config_text(**{"atom.omega": "inf"}))

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_bad_model_name(self):
        with pytest.raises(ConfigError, match="paper"):
            parse_config(config_text(**{"models.dos": "phase"}))

    def test_atom_outside_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(**{"atom.x0": "9.0"}))

    def test_digits_bounds(self):
        with pytest.raises(ConfigError, match="digits"):
            parse_config(config_text(**{"output.digits": "2"}))

    def test_grid_size_bound(self):
        # the bound is checked on the counts; nothing is allocated
        cfg = parse_config(config_text(**{"grid.x_count": "4",
                                          "grid.z_count": "500",
                                          "grid.t_count": "500"}))
        assert cfg.x_count * cfg.z_count * cfg.t_count == 1_000_000
        with pytest.raises(ConfigError, match="1000001 exceeds"):
            parse_config(config_text(**{"grid.x_count": "1000001",
                                        "grid.z_count": "1",
                                        "grid.t_count": "1"}))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.conf"))

    @pytest.mark.parametrize("length", ["1e-100", "1e100", "2.3"])
    def test_box_length_in_range(self, length):
        cfg = parse_config(config_text(**{"box.length": length}))
        assert cfg.box_length == float(length)


def items_text(cfg: RunConfig) -> str:
    """effective_items() written back as a configuration document."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n"
                   for key, value in cfg.effective_items())


DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
COMMANDS = ("modes", "decay", "corr", "omegad", "validate")

EVERY_OPTIONAL_KEY = {
    "atom.dipole_x_im": "-0.03", "atom.dipole_z_re": "0.01",
    "models.dos": "dispersion", "models.radicand": "consistent",
    "models.max_mn": "5", "box.length": "2.3",
    "grid.x_min": "0.4", "grid.x_max": "2.9", "grid.x_count": "3",
    "grid.z_min": "0.5", "grid.z_max": "12.25", "grid.z_count": "9",
    "grid.t_min": "1.0", "grid.t_max": "40.0", "grid.t_count": "11",
    "window.nu_min": "0.7", "window.nu_max": "3.1",
    "output.format": "json", "output.digits": "15",
}


class TestRoundTrip:
    """The envelope echo parses back to the configuration it came
    from, so every key's spelling, kind and default agree."""

    @pytest.mark.parametrize("text", [
        DEMO.read_text(encoding="utf-8"),
        config_text(),
        config_text(**EVERY_OPTIONAL_KEY),
    ], ids=["demo", "required_only", "every_optional_key"])
    def test_effective_items_parse_back(self, text):
        cfg = parse_config(text)
        assert parse_config(items_text(cfg)) == cfg

    def test_every_optional_key_is_set(self):
        cfg = parse_config(config_text(**EVERY_OPTIONAL_KEY))
        items = dict(cfg.effective_items())
        assert set(items) - set(BASE) <= set(EVERY_OPTIONAL_KEY)
        for key, value in EVERY_OPTIONAL_KEY.items():
            assert str(items[key]) == value, key


class TestAccessors:
    def test_auto_x_is_atom_row(self):
        cfg = parse_config(config_text())
        assert cfg.x_values().tolist() == [cfg.atom_x0]

    def test_explicit_x_range(self):
        cfg = parse_config(config_text(**{
            "grid.x_min": "0.5", "grid.x_max": "2.5",
            "grid.x_count": "5"}))
        x = cfg.x_values()
        assert len(x) == 5 and x[0] == 0.5 and x[-1] == 2.5

    def test_auto_time_grid_starts_behind_front(self):
        cfg = parse_config(config_text())
        rate = 0.02
        t = cfg.t_values(rate)
        front = math.sqrt(1.44) * cfg.z_max
        assert t[0] == pytest.approx(front + 1.0 / rate)
        assert t[-1] == pytest.approx(t[0] + 4.0 / rate)

    def test_t_max_before_auto_start_names_both_bounds(self):
        rate = 0.02
        start = float(parse_config(config_text()).t_values(rate)[0])
        cfg = parse_config(config_text(**{"grid.t_max": "1.0"}))
        with pytest.raises(ConfigError) as info:
            cfg.t_values(rate)
        assert str(info.value) == (
            f"corr needs grid.t_max above the automatic grid.t_min; "
            f"got {start!r} and 1.0")

    def test_reversed_explicit_bounds_refused_alike(self):
        # correlation refuses them before the chain runs, in the text
        # t_values builds
        cfg = parse_config(config_text(
            **{"grid.t_min": "5.0", "grid.t_max": "3.0"}))
        texts = []
        for call in (lambda: cfg.t_values(0.02), cfg.correlation):
            with pytest.raises(ConfigError) as info:
                call()
            texts.append(str(info.value))
        assert texts == 2 * [
            "corr needs grid.t_max above grid.t_min; got 5.0 and 3.0"]

    def test_auto_window_hugs_line_when_rate_known(self):
        cfg = parse_config(config_text())
        lo, hi = cfg.shift_window(0.02)
        assert lo == pytest.approx(1.45 - 0.5)
        assert hi == pytest.approx(1.45 + 0.5)

    def test_auto_window_capped_by_index_bound(self):
        cfg = parse_config(config_text())
        lo, hi = cfg.shift_window(0.0)
        # TE(8,0) cutoff is 8/1.2; enumeration must stay below it
        assert hi <= 8.0 / 1.2
        assert lo == pytest.approx(1.45 / 5.0)

    def test_explicit_window_wins(self):
        cfg = parse_config(config_text(**{
            "window.nu_min": "1.0", "window.nu_max": "1.9"}))
        assert cfg.shift_window(0.02) == (1.0, 1.9)

    def test_overrides(self):
        cfg = parse_config(config_text()).with_overrides(
            dos="dispersion", radicand="consistent", max_mn=5,
            out_format="json")
        assert cfg.dos.value == "dispersion"
        assert cfg.radicand.value == "consistent"
        assert cfg.max_mn == 5 and cfg.out_format == "json"

    def test_effective_items_cover_schema(self):
        cfg = parse_config(config_text())
        items = dict(cfg.effective_items())
        assert len(items) == 31
        assert items["grid.t_min"] == "auto"
        assert items["models.dos"] == "paper"


def read_table(path):
    meta = {}
    body = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(" = ")
                meta[key] = value
            else:
                body.append(line)
    header, *rows = csv.reader(body)
    return meta, header, rows


class TestModesCommand:
    def test_table_and_envelope(self, tmp_path):
        conf = write_config(tmp_path)
        out = str(tmp_path / "modes.csv")
        assert main(["modes", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, header, rows = read_table(out)
        assert header == ["polarization", "m", "n",
                          "transverse_wavenumber", "cutoff",
                          "branch_at_omega"]
        assert meta["tool"] == "wgqed"
        assert meta["command"] == "modes"
        assert "timestamp" not in meta
        # a > b puts the lowest cutoff on TE(1,0)
        assert rows[0][:3] == ["TE", "1", "0"]
        assert rows[0][5] == "traveling"
        # valid index pairs: TE drops only (0,0), TM needs m,n >= 1
        assert len(rows) == (9 * 9 - 1) + 8 * 8

    def test_square_guide_degenerate_pair(self, tmp_path):
        conf = write_config(tmp_path, **{
            "waveguide.b": BASE["waveguide.a"],
            "atom.y0": BASE["atom.x0"]})
        out = str(tmp_path / "modes.csv")
        assert main(["modes", "--config", conf, "--out", out]) \
            == EXIT_OK
        _, _, rows = read_table(out)
        first_two = {(r[0], r[1], r[2]) for r in rows[:2]}
        assert first_two == {("TE", "1", "0"), ("TE", "0", "1")}
        assert rows[0][4] == rows[1][4]

    def test_timestamp_present_without_flag(self, tmp_path):
        conf = write_config(tmp_path)
        out = str(tmp_path / "modes.csv")
        assert main(["modes", "--config", conf, "--out", out]) \
            == EXIT_OK
        meta, _, _ = read_table(out)
        assert "timestamp" in meta


# vacuum 1 x 1 guide at pi * 1.01, where the group-velocity shift ~34.49
# puts the line center below zero
VACUUM_NEAR_CUTOFF = {
    "waveguide.a": "1.0", "waveguide.b": "1.0", "waveguide.mu": "1.0",
    "atom.x0": "0.5", "atom.y0": "0.25", "atom.omega": "3.173008580125691",
    "models.dos": "dispersion"}


class TestDecayCommand:
    def test_summary_and_channels(self, tmp_path):
        conf = write_config(tmp_path)
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, header, rows = read_table(out)
        assert float(meta["summary.decay_total"]) > 0.0
        assert meta["summary.oscillatory"] == "false"
        channels = [r for r in rows if r[0] == "decay_channel"]
        assert len(channels) == 2
        total = sum(float(r[header.index("value")]) for r in channels)
        assert total == pytest.approx(
            float(meta["summary.decay_total"]), rel=1e-10)

    def test_vanishing_shift_terms_print_unsigned_zero(self, tmp_path):
        # the demo's y dipole misses TE(0,1) on both branches and the
        # decaying TM(1,1) profile exactly
        conf = write_config(tmp_path)
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        _, header, rows = read_table(out)
        value = header.index("value")
        zeros = [r[1:5] + [r[value]] for r in rows
                 if r[0] == "shift_contribution"
                 and float(r[value]) == 0.0]
        assert zeros == [["TE", "0", "1", "localized", "0"],
                         ["TE", "0", "1", "propagating", "0"],
                         ["TM", "1", "1", "localized", "0"]]

    def test_center_maximizes_rate(self, tmp_path):
        # transverse profile of the open channel peaks mid-guide
        totals = []
        for frac in (0.25, 0.5, 0.75):
            conf = write_config(tmp_path, name=f"c{frac}.conf", **{
                "atom.x0": repr(math.pi * frac)})
            out = str(tmp_path / f"d{frac}.csv")
            assert main(["decay", "--config", conf, "--out", out,
                         "--reproducible"]) == EXIT_OK
            meta, _, _ = read_table(out)
            totals.append(float(meta["summary.decay_total"]))
        assert totals[1] > totals[0]
        assert totals[1] > totals[2]

    def test_below_cutoff_flagged(self, tmp_path):
        conf = write_config(tmp_path, **{"atom.omega": "0.5"})
        out = str(tmp_path / "decay.csv")
        assert main(["decay", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, _, rows = read_table(out)
        assert float(meta["summary.decay_total"]) == 0.0
        assert meta["summary.oscillatory"] == "true"
        assert not [r for r in rows if r[0] == "decay_channel"]

    @pytest.mark.parametrize("items,center,command", [
        # below every cutoff, shift ~5.485e119
        ({"atom.omega": "0.5", "atom.dipole_y_re": "1e60"},
         "-5.485005837988792e+119", "decay"),
        (VACUUM_NEAR_CUTOFF, "-31.315267937537783", "decay"),
        # the emitter chain behind corr meets the same refusal
        (VACUUM_NEAR_CUTOFF, "-31.315267937537783", "corr"),
    ])
    def test_line_center_at_or_below_zero_refused(self, tmp_path, capsys,
                                                  items, center, command):
        conf = write_config(tmp_path, **items)
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", conf, "--out",
                     str(out)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"line center {center} is not positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_table_without_rows_keeps_its_header(self, tmp_path,
                                                 out_format):
        # demo.conf at omega 0.1: the auto window (0.02, 0.5) lies below
        # the 0.8333 cutoff, so there is no channel and no contribution
        conf = tmp_path / "low.conf"
        conf.write_text(DEMO.read_text(encoding="utf-8").replace(
            "atom.omega = 1.45", "atom.omega = 0.1"), encoding="utf-8")
        out = tmp_path / f"decay.{out_format}"
        assert main(["decay", "--config", str(conf), "--format",
                     out_format, "--out", str(out),
                     "--reproducible"]) == EXIT_OK
        columns = ["kind", "polarization", "m", "n", "branch",
                   "direction", "weight", "coupling_re", "coupling_im",
                   "value"]
        if out_format == "csv":
            meta, header, rows = read_table(str(out))
            window = meta["summary.window_lo"], meta["summary.window_hi"]
        else:
            doc = json.loads(out.read_text(encoding="utf-8"))
            header, rows = doc["columns"], doc["rows"]
            window = doc["summary"]["window_lo"], doc["summary"]["window_hi"]
        assert list(map(float, window)) == [0.02, 0.5]
        assert header == columns
        assert rows == []

    def test_convergence_failure_exits_4(self, tmp_path, capsys,
                                         monkeypatch):
        def stalled(f, segments, name=None):
            raise ConvergenceError("quadrature stalled")
        monkeypatch.setattr(emission, "_lockstep", stalled)
        conf = write_config(tmp_path)
        out = tmp_path / "decay.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["decay", "--config", conf, "--out", str(out)])
        assert code == EXIT_CONVERGENCE
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err \
            == "convergence failure: quadrature stalled\n"
        assert not out.exists()

    def test_convergence_failure_names_its_segment(self, tmp_path, capsys):
        # so weak a coupling that the shift's quadrature never converges
        conf = write_config(tmp_path, **{"atom.dipole_y_re": "0.00248"})
        out = tmp_path / "decay.csv"
        assert main(["decay", "--config", conf, "--out", str(out)]) \
            == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"convergence failure: quadrature did not reach rel_tol=1e-12 "
            r"after 12 refinements on the T[EM]\(\d+,\d+\) "
            r"(propagating|localized) segment over nu in \[[\d.e+-]+, "
            r"[\d.e+-]+\], relative change \d(\.\d)?e-\d+\n", err), err
        assert not out.exists()


class TestCorrCommand:
    def test_artifact_sidecar_and_cone(self, tmp_path):
        conf = write_config(tmp_path, **{
            "grid.z_count": "30", "grid.t_count": "30"})
        out = str(tmp_path / "corr.csv")
        assert main(["corr", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, header, rows = read_table(out)
        assert header == ["x", "z", "t", "g1", "inside_cone"]
        assert len(rows) == 30 * 30
        for row in rows:
            if row[4] == "false":
                assert float(row[3]) == 0.0
        side = json.load(open(out + ".json"))
        fit = side["fit"]
        # slopes of log g1: time slope -rate, axial slope the signed
        # spatial rate; both fitted off an exact double exponential
        assert fit["fitted_temporal_slope"] == pytest.approx(
            -fit["decay_rate"], rel=5e-3)
        assert fit["fitted_spatial_slope"] == pytest.approx(
            fit["spatial_rate"], rel=5e-3)
        assert fit["slope_ratio"] == pytest.approx(
            fit["spatial_over_temporal_exact"], rel=1e-6)
        assert float(
            side["envelope"]["discrepancies"]
            ["grid_consistency_max_rel"]) < 1e-10

    def test_failed_sidecar_leaves_no_table(self, tmp_path, capsys):
        # a directory where the sidecar goes: the table is not left
        # behind without it
        conf = write_config(tmp_path)
        out = tmp_path / "corr.csv"
        (tmp_path / "corr.csv.json").mkdir()
        assert main(["corr", "--config", conf, "--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot write artifact" in err and "corr.csv.json" in err

    @pytest.mark.parametrize("error", [OSError, RuntimeError])
    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_failed_stream_leaves_no_artifact(self, tmp_path, capsys,
                                              monkeypatch, error,
                                              out_format):
        # the grid fails after its first block is written
        grid_rows = cli._grid_rows

        def broken(*args, **kwargs):
            yield next(grid_rows(*args, **kwargs))
            raise error("render failed")

        monkeypatch.setattr(cli, "_grid_rows", broken)
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 100)
        conf = write_config(tmp_path)
        out = tmp_path / f"c.{out_format}"
        argv = ["corr", "--config", conf, "--format", out_format,
                "--out", str(out)]
        if error is OSError:
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert "cannot write artifact" in err
        else:
            with pytest.raises(RuntimeError):
                main(argv)
        assert sorted(tmp_path.iterdir()) == [tmp_path / "run.conf"]

    def test_failed_stream_keeps_a_linked_target(self, tmp_path,
                                                 monkeypatch):
        # a symbolic link is written through and never removed, so the
        # link and the file it names both survive the failure
        grid_rows = cli._grid_rows

        def broken(*args, **kwargs):
            yield next(grid_rows(*args, **kwargs))
            raise OSError("render failed")

        monkeypatch.setattr(cli, "_grid_rows", broken)
        conf = write_config(tmp_path)
        target, link = tmp_path / "target.json", tmp_path / "c.json"
        target.write_bytes(b"old")
        link.symlink_to(target)
        assert main(["corr", "--config", conf, "--format", "json",
                     "--out", str(link)]) == EXIT_CONFIG
        assert link.is_symlink() and target.is_file()

    def test_temporal_slope_on_dense_line(self, tmp_path):
        # 200 time samples on one axial row
        conf = write_config(tmp_path, **{
            "grid.z_count": "12", "grid.t_count": "200"})
        out = str(tmp_path / "corr.json")
        assert main(["corr", "--config", conf, "--out", out,
                     "--format", "json", "--reproducible"]) == EXIT_OK
        doc = json.load(open(out))
        fit = doc["fit"]
        assert fit["fitted_temporal_slope"] == pytest.approx(
            -fit["decay_rate"], rel=5e-3)

    def test_below_cutoff_is_domain_error(self, tmp_path, capsys):
        conf = write_config(tmp_path, **{"atom.omega": "0.5"})
        out = str(tmp_path / "corr.csv")
        assert main(["corr", "--config", conf, "--out", out]) \
            == EXIT_DOMAIN
        assert "traveling" in capsys.readouterr().err

    def test_csv_to_stdout_rejected_before_computing(self, tmp_path,
                                                     capsys):
        # the table and its JSON sidecar cannot share one stream; a
        # below-cutoff emitter shows the refusal comes first
        conf = write_config(tmp_path, **{"atom.omega": "0.5"})
        assert main(["corr", "--config", conf]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @staticmethod
    def refused_before_computing(tmp_path, capsys, monkeypatch, items):
        # exit 2 with one stderr line, no artifact, and the emitter
        # chain never entered
        def chain(*args, **kwargs):
            raise AssertionError("the emitter chain ran")

        monkeypatch.setattr(config_module, "solve_emitter", chain)
        conf = write_config(tmp_path, **items)
        out = tmp_path / "corr.csv"
        assert main(["corr", "--config", conf, "--out", str(out)]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()
        assert not (tmp_path / "corr.csv.json").exists()
        return captured.err

    @pytest.mark.parametrize("bounds", [
        {"grid.x_max": "3.285"}, {"grid.x_min": "-0.5"},
        {"grid.x_min": "3.3", "grid.x_max": "3.5"}])
    def test_x_bounds_outside_guide_rejected(self, tmp_path, capsys,
                                             monkeypatch, bounds):
        # refused before the emitter chain runs, not by the detection
        # point check at the end of it
        err = self.refused_before_computing(
            tmp_path, capsys, monkeypatch, {"grid.x_count": "3", **bounds})
        assert "grid.x_min and grid.x_max" in err

    def test_x_bounds_on_the_walls_accepted(self, tmp_path):
        conf = write_config(tmp_path, **{
            "grid.x_min": "0.0", "grid.x_max": BASE["waveguide.a"],
            "grid.x_count": "3", "grid.z_count": "8",
            "grid.t_count": "8"})
        assert main(["corr", "--config", conf, "--out",
                     str(tmp_path / "corr.csv")]) == EXIT_OK

    @pytest.mark.parametrize("key", ["grid.t_count", "grid.z_count"])
    def test_grid_too_short_to_fit_rejected(self, tmp_path, capsys, key):
        # each rate fit needs eight causal cells; fewer samples cannot
        # supply them, whatever the time range
        conf = write_config(tmp_path, **{key: "4"})
        out = tmp_path / "corr.csv"
        assert main(["corr", "--config", conf, "--out", str(out)]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "at least 8" in captured.err
        assert not out.exists()
        assert not (tmp_path / "corr.csv.json").exists()
        # the bound is the fit's, so the other commands keep short grids
        assert main(["decay", "--config", conf, "--out",
                     str(tmp_path / "decay.csv")]) == EXIT_OK

    def test_axial_fit_on_grid_straddling_source(self, tmp_path):
        # the map decays in |z - z0| on both sides of the atom, so the
        # axial slope is fitted against that distance, not against z
        conf = write_config(tmp_path, **{
            "grid.z_min": "-10.0", "grid.z_max": "10.0",
            "grid.z_count": "40", "grid.t_count": "40"})
        out = tmp_path / "corr.json"
        assert main(["corr", "--config", conf, "--out", str(out),
                     "--format", "json", "--reproducible"]) == EXIT_OK
        fit = json.loads(out.read_text())["fit"]
        assert fit["fitted_spatial_slope"] == pytest.approx(
            fit["spatial_rate"], rel=5e-3)
        assert fit["slope_ratio"] == pytest.approx(
            fit["spatial_over_temporal_exact"], rel=1e-6)
        assert fit["max_log_residual"] < 1e-9

    def test_auto_time_grid_measured_from_atom(self, tmp_path):
        # samples 280 to 299 away from the atom: the automatic start
        # must sit behind the front at 299, not at max |z| = 20
        conf = write_config(tmp_path, **{"atom.z0": "300.0"})
        out = tmp_path / "corr.json"
        assert main(["corr", "--config", conf, "--out", str(out),
                     "--format", "json", "--reproducible"]) == EXIT_OK
        fit = json.loads(out.read_text())["fit"]
        assert fit["fitted_temporal_slope"] == pytest.approx(
            -fit["decay_rate"], rel=1e-9)
        assert fit["fitted_spatial_slope"] == pytest.approx(
            fit["spatial_rate"], rel=1e-9)

    @pytest.mark.parametrize("z_grid", [
        {"grid.z_min": "5.0", "grid.z_max": "5.0"},
        # eight samples mirrored about the atom: four distances
        {"grid.z_min": "-3.5", "grid.z_max": "3.5", "grid.z_count": "8"}],
        ids=["single_plane", "mirrored"])
    def test_too_few_axial_distances_rejected(self, tmp_path, capsys,
                                              monkeypatch, z_grid):
        err = self.refused_before_computing(tmp_path, capsys,
                                            monkeypatch, z_grid)
        assert "distinct axial distances" in err

    @pytest.mark.parametrize("t_max", ["10.0", "50.0"])
    def test_time_bounds_must_increase(self, tmp_path, capsys,
                                       monkeypatch, t_max):
        err = self.refused_before_computing(
            tmp_path, capsys, monkeypatch,
            {"grid.t_min": "50.0", "grid.t_max": t_max})
        assert "grid.t_max above grid.t_min" in err


class TestOmegadCommand:
    def test_both_models_always_reported(self, tmp_path):
        conf = write_config(tmp_path)
        out = str(tmp_path / "om.csv")
        assert main(["omegad", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, header, rows = read_table(out)
        assert [r[0] for r in rows] == ["paper", "consistent"]
        by_model = {r[0]: r for r in rows}
        assert by_model["paper"][1] == "crossing"
        assert by_model["consistent"][1] == "no_crossing"
        closed = float(by_model["paper"][2])
        root = float(by_model["paper"][3])
        assert closed != root
        assert float(by_model["paper"][4]) == pytest.approx(
            abs(root - closed) / root, rel=1e-9)

    def test_selected_model_without_crossing_exits_six(self, tmp_path,
                                                      capsys):
        conf = write_config(tmp_path)
        out = str(tmp_path / "om.csv")
        assert main(["omegad", "--config", conf, "--out", out,
                     "--radicand", "consistent",
                     "--reproducible"]) == EXIT_NO_CROSSING
        _, _, rows = read_table(out)
        assert len(rows) == 2
        assert capsys.readouterr().err == (
            "no crossing: the 'consistent' continuation never crosses: "
            "its axial rate 2|beta_i| tends to rate/v_g, above n*rate "
            "at every line center\n")

    @pytest.mark.parametrize("dipole", ["1e40", "1e76"])
    def test_fast_decay_has_no_crossing(self, tmp_path, capsys, dipole):
        # the quartic candidate overflowed here once; the rate is far
        # above the 'paper' crossing's limit of 4.08
        conf = write_config(tmp_path, **{"atom.dipole_y_re": dipole})
        out = str(tmp_path / "om.csv")
        assert main(["omegad", "--config", conf, "--out", out]) \
            == EXIT_NO_CROSSING
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("no crossing: the 'paper' continuation "
                              "crosses only where h^2/(n - 1) > "
                              "n*rate^2/4, and here 5.0")
        _, _, rows = read_table(out)
        assert [r[1] for r in rows] == ["no_crossing", "no_crossing"]
        assert all(math.isfinite(float(r[2])) for r in rows)

    def test_below_cutoff_refused_as_corr_does(self, tmp_path, capsys):
        conf = write_config(tmp_path, **{"atom.omega": "0.5"})
        errs = []
        for command in ("corr", "omegad"):
            assert main([command, "--config", conf, "--out",
                         str(tmp_path / f"{command}.csv")]) == EXIT_DOMAIN
            errs.append(capsys.readouterr().err)
        assert errs == 2 * ["domain error: the transition lies below every "
                            "cutoff and feeds no traveling channel\n"]


# grids corr refuses: the first three before the emitter chain runs,
# the last once the decay rate places the automatic time grid
CORR_REFUSALS = [
    {"grid.z_min": "5.0", "grid.z_max": "5.0"},
    {"grid.x_min": "-1.0"},
    {"grid.t_min": "50.0", "grid.t_max": "10.0"},
    {"grid.t_max": "1.0"},
]


class TestValidateCommand:
    def test_all_pass_each_name_once(self, tmp_path):
        conf = write_config(tmp_path)
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_OK
        meta, header, rows = read_table(out)
        names = [r[0] for r in rows]
        assert len(names) == len(set(names)) == 10
        assert all(r[1] == "true" for r in rows)
        assert meta["summary.failures"] == "0"

    def test_fault_injection_bites_normalization(self, tmp_path,
                                                 monkeypatch):
        # one-quantum amplitudes off by 5e-4 relative: only the energy
        # check reads them, and it must fail
        normalize = validate.normalize
        monkeypatch.setattr(validate, "normalize", lambda *a, **k: (
            normalize(*a, **k) * (1.0 + 5e-4)))
        conf = write_config(tmp_path)
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        _, _, rows = read_table(out)
        failed = [r[0] for r in rows if r[1] == "false"]
        assert failed == ["energy_normalization"]

    def test_square_guide_below_cutoff(self, tmp_path):
        # TE(1,0) and TE(0,1) share the lowest cutoff; the below-cutoff
        # oracle still runs on the first, and only the checks that need
        # a traveling channel fail
        conf = write_config(tmp_path, **{
            "waveguide.b": BASE["waveguide.a"], "atom.omega": "0.5"})
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        _, _, rows = read_table(out)
        failed = [r[0] for r in rows if r[1] == "false"]
        assert failed == ["box_length_invariance", "correlation_consistency"]
        oracle = next(r for r in rows if r[0] == "markov_oracle")
        assert oracle[4] == "below-cutoff excitation stays on the atom"

    @pytest.mark.parametrize("items", [
        {"waveguide.b": BASE["waveguide.a"], "atom.omega": "0.5"},
        {"atom.dipole_y_re": "0.0", "atom.dipole_x_re": "0.124"}],
        ids=["below_cutoff", "x_dipole_on_axis"])
    def test_zero_rate_fails_box_invariance(self, items):
        # with both totals zero the box length has nothing to change:
        # the check cannot run, so its row fails and says why
        row = next(r for r in run_checks(parse_config(config_text(**items)))
                   if r.name == "box_length_invariance")
        assert not row.passed
        assert row.measured == math.inf
        assert row.detail == ("both decay totals are zero; there is no "
                              "rate to compare")

    def test_index_bound_fails_the_enumerating_checks(self, tmp_path):
        # a bound the emitter's band reaches is each enumerating check's
        # failure, with the refusal as its detail, not an abort
        conf = write_config(tmp_path)
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--max-mn", "1", "--reproducible"]) == EXIT_VALIDATION
        _, _, rows = read_table(out)
        assert len(rows) == 10
        # the detail names TE(1,0); its quoted comma stays in the cell
        assert all(len(r) == 5 for r in rows)
        failed = {r[0]: r[4] for r in rows if r[1] == "false"}
        assert set(failed) == {"box_length_invariance",
                               "correlation_consistency", "markov_oracle"}
        assert all("at the index bound 1" in d for d in failed.values())

    def test_underflowing_self_overlaps_fail_orthogonality(self, tmp_path,
                                                           capsys):
        conf = write_config(tmp_path, **{"waveguide.mu": "1e-300"})
        out = str(tmp_path / "val.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["validate", "--config", conf, "--out", out,
                         "--reproducible"])
        assert code == EXIT_VALIDATION
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        _, _, rows = read_table(out)
        assert len(rows) == 10
        row = next(r for r in rows if r[0] == "mode_orthogonality")
        assert row[1:3] == ["false", "inf"]
        assert "underflow" in row[4]
        # a measurement that overflows says so, whatever the check
        # would report of a finite one
        row = next(r for r in rows if r[0] == "energy_normalization")
        assert row[1:3] == ["false", "inf"]
        assert row[4] == "the measurement is not finite (inf)"

    def test_underflowing_field_energy_fails_normalization(self, tmp_path):
        # TE(1,0) is probed at 1.7e-153, where its field energy sums to
        # 0.0: the row fails on that, not as a 100% error
        conf = write_config(tmp_path, **{"waveguide.eps": "1e306",
                                         "waveguide.mu": "1.0"})
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        _, _, rows = read_table(out)
        row = next(r for r in rows if r[0] == "energy_normalization")
        assert row[1:3] == ["false", "inf"]
        assert row[4] == "the field energy underflows to zero"

    def test_overflowing_amplitude_fails_markov_oracle(self, tmp_path):
        # the oracle's bins below cutoff refuse the overflowing
        # one-quantum amplitude, and the refusal is the row's detail;
        # decay has no such bins and still succeeds
        conf = write_config(tmp_path, **{"waveguide.mu": "1e-300"})
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        _, _, rows = read_table(out)
        assert len(rows) == 10
        row = next(r for r in rows if r[0] == "markov_oracle")
        assert row[1:4] == ["false", "inf", "nan"]
        assert row[4].startswith(
            "the one-quantum amplitude of TE(1,0) is not finite")
        assert main(["decay", "--config", conf, "--out",
                     str(tmp_path / "decay.csv")]) == EXIT_OK

    @pytest.mark.parametrize("dos", ["paper", "dispersion"])
    def test_markov_oracle_takes_the_library_window(self, monkeypatch, dos):
        # Gamma = 0.35 puts omega - 25 Gamma below zero; the oracle's
        # cells span the shift window the library would pick, clamped
        # at 0.02 omega, and the row measures instead of refusing it
        cfg = parse_config(config_text(**{"atom.dipole_y_re": "0.5",
                                          "models.dos": dos}))
        seen = []
        build_bins = validate.build_bins
        monkeypatch.setattr(validate, "build_bins", lambda *a, **k: (
            seen.append(k["window"]) or build_bins(*a, **k)))
        row = next(r for r in run_checks(cfg) if r.name == "markov_oracle")
        spec, atom = cfg.waveguide_spec(), cfg.atom()
        rate = emission.decay_rate(spec, atom, cfg.box(), cfg.dos,
                                   max_index=cfg.max_mn).total
        assert seen == [emission.auto_shift_window(
            spec, atom.transition_frequency, rate, max_index=cfg.max_mn)]
        assert seen[0][0] == 0.02 * atom.transition_frequency
        assert row.detail == "traveling-channel decay against the exponential"
        assert math.isfinite(row.measured)

    def test_zero_rate_fails_markov_oracle(self):
        # an open channel the dipole does not couple to: no exponential
        # to compare, so the row fails and says why
        items = {"atom.dipole_y_re": "0.0", "atom.dipole_x_re": "0.124"}
        row = next(r for r in run_checks(parse_config(config_text(**items)))
                   if r.name == "markov_oracle")
        assert not row.passed
        assert row.measured == math.inf
        assert row.detail == ("the decay rate is zero; there is no "
                              "exponential to compare")

    @pytest.mark.parametrize("dos", ["paper", "dispersion"])
    def test_correlation_check_reads_the_corr_run(self, tmp_path, dos):
        val, corr = str(tmp_path / "val.csv"), str(tmp_path / "corr.csv")
        assert main(["validate", "--config", str(DEMO), "--dos", dos,
                     "--out", val, "--reproducible"]) == EXIT_OK
        assert main(["corr", "--config", str(DEMO), "--dos", dos,
                     "--out", corr, "--reproducible"]) == EXIT_OK
        _, _, rows = read_table(val)
        measured = next(r[2] for r in rows
                        if r[0] == "correlation_consistency")
        meta, _, _ = read_table(corr)
        assert measured == meta["discrepancy.grid_consistency_max_rel"]

    def test_correlation_check_catches_a_skewed_spatial_rate(
            self, monkeypatch):
        # the closed form reads the axial rate through spatial_rate and
        # the complex amplitude reads beta_i; a rate off by 1e-9
        # relative must push the figure past the check's tolerance
        rate = PoleResult.spatial_rate.fget
        monkeypatch.setattr(PoleResult, "spatial_rate", property(
            lambda pole: rate(pole) * (1.0 + 1e-9)))
        cfg = load_config(str(DEMO))
        assert cfg.correlation().metadata.consistency_max_rel > 1e-12
        row = next(r for r in run_checks(cfg)
                   if r.name == "correlation_consistency")
        assert not row.passed
        assert row.measured > row.tolerance == 1e-12

    @pytest.mark.parametrize("items", CORR_REFUSALS,
                             ids=lambda items: ",".join(items))
    def test_correlation_check_refuses_as_corr_does(self, tmp_path,
                                                    capsys, items):
        # the grids corr refuses fail the row that reads its map, with
        # corr's own message, and nothing else
        conf = write_config(tmp_path, **items)
        assert main(["corr", "--config", conf, "--out",
                     str(tmp_path / "corr.csv")]) == EXIT_CONFIG
        refusal = capsys.readouterr().err.removeprefix(
            "configuration error: ").rstrip("\n")
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        meta, header, rows = read_table(out)
        detail = header.index("detail")
        assert {r[0]: r[detail] for r in rows if r[1] == "false"} \
            == {"correlation_consistency": refusal}
        assert meta["summary.failures"] == "1"

    def test_correlation_check_refuses_as_decay_does(self, tmp_path,
                                                     capsys):
        # a line center at or below zero fails the row that reads the
        # map with the line decay prints
        conf = write_config(tmp_path, **VACUUM_NEAR_CUTOFF)
        assert main(["decay", "--config", conf, "--out",
                     str(tmp_path / "decay.csv")]) == EXIT_DOMAIN
        refusal = capsys.readouterr().err.removeprefix(
            "domain error: ").rstrip("\n")
        out = str(tmp_path / "val.csv")
        assert main(["validate", "--config", conf, "--out", out,
                     "--reproducible"]) == EXIT_VALIDATION
        _, header, rows = read_table(out)
        detail = header.index("detail")
        assert next(r[detail] for r in rows
                    if r[0] == "correlation_consistency") == refusal

    @pytest.mark.parametrize("items", CORR_REFUSALS[:3],
                             ids=lambda items: ",".join(items))
    def test_correlation_check_refuses_before_computing(self, monkeypatch,
                                                        items):
        def chain(*args, **kwargs):
            raise AssertionError("the emitter chain ran")

        monkeypatch.setattr(config_module, "solve_emitter", chain)
        row = next(r for r in run_checks(parse_config(config_text(**items)))
                   if r.name == "correlation_consistency")
        assert not row.passed
        assert row.detail.startswith("corr needs")

    def test_sample_poles_computed_once(self, monkeypatch):
        calls = []
        pole_fn = validate.pole

        def counted(*args, **kwargs):
            calls.append(args)
            return pole_fn(*args, **kwargs)

        monkeypatch.setattr(validate, "pole", counted)
        run_checks(load_config(str(DEMO)))
        assert len(calls) == 200

    def test_refused_pole_draw_fails_both_pole_rows(self):
        # a legal guide whose sample poles overflow: the battery still
        # writes its table, and the two rows that read the poles fail
        rows = {r.name: r for r in run_checks(parse_config(config_text(
            **{"waveguide.eps": "1e306", "waveguide.mu": "1.0"})))}
        assert len(rows) == 10
        for name in ("pole_identity", "pole_principal_root"):
            assert not rows[name].passed
            assert rows[name].detail.endswith(
                "overflow the pole arithmetic")

    @pytest.mark.parametrize("mu", ["1.44", "1e-300"])
    def test_rows_hold_plain_types(self, mu):
        text = DEMO.read_text(encoding="utf-8").replace(
            "waveguide.mu = 1.44", f"waveguide.mu = {mu}")
        for row in run_checks(parse_config(text)):
            assert type(row.measured) is float
            assert type(row.tolerance) is float
            assert type(row.passed) is bool

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e3, 1e4])
    def test_residual_checks_scale_with_the_guide(self, scale):
        # guide and atom scaled by s, the transition by 1/s: the probe
        # point and the stencil step scale along, so the residual rows
        # read what they read on the demo instead of refusing a
        # stencil that straddles a wall or sampling rounding noise
        lengths = ("waveguide.a", "waveguide.b", "atom.x0", "atom.y0")
        text = config_text(
            **{k: repr(float(BASE[k]) * scale) for k in lengths},
            **{"atom.omega": repr(1.45 / scale)})
        names = ("helmholtz_residual", "divergence_residual")
        want = [r for r in run_checks(parse_config(config_text()))
                if r.name in names]
        got = [r for r in run_checks(parse_config(text)) if r.name in names]
        assert [r.name for r in got] == list(names)
        for row, demo in zip(got, want):
            assert row.passed
            assert row.measured == pytest.approx(demo.measured, rel=1e-2)


class TestExitCodes:
    def test_one_code_per_error_class(self, tmp_path, capsys, monkeypatch):
        # each WgError subclass of wgqed.errors, raised by a handler,
        # leaves main with a code of its own, documented in the exit
        # code table, and one line on stderr
        classes = [c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, errors.WgError)
                   and c is not errors.WgError]
        schema = (DEMO.parent.parent / "docs" / "artifact_schema.md"
                  ).read_text(encoding="utf-8")
        table = schema[schema.index("## Exit codes"):]
        documented = {int(c) for c in re.findall(r"^\| (\d+) \|", table,
                                                 flags=re.M)}
        conf = write_config(tmp_path)
        for command in COMMANDS:
            codes = set()
            for cls in classes:
                def refuse(config, args, cls=cls):
                    raise cls("refused")

                monkeypatch.setattr(cli, f"cmd_{command}", refuse)
                codes.add(main([command, "--config", conf]))
                err = capsys.readouterr().err
                assert err.count("\n") == 1 \
                    and err.endswith(": refused\n")
            assert len(codes) == len(classes) > 0
            assert codes <= documented - {EXIT_OK}

    def test_refusal_table_routes_each_class_once(self):
        # main's one handler reads its line prefix and status from the
        # table: a row for each concrete class of wgqed.errors, at the
        # status its docstring gives, with the frozen stderr prefixes
        concrete = {c for c in vars(errors).values() if isinstance(c, type)
                    and issubclass(c, errors.WgError)
                    and c is not errors.WgError}
        assert set(cli._REFUSALS) == concrete
        named = {getattr(errors, name): int(status) for name, status
                 in re.findall(r"(\w+Error) (\d)", errors.__doc__)}
        assert {cls: status for cls, (_, status)
                in cli._REFUSALS.items()} == named
        assert {cls.__name__: row for cls, row in cli._REFUSALS.items()} \
            == {"ConfigError": ("configuration error", EXIT_CONFIG),
                "DomainError": ("domain error", EXIT_DOMAIN),
                "ConvergenceError": ("convergence failure",
                                     EXIT_CONVERGENCE),
                "NoCrossingError": ("no crossing", EXIT_NO_CROSSING)}
        assert sorted(named.values()) == [2, 3, 4, 6]

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("waveguide.a = -1\n")
        assert main(["modes", "--config", str(bad)]) == EXIT_CONFIG

    def test_oversized_grid_is_one_line(self, tmp_path, capsys):
        conf = write_config(tmp_path, **{"grid.x_count": "7",
                                         "grid.z_count": "400",
                                         "grid.t_count": "400"})
        assert main(["corr", "--config", conf, "--out",
                     str(tmp_path / "corr.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "grid points" in err
        assert not (tmp_path / "corr.csv").exists()

    def test_oversized_modes_table_is_one_line(self, tmp_path, capsys):
        # max_mn = 707 would tabulate 708^2 - 1 + 707^2 = 1,001,112 rows
        conf = write_config(tmp_path)
        out = tmp_path / "modes.csv"
        start = time.perf_counter()
        assert main(["modes", "--config", conf, "--max-mn", "707",
                     "--out", str(out)]) == EXIT_CONFIG
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "1001112 rows" in err
        assert not out.exists()

    def test_max_mn_override_below_one_is_one_line(self, tmp_path,
                                                   capsys):
        conf = write_config(tmp_path)
        out = tmp_path / "modes.csv"
        assert main(["modes", "--config", conf, "--max-mn", "0",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "max_mn" in err
        assert not out.exists()

    # demo.conf changes that overflow the rate or its square, underflow
    # (pi/a)^2 or ask for a mode scan of 2e12 rows, each with the words
    # of its refusal
    EXTREMES = {
        "dipole_1e154": ({"atom.dipole_y_re": "1e154"},
                         "the decay rate or its square overflows"),
        "dipole_1e160": ({"atom.dipole_y_re": "1e160"},
                         "the decay rate or its square overflows"),
        "dipole_1e300": ({"atom.dipole_y_re": "1e300"},
                         "the decay rate or its square overflows"),
        "wide_guide": ({"waveguide.a": "1e200"},
                       "the squared transverse wavenumber of TE(1,0) "
                       "underflows to zero"),
        "mode_scan": ({"waveguide.eps": "1e300",
                       "models.max_mn": "1000000"},
                      "has 2000002000000 patterns, over the limit of "
                      "1000000"),
    }

    @pytest.mark.parametrize("command", ["decay", "corr", "omegad",
                                         "validate"])
    @pytest.mark.parametrize("case", sorted(EXTREMES))
    def test_extreme_emitter_or_guide_is_refused_in_one_line(
            self, tmp_path, capsys, monkeypatch, command, case):
        # refused before any shift quadrature runs, with no warning and
        # no traceback; validate fails the rows that need the emitter
        items, words = self.EXTREMES[case]

        def no_shift(*args, **kwargs):
            raise AssertionError("the shift quadrature ran")

        monkeypatch.setattr("wgqed.emission._lockstep", no_shift)
        conf = write_config(tmp_path, **items)
        out = tmp_path / f"{command}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--config", conf, "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if command != "validate":
            assert rc == EXIT_DOMAIN
            assert err.count("\n") == 1 and err.endswith("\n")
            # the wide guide's scan refuses first, at its index bound
            assert (words if case != "wide_guide"
                    else "at the index bound 8") in err
            assert not out.exists()
            return
        assert rc == EXIT_VALIDATION
        assert err == ""
        _, _, rows = read_table(str(out))
        assert len(rows) == 10
        failed = {r[0]: r[4] for r in rows if r[1] == "false"}
        named = {"box_length_invariance", "correlation_consistency",
                 "markov_oracle"}
        if case == "wide_guide":
            named = {"helmholtz_residual", "divergence_residual",
                     "mode_orthogonality", "energy_normalization"}
        assert named <= failed.keys()
        assert all(words in failed[name] for name in named)

    @pytest.mark.parametrize("command", ["decay", "corr", "omegad"])
    def test_dipole_of_dbl_max_is_one_line(self, tmp_path, child_env,
                                           command):
        # the couplings overflow to inf and nan, with no warning; in a
        # child, where pytest's capture cannot take a warning, stderr
        # holds the refusal alone
        conf = write_config(tmp_path, **{
            "atom.dipole_y_re": repr(sys.float_info.max)})
        out = tmp_path / f"{command}.csv"
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "wgqed", command,
             "--config", conf, "--out", str(out)],
            capture_output=True, text=True, env=child_env, timeout=120)
        assert done.returncode == EXIT_DOMAIN
        assert done.stderr == (
            "domain error: the decay rate or its square overflows the "
            "float range; reduce the dipole moment\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, length",
                             [("decay", "1e308"), ("omegad", "1e-320")])
    def test_box_length_out_of_range_is_one_line(self, tmp_path, capsys,
                                                 command, length):
        # the one-quantum amplitude overflows or underflows out there
        conf = write_config(tmp_path, **{"box.length": length})
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", conf, "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "box.length" in err
        assert not out.exists()

    @pytest.mark.parametrize("dipole", ["1e154", "1e160"])
    def test_overflowing_shift_below_cutoff_is_one_line(
            self, tmp_path, capsys, monkeypatch, dipole):
        # below every cutoff no decay rate bounds the couplings; the
        # shift integrand's first evaluation refuses them, before any
        # refinement and without numpy's warnings
        calls = []
        lockstep = emission._lockstep

        def counting(f, segments, name=None):
            return lockstep(lambda x, seg: calls.append(x.size)
                            or f(x, seg), segments, name)

        monkeypatch.setattr("wgqed.emission._lockstep", counting)
        conf = write_config(tmp_path, **{"atom.omega": "0.5",
                                         "atom.dipole_y_re": dipole})
        out = tmp_path / "decay.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["decay", "--config", conf, "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        assert rc == EXIT_DOMAIN
        assert len(calls) == 1
        assert capsys.readouterr().err == (
            "domain error: the level shift integrand overflows the float "
            "range; reduce the dipole moment\n")
        assert not out.exists()

    def test_modes_table_bound_is_inclusive(self, tmp_path, monkeypatch):
        # with the limit at 24 rows, max_mn = 3 fills it exactly
        # (15 TE + 9 TM) and max_mn = 4 exceeds it
        monkeypatch.setattr("wgqed.cli.MAX_TABLE_ROWS", 24)
        conf = write_config(tmp_path)
        out = str(tmp_path / "modes.csv")
        assert main(["modes", "--config", conf, "--max-mn", "3",
                     "--out", out]) == EXIT_OK
        assert len(read_table(out)[2]) == 24
        assert main(["modes", "--config", conf, "--max-mn", "4",
                     "--out", out]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["modes", "--config",
                     str(tmp_path / "none.conf")]) == EXIT_CONFIG

    def test_unwritable_out(self, tmp_path, capsys):
        conf = write_config(tmp_path)
        out = str(tmp_path / "missing" / "modes.csv")
        assert main(["modes", "--config", conf, "--out", out]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot write" in err

    @pytest.mark.parametrize("argv, head", [
        (["modes", "--max-mn", "60"], 100),
        (["corr", "--format", "json"], 100),
        (["omegad"], 0)], ids=str)
    def test_closed_stdout_pipe_is_one_line(self, child_env, argv, head):
        # the first two artifacts are far larger than a pipe buffer, so
        # the writer meets the read end closed after ``head`` bytes; the
        # small one is still buffered when the child writes it, long
        # after the read end closed. Standard output is buffered, as
        # it is unless PYTHONUNBUFFERED is set.
        child_env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "wgqed", *argv, "--config", str(DEMO)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env)
        proc.stdout.read(head)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_CONFIG
        assert len(err.strip().splitlines()) == 1, err
        assert "cannot write artifact" in err
        assert "Traceback" not in err and "ignored" not in err

    def test_fifo_target_survives_failed_write(self, tmp_path, capsys):
        # the reader opens and closes at once, so the write fails
        # with EPIPE; the FIFO is not removed
        fifo = tmp_path / "modes.csv"
        os.mkfifo(fifo)
        reader = threading.Thread(
            target=lambda: os.close(os.open(fifo, os.O_RDONLY)),
            daemon=True)
        reader.start()
        conf = write_config(tmp_path)
        assert main(["modes", "--config", conf, "--max-mn", "60",
                     "--out", str(fifo)]) == EXIT_CONFIG
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "cannot write artifact" in err

    @pytest.mark.parametrize("argv", [
        [command, "--format", fmt]
        for command in ("modes", "decay", "omegad", "validate")
        for fmt in ("csv", "json")] + [["corr", "--format", "json"]],
        ids=" ".join)
    def test_stdout_matches_out_file(self, tmp_path, capsysbinary, argv):
        argv = argv + ["--config", str(DEMO), "--reproducible"]
        assert main(argv) == EXIT_OK
        shown = capsysbinary.readouterr().out
        out = tmp_path / "artifact"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert shown == out.read_bytes()

    def test_reproducible_runs_identical(self, tmp_path):
        conf = write_config(tmp_path)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{tag}.csv")
            assert main(["decay", "--config", conf, "--out", out,
                         "--reproducible"]) == EXIT_OK
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]


class TestCommandLine:
    @pytest.mark.parametrize("command", ["modes", "decay", "corr"])
    def test_options_on_either_side_of_the_command(self, tmp_path,
                                                   command):
        options = ["--config", str(DEMO), "--format", "json",
                   "--dos", "dispersion", "--max-mn", "6",
                   "--reproducible"]
        outs = []
        for i, argv in enumerate(([command, *options],
                                  [*options, command],
                                  [*options[:4], command, *options[4:]])):
            out = tmp_path / f"{i}.json"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        envelope = json.loads(outs[0])["envelope"]
        assert (envelope["command"], envelope["dos_model"],
                envelope["config"]["models.max_mn"]) \
            == (command, "dispersion", 6)

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--version"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == f"wgqed {cli.__version__}\n"

    def test_help_exits_0_and_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        shown = capsys.readouterr().out
        assert shown.startswith(
            "usage: wgqed COMMAND --config PATH [options]\n")
        assert all(f"{command}:" in shown for command in COMMANDS)

    # each flag with a value its config key refuses, and that key
    @pytest.mark.parametrize("flag, value, key", [
        ("--format", "xml", "output.format"),
        ("--max-mn", "eight", "models.max_mn"),
        ("--dos", "bogus", "models.dos"),
        ("--radicand", "bogus", "models.radicand")])
    def test_bad_flag_value_is_refused_as_its_key(self, tmp_path, capsys,
                                                  flag, value, key):
        out = tmp_path / "decay.csv"
        assert main(["decay", "--config", str(DEMO), flag, value,
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        with pytest.raises(ConfigError) as in_file:
            parse_config(config_text(**{key: value}))
        # "line N: key ... expects ..., got ..." from the file, named by
        # the flag in place of the line
        refusal = str(in_file.value).split(": ", 1)[1]
        assert err == f"configuration error: flag {flag}: {refusal}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, words", [
        (["bogus", "--config", str(DEMO)], "invalid choice: 'bogus'"),
        (["decay"], "the following arguments are required: --config"),
        ([], "the following arguments are required: COMMAND, --config"),
        (["decay", "--config", str(DEMO), "--frob"],
         "unrecognized arguments: --frob"),
        (["decay", "--config"], "expected one argument")],
        ids=["unknown_command", "no_config", "empty", "unknown_flag",
             "config_without_path"])
    def test_bad_command_line_is_one_line(self, capsys, argv, words):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: ") and words in err

    def test_unknown_command_from_the_entry_point(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "wgqed", "bogus", "--config",
             str(DEMO)], capture_output=True, text=True, env=child_env,
            timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "invalid choice: 'bogus'" in proc.stderr


# --- the row-tuple renderer the column renderer replaced, kept as the
# oracle for byte equality ---

def _reference_csv(env, columns, rows, digits, extra=None):
    lines = list(cli._envelope_lines(env, digits))
    for key in sorted(extra or {}):
        for sub in sorted(extra[key]):
            lines.append(
                f"# {key}.{sub} = {cli._fmt(extra[key][sub], digits)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cli._fmt(cell, digits) for cell in row))
    return "\n".join(lines) + "\n"


def _reference_json(env, columns, rows, digits, extra=None):
    doc = {
        "envelope": cli._json_value(env, digits),
        "columns": list(columns),
        "rows": [[cli._json_value(c, digits) for c in row]
                 for row in rows],
    }
    if extra:
        doc.update(cli._json_value(extra, digits))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


REFERENCE = {"csv": _reference_csv, "json": _reference_json}

MIXED_ROWS = [
    (None, True, 3, 0.0, "traveling"),
    (1.0 / 3.0, False, -7, -0.0, "quote \" and é"),
    (float("nan"), None, 0, float("inf"), ""),
    (float("-inf"), True, 10 ** 20, 1e-300, "a,b"),
    (np.float64(2.5e-17), False, None, -123456.789012345, None),
    (1e13, 5e-324, -1, 1.7976931348623157e308, "x.y"),
]
MIXED_COLUMNS = ("a", "b", "c", "d", "e")


def _demo_env():
    return cli._envelope("test", parse_config(config_text()), True,
                         discrepancies={"gap": 1e-9})


def _rendered(out_format, env, table, digits=12, extra=None):
    chunks = cli._csv_chunks if out_format == "csv" else cli._json_chunks
    return b"".join(chunks(env, table, digits, extra)).decode()


class TestColumnRenderer:
    """The column renderer is byte-equal to the row-tuple one."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("digits", [4, 12, 17])
    def test_mixed_cells(self, out_format, digits):
        env = _demo_env()
        plain = dict(zip(MIXED_COLUMNS, zip(*MIXED_ROWS)))
        want = REFERENCE[out_format](env, MIXED_COLUMNS, MIXED_ROWS,
                                     digits)
        assert _rendered(out_format, env, plain, digits) == want
        one_column = [row[-1:] for row in MIXED_ROWS]
        assert _rendered(out_format, env, {"e": plain["e"]}, digits) \
            == REFERENCE[out_format](env, ("e",), one_column, digits)
        # rows whose text is empty are still rows
        assert _rendered(out_format, env, {"e": [None, None]}, digits) \
            == REFERENCE[out_format](env, ("e",), [(None,), (None,)],
                                     digits)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("digits", [4, 12, 17])
    def test_equal_cells_of_other_types_keep_their_text(self, out_format,
                                                        digits):
        # True == 1 == 1.0 and 0.0 == -0.0, in both orders, also for a
        # float subclass
        cells = [True, 1, 1.0, "1", False, 0, 0.0, -0.0, None, "",
                 np.float64(-0.0), np.float64(0.0), np.float64(1.0)]
        column = cells + cells[::-1]
        env = _demo_env()
        assert _rendered(out_format, env, {"v": column}, digits) \
            == REFERENCE[out_format](env, ("v",), [(c,) for c in column],
                                     digits)

    @pytest.mark.parametrize("digits", [4, 12, 17])
    def test_csv_reader_round_trip(self, digits):
        # a string cell comes back whole, its separator and quotes
        # included; every other cell reads back as its text
        env = _demo_env()
        plain = dict(zip(MIXED_COLUMNS, zip(*MIXED_ROWS)))
        text = _rendered("csv", env, plain, digits)
        body = [line for line in text.splitlines() if
                not line.startswith("# ")]
        header, *rows = csv.reader(body)
        assert header == list(MIXED_COLUMNS)
        assert rows == [[c if isinstance(c, str) else cli._fmt(c, digits)
                         for c in row] for row in MIXED_ROWS]

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("extra", [None, {"summary": {"n": 0}}])
    def test_empty_table(self, out_format, extra):
        env = _demo_env()
        table = {"a": [], "b": []}
        got = _rendered(out_format, env, table, extra=extra)
        assert got == REFERENCE[out_format](env, ("a", "b"), [], 12,
                                            extra)
        if out_format == "json":
            assert json.loads(got)["rows"] == []

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_rows_before_summary(self, out_format):
        # "summary" sorts after "rows", so the rows are not the tail
        env = _demo_env()
        extra = {"summary": {"checks": 2, "total": float("nan"),
                             "ok": True, "rate": 0.125}}
        table = dict(zip(MIXED_COLUMNS, zip(*MIXED_ROWS)))
        got = _rendered(out_format, env, table, extra=extra)
        assert got == REFERENCE[out_format](env, MIXED_COLUMNS,
                                            MIXED_ROWS, 12, extra)
        if out_format == "json":
            doc = json.loads(got)
            assert list(doc)[-2:] == ["rows", "summary"]
            assert len(doc["rows"]) == len(MIXED_ROWS)

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_corr_grid_order(self, tmp_path, monkeypatch, out_format):
        # three x rows, unequal z and t counts and cells on both sides
        # of the light front: the index expansion must follow the old
        # x-outer, t-inner loop (the fit needs at least eight causal
        # cells along z and along t)
        seen = {}
        grid_fn, emit_fn = config_module.correlation_grid, cli._emit
        envelope_fn = cli._envelope

        def grid_spy(*args, **kwargs):
            seen["grid"] = grid_fn(*args, **kwargs)
            return seen["grid"]

        def envelope_spy(*args, **kwargs):
            seen["env"] = envelope_fn(*args, **kwargs)
            return seen["env"]

        def emit_spy(args, config, command, table, discrepancies=None,
                     extra=None, **kwargs):
            seen.update(extra=extra, digits=config.digits)
            return emit_fn(args, config, command, table, discrepancies,
                           extra, **kwargs)

        monkeypatch.setattr(config_module, "correlation_grid", grid_spy)
        monkeypatch.setattr(cli, "_envelope", envelope_spy)
        monkeypatch.setattr(cli, "_emit", emit_spy)
        conf = write_config(tmp_path, **{
            "grid.x_min": "1.2", "grid.x_max": "1.9",
            "grid.x_count": "3", "grid.z_count": "9",
            "grid.t_count": "12", "grid.t_min": "2.0",
            "grid.t_max": "60.0"})
        out = tmp_path / f"corr.{out_format}"
        assert main(["corr", "--config", conf, "--format", out_format,
                     "--out", str(out), "--reproducible"]) == EXIT_OK
        grid = seen["grid"]
        assert grid.values.shape == (3, 9, 12)
        assert 0 < grid.inside_cone.sum() < grid.inside_cone.size
        rows = []
        for i, xv in enumerate(grid.x_values):
            for j, zv in enumerate(grid.z_values):
                for k, tv in enumerate(grid.t_values):
                    rows.append((float(xv), float(zv), float(tv),
                                 float(grid.values[i, j, k]),
                                 bool(grid.inside_cone[j, k])))
        want = REFERENCE[out_format](
            seen["env"], ("x", "z", "t", "g1", "inside_cone"), rows,
            seen["digits"], seen["extra"])
        assert out.read_text(encoding="utf-8") == want

    def test_failed_render_writes_nothing(self, tmp_path, monkeypatch):
        def broken(values, digits, json):
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli, "_cells", broken)
        conf = write_config(tmp_path)
        out = tmp_path / "modes.json"
        with pytest.raises(RuntimeError):
            main(["modes", "--config", conf, "--format", "json",
                  "--out", str(out)])
        assert not out.exists()


class TestTableBlocks:
    """A dict table streams in blocks of whole rows, as the grid does."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_modes_blocks_join_to_one_table(self, tmp_path, monkeypatch,
                                            capsysbinary, out_format):
        # the cells of each row block as it is consumed
        chunks, table_text = [], cli._table_text

        def spy(table, digits, json, cell_sep, row_sep):
            columns, rows = table_text(table, digits, json, cell_sep,
                                       row_sep)
            sep = row_sep.encode()

            def seen():
                for chunk in rows:
                    count = chunk.removeprefix(sep).count(sep) + 1
                    chunks.append(count * len(columns))
                    yield chunk
            return columns, seen()

        monkeypatch.setattr(cli, "_table_text", spy)
        argv = ["modes", "--config", str(DEMO), "--format", out_format,
                "--reproducible"]
        whole = tmp_path / "whole"
        assert main(argv + ["--out", str(whole)]) == EXIT_OK
        # demo.conf's table fits one default block: one join of its rows
        cells, = chunks
        chunks.clear()
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 100)
        out = tmp_path / "blocks"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == whole.read_bytes()
        assert capsysbinary.readouterr().out == whole.read_bytes()
        # both runs, each in several blocks of at most 100 cells
        assert sum(chunks) == 2 * cells
        assert len(chunks) > 2
        assert max(chunks) <= 100


# --- the per-cell expression JSON cells used before they reused the
# CSV text, kept as the oracle ---

DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max


def _previous_json_cell(v, digits):
    # the former _json_value inlined for one scalar cell
    spec = f".{digits}g"
    if type(v) is float and math.isfinite(v):
        return repr(float(format(v, spec)))
    if isinstance(v, float):
        v = float(format(v, spec)) if math.isfinite(v) else repr(v)
    return json.dumps(v)


def _oracle_json_cell(v, digits):
    """The previous expression, except that a finite value whose
    rounding overflows is written unrounded."""
    if (isinstance(v, float) and math.isfinite(v)
            and math.isinf(float(format(v, f".{digits}g")))):
        return json.dumps(float(v))
    return _previous_json_cell(v, digits)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not a JSON number")
    return json.loads(text, parse_constant=refuse)


# one or more cells of each class, the reused CSV text first
CELL_CLASSES = [
    # normal floats whose CSV text has a "." and no "e+"
    -2.5, 1.0 / 3.0, 1.5e-7, 123.456, 0.000123,
    # subnormals and the normals next to them
    5e-324, -5e-324, 2.5e-310, DBL_MIN, -DBL_MIN,
    DBL_MIN * (1 + 1e-4), DBL_MIN * (1 - 1e-4),
    # signed zeros and integer-valued floats
    0.0, -0.0, 1.0, -7.0, 12.0, 1000.0, 999.95, 2.0 ** 53,
    # exponents in [N, 16) and beyond
    1.5e5, 1e13, -1.234e15, 9.999e15, 1e16, 1.5e17,
    # near DBL_MAX
    DBL_MAX, -DBL_MAX, 1.79e308, 1.7976e308, 1.797e308,
    # non-finite
    math.inf, -math.inf, math.nan,
    # at 16 and 17 digits the text is not the shortest repr
    9.41013511305455, 0.1,
    # non-float cells
    None, True, False, 0, -3, 10 ** 20, np.float64(2.5),
    np.float64(1e13), np.float64(DBL_MAX), "x.y", "1.5",
]


def _cells(values, digits, json):
    return [text.decode() for text in cli._cells(values, digits, json)]


def _float_cells(values, digits, json):
    # the float cells as one float64 array, through gformat
    floats = np.array([v for v in values if type(v) is float])
    return _cells(floats, digits, json)


class TestJsonCells:
    """JSON cells, per cell and from a float64 array, are what the
    previous per-cell expression wrote, and a finite cell that rounds
    past DBL_MAX stays strict JSON."""

    @given(st.lists(st.floats(), max_size=40), st.integers(3, 17))
    def test_matches_previous_expression(self, values, digits):
        want = [_oracle_json_cell(v, digits) for v in values]
        assert _cells(values, digits, True) == want
        assert _float_cells(values, digits, True) == want

    @pytest.mark.parametrize("digits", range(3, 18))
    def test_cell_classes(self, digits):
        got = _cells(CELL_CLASSES, digits, True)
        assert got == [_oracle_json_cell(v, digits)
                       for v in CELL_CLASSES]
        assert _float_cells(CELL_CLASSES, digits, True) == \
            [_oracle_json_cell(v, digits) for v in CELL_CLASSES
             if type(v) is float]

    def test_overflowing_value_stays_strict_json(self):
        # at 3 digits DBL_MAX rounds to 1.8e+308, past the largest float
        for cells in (_cells, _float_cells):
            assert cells([DBL_MAX, -DBL_MAX], 3, True) == \
                [repr(DBL_MAX), repr(-DBL_MAX)]
        env = _demo_env()
        env["discrepancies"]["huge"] = DBL_MAX
        text = _rendered("json", env, {"a": [DBL_MAX, 1.0]}, digits=3,
                         extra={"fit": {"huge": -DBL_MAX}})
        doc = _strict_json(text)
        assert doc["rows"] == [[DBL_MAX], [1.0]]
        assert doc["envelope"]["discrepancies"]["huge"] == DBL_MAX
        assert doc["fit"]["huge"] == -DBL_MAX



class TestCsvCells:
    """A CSV cell reads back finite exactly when its value is finite;
    below 1e308 it is the N-digit text."""

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(3, 17))
    def test_finite_value_reads_back_finite(self, value, digits):
        cell, = _cells([value], digits, False)
        assert _float_cells([value], digits, False) == [cell]
        assert math.isfinite(float(cell))
        if abs(value) < 1e308:
            assert cell == format(value, f".{digits}g")

    @pytest.mark.parametrize("digits", range(3, 18))
    def test_cell_classes(self, digits):
        for value, cell in zip(CELL_CLASSES,
                               _cells(CELL_CLASSES, digits, False)):
            assert cell == cli._fmt(value, digits)
            if isinstance(value, float):
                assert math.isfinite(float(cell)) == math.isfinite(value)
        assert _float_cells(CELL_CLASSES, digits, False) == \
            [cli._fmt(v, digits) for v in CELL_CLASSES if type(v) is float]

    def test_overflowing_value_keeps_its_digits(self):
        # at 3 digits DBL_MAX rounds to 1.8e+308, which reads back inf
        for cells in (_cells, _float_cells):
            assert cells([DBL_MAX, -DBL_MAX, 1e308], 3, False) == \
                [repr(DBL_MAX), repr(-DBL_MAX), "1e+308"]

    def test_overflowing_numpy_scalar_is_a_number(self):
        # a float subclass keeps its digits as the float's repr, and its
        # JSON value is that float
        for value in (DBL_MAX, -DBL_MAX):
            assert cli._fmt(np.float64(value), 3) == repr(value)
            got = cli._json_value(np.float64(value), 3)
            assert type(got) is float and got == value


class TestArrayCells:
    """An array of integers, strings or bools renders as the Python
    values it holds do, cell by cell, in both formats."""

    INT64 = np.iinfo(np.int64)
    ARRAYS = {
        "int64": np.array([0, -7, 10**13, INT64.min, INT64.max]),
        "str": np.array(["TE", "a,b", 'q"t', "é", "TE"]),
        "bool": np.array([True, False, True]),
    }

    @pytest.mark.parametrize("json_format", [False, True])
    @pytest.mark.parametrize("kind", ARRAYS)
    def test_matches_the_cells_of_its_values(self, kind, json_format):
        values = self.ARRAYS[kind]
        render = cli._json_cell if json_format else cli._fmt
        assert cli._cells(values, 12, json_format) == \
            [render(v, 12).encode() for v in values.tolist()]

    @pytest.mark.parametrize("json_format", [False, True])
    def test_bools_are_words(self, json_format):
        assert cli._cells(self.ARRAYS["bool"], 12, json_format) == \
            [b"true", b"false", b"true"]


# --- the correlation grid's one-fill renderer against the row-tuple
# one ---

def _grid_reference(out_format, env, grid, digits, extra=None):
    inside = np.broadcast_to(grid.inside_cone, grid.values.shape)
    rows = [(x, z, t, g, cell) for (x, z, t), g, cell in zip(
        itertools.product(grid.x_values.tolist(), grid.z_values.tolist(),
                          grid.t_values.tolist()),
        grid.values.ravel().tolist(), inside.ravel().tolist())]
    return REFERENCE[out_format](env, cli.GRID_COLUMNS, rows, digits,
                                 extra)


# g1 cells that the one-fill text may get wrong: signed zeros,
# subnormals, overflowing rounding, non-finite and integer-valued
# values, values at or past 10**(digits - 1), and values that round up
# to 0.5 and 1
GRID_EDGES = [
    0.0, -0.0, 5e-324, -2.5e-310, DBL_MIN, DBL_MAX, -DBL_MAX, 1e308,
    math.inf, -math.inf, math.nan, 1.0, -7.0, 2.0 ** 53, 1e15,
    123456.0, 12345.678, 999.95, 0.4999, 0.9999,
    math.nextafter(0.5, 0.0), math.nextafter(1.0, 0.0),
]


def _grid_cases():
    rng = np.random.default_rng(23)
    shape = (2, 3, 4)

    def grid(values, inside):
        x, z, t = (rng.uniform(-1.0, 3.0, n) for n in shape)
        z[0], t[0] = -0.0, 2.0
        return CorrelationGrid(x_values=x, z_values=z, t_values=t,
                               values=values, inside_cone=inside,
                               metadata=None)

    def smooth():
        inside = rng.random(shape[1:]) < 0.6
        inside[0, -1], inside[-1, 0] = True, False
        return rng.uniform(1e-6, 0.4, shape), inside

    values, inside = smooth()
    yield "front", grid(np.where(inside, values, 0.0), inside)
    yield "unmasked", grid(values, inside)
    yield "negative_zero_outside", grid(np.where(inside, values, -0.0),
                                        inside)
    yield "all_inside", grid(values, np.ones(shape[1:], bool))
    yield "all_outside", grid(np.zeros(shape), np.zeros(shape[1:], bool))
    for edge in GRID_EDGES:
        values, inside = smooth()
        values = np.where(inside, values, 0.0)
        values[1, 0, -1] = edge
        yield f"edge {edge!r}", grid(values, inside)
    # z rows all inside, all outside and crossing the front
    values, inside = smooth()
    inside[:] = [[True] * 4, [False] * 4, [False, True, False, True]]
    yield "row_kinds", grid(values, inside)
    yield "row_kinds_front", grid(np.where(inside, values, 0.0), inside)


def _block_grid(shape, rng, inside=0.7):
    x, z, t = (rng.uniform(-1.0, 3.0, n) for n in shape)
    cone = rng.random(shape[1:]) < inside
    values = np.where(cone, rng.uniform(1e-6, 0.4, shape), 0.0)
    return CorrelationGrid(x_values=x, z_values=z, t_values=t,
                           values=values, inside_cone=cone, metadata=None)


def _block_cases():
    # against a seven-cell block: two z rows a block over five, three
    # over seven, and t rows of nine and of exactly seven cells
    rng = np.random.default_rng(25)
    for shape in ((2, 5, 3), (1, 7, 2), (3, 2, 9), (2, 3, 7)):
        yield f"shape {shape}", _block_grid(shape, rng)


def _spied_grid_rows(monkeypatch, out_format, grid, digits, note=None):
    """The row text of ``grid`` in one format, and ``note`` (by default
    the value itself) of each float its per-cell renderer, ``cli._fmt``
    or ``cli._json_cell``, took while the rows rendered: the array cells
    a mask of ``cli._cells`` refused."""
    name = "_fmt" if out_format == "csv" else "_json_cell"
    render, taken = getattr(cli, name), []

    def spy(value, digits):
        if type(value) is float:
            taken.append(value if note is None else note(value))
        return render(value, digits)

    # the separators _csv_chunks and _json_chunks give _table_text
    seps = {"csv": (",", "\n"),
            "json": (",\n      ", "\n    ],\n    [\n      ")}
    with monkeypatch.context() as patch:
        patch.setattr(cli, name, spy)
        rows = b"".join(cli._grid_rows(grid, digits, out_format == "json",
                                       *seps[out_format]))
    return rows.decode(), taken


class TestGridRenderer:
    """A correlation grid renders as the row-tuple renderer writes its
    rows, on the one-fill path and on the per-cell fallback."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("digits", [3, 12, 15, 16, 17])
    def test_matches_row_tuples(self, monkeypatch, out_format, digits):
        env, taken = _demo_env(), set()
        for case, grid in _grid_cases():
            text = _rendered(out_format, env, grid, digits)
            assert text == _grid_reference(out_format, env, grid, digits), \
                case
            rows, floats = _spied_grid_rows(monkeypatch, out_format, grid,
                                            digits)
            assert rows in text, case
            taken.update(floats)
        # the per-cell renderer takes what the format's mask refuses: in
        # CSV the values whose rounding may overflow; in JSON never a
        # zero or a smooth g1 value, up to 15 digits integer-valued ones
        # such as t = 2.0, from 16 digits on the non-finite ones and those
        # whose rounding overflows alone
        smooth = [v for v in taken if 1e-6 < v < 0.4]
        finite = {v for v in taken if math.isfinite(v)}
        if out_format == "csv":
            assert taken == {DBL_MAX, -DBL_MAX, 1e308}
        elif digits <= 15:
            assert {1.0, 2.0} <= taken
        else:
            assert len(taken) > len(finite)
            assert finite == ({DBL_MAX, -DBL_MAX} if digits == 16 else set())
        assert 0.0 not in taken and not smooth

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    @pytest.mark.parametrize("digits", [3, 12, 15, 16, 17])
    def test_small_blocks_match_row_tuples(self, monkeypatch, out_format,
                                           digits):
        # seven cells a block: one z row a block for the four-cell t
        # rows of _grid_cases, z counts that are not a multiple of the
        # rows per block, and t rows longer than a block
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
        env = _demo_env()
        for case, grid in itertools.chain(_grid_cases(), _block_cases()):
            assert _rendered(out_format, env, grid, digits) == \
                _grid_reference(out_format, env, grid, digits), case

    @pytest.mark.parametrize("out_format, value", [
        ("csv", DBL_MAX), ("json", 1.0)])
    def test_only_the_inexact_block_renders_per_cell(
            self, monkeypatch, out_format, value):
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
        grid = _block_grid((2, 5, 3), np.random.default_rng(7),
                           inside=1.0)
        grid.values[1, 2, 1] = value
        env = _demo_env()
        assert _rendered(out_format, env, grid, 12) == \
            _grid_reference(out_format, env, grid, 12)
        g_texts, blocks = gformat.g_texts, []

        def texts_spy(values, digits):
            blocks.append(values)
            return g_texts(values, digits)

        monkeypatch.setattr(gformat, "g_texts", texts_spy)
        _, taken = _spied_grid_rows(monkeypatch, out_format, grid, 12,
                                    lambda v: (len(blocks), v))
        # the t, z and x axes, then z rows 0-1, 2-3 and 4 of each x
        # value, the value in the fifth: the blocks cover each cell
        # once, in order, and the mask refuses the value alone, so only
        # its cell renders per cell
        assert [values.size for values in blocks] == \
            [3, 5, 2] + [6, 6, 3] * 2
        assert np.concatenate([b.ravel() for b in blocks[3:]]).tolist() \
            == grid.values.ravel().tolist()
        assert taken == [(8, value)]

    @given(st.floats(), st.integers(3, 17))
    @example(math.inf, 12)
    @example(-math.inf, 3)
    @example(math.nan, 17)
    @example(-0.0, 12)
    @example(5e-324, 17)
    @example(-2.5e-310, 3)
    def test_exact_value_fills_its_cell_text(self, value, digits):
        one, text = np.array([value]), f"%.{digits}g" % value
        # the grid template is a bytearray filled by bytes %, which
        # writes the str text
        spec = f"%.{digits}g".encode()
        assert (spec % (value,)).decode() == text
        assert (bytearray(spec) % (value,)).decode() == text
        # and the array path writes each format's cell
        assert cli._cells(one, digits, False) == \
            [cli._fmt(value, digits).encode()]
        assert cli._cells(one, digits, True) == \
            [cli._json_cell(value, digits).encode()]


class TestGridFastPath:
    """On the figure grid the per-cell renderers see at most the axes,
    the cone flags and the envelope, never g1."""

    @pytest.mark.parametrize("out_format", ["csv", "json"])
    def test_per_cell_work_bounded_by_axes(self, tmp_path, monkeypatch,
                                           out_format):
        counts = dict.fromkeys(("_fmt", "_json_cell"), 0)

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(cli, name, counted(name))
        # rows in each chunk as it reaches the file: the grid streams
        # in blocks of at most GRID_BLOCK_CELLS rows
        row_mark = b"\n" if out_format == "csv" else b"\n    ["
        chunk_rows, write = [], cli._write

        def write_spy(outputs):
            def seen(chunks):
                for chunk in chunks:
                    chunk_rows.append(chunk.count(row_mark))
                    yield chunk
            write([(path, seen(chunks)) for path, chunks in outputs])

        monkeypatch.setattr(cli, "_write", write_spy)
        grids = []
        grid_fn = config_module.correlation_grid
        monkeypatch.setattr(
            config_module, "correlation_grid",
            lambda *a, **k: grids.append(grid_fn(*a, **k)) or grids[-1])
        conf = write_config(tmp_path, **{
            "grid.x_count": "4", "grid.z_count": "200",
            "grid.t_count": "200"})
        out = str(tmp_path / f"corr.{out_format}")
        assert main(["corr", "--config", conf, "--format", out_format,
                     "--out", out, "--reproducible"]) == EXIT_OK
        grid, = grids
        assert grid.inside_cone.all()
        envelope = len(dict(load_config(conf).effective_items())) + 2
        # the axes and the two flags
        bound = sum(grid.values.shape) + 2 + envelope
        assert max(counts.values()) <= bound, counts
        assert sum(chunk_rows) >= grid.values.size
        assert max(chunk_rows) <= cli.GRID_BLOCK_CELLS < grid.values.size


def _modules_after_commands(tmp_path, child_env):
    # every module a child process holds after running the five
    # commands on demo.conf in process
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
    script = (
        "import sys\n"
        "from wgqed.cli import main\n"
        "for command in ('modes', 'decay', 'corr', 'omegad', 'validate'):\n"
        f"    rc = main([command, '--config', {str(demo)!r}, '--out',\n"
        f"               {str(tmp_path)!r} + '/' + command + '.csv'])\n"
        "    assert rc == 0, command\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_commands_do_not_import_scipy(tmp_path, child_env):
    # scipy serves only the tail correction of the brute-force
    # detection amplitude; no command may load it
    modules = _modules_after_commands(tmp_path, child_env)
    assert "wgqed.cli" in modules
    assert [m for m in modules if m.startswith("scipy")] == []


def test_corr_does_not_import_numpy_ma(tmp_path, child_env):
    # np.unique would bring numpy.ma, ~15 ms of a fresh run, to the
    # corr grid check; the module list comes from -X importtime
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wgqed", "corr",
         "--config", str(DEMO), "--out", str(tmp_path / "corr.csv")],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "wgqed.config" in imported
    assert "numpy.ma" not in imported


def test_commands_do_not_import_difflib(tmp_path, child_env):
    # difflib serves only the hint for an unknown configuration key
    modules = _modules_after_commands(tmp_path, child_env)
    assert "wgqed.config" in modules
    assert "difflib" not in modules
