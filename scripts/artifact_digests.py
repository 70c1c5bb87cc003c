"""Write the reproducible artifacts and print their digests.

Runs every subcommand on configs/demo.conf with ``--reproducible``,
under both state density models and in both output formats, in
process through ``wgqed.cli.main``. That is 20 artifacts plus the two
JSON sidecars of the CSV ``corr`` runs. It then runs ``corr`` on the
figure grid (4 x 200 x 200, x from 0.35a to 0.65a, paper model) as
CSV with its sidecar and as JSON, and ``decay`` under both models and
in both formats at ``output.digits = 17``, where a one-ulp change of a
rate or a shift shows (the other artifacts round to 12 digits), and
``modes --max-mn 60`` in both formats: 7,320 rows, with every
degenerate TE/TM pair and the ties of the demo guide's a = 2b. It
runs ``corr`` on the demo grid with its time axis starting inside the
light front (``grid.t_min = 0.5``), so that its +0.0 cells outside the
cone sit next to positive ones, as CSV and JSON at 12 digits and as
CSV at ``output.digits`` 13, 14 and 15. Last it runs the refusal
corpus, fixed bad inputs and command lines on demo.conf, and writes
each case's exit code and stderr to ``refusals.txt``; a case that
raises out of ``main`` records the exception type instead. That is 41
files in all. Prints one ``sha256  name`` line per file, sorted by
name, so two checkouts can be compared with ``diff``. The accepted
lines are in ``tests/data/artifact_digests.txt``.

The accepted lines were written with numpy 2.4.6 on Python 3.11.7
and glibc 2.36 (x86-64), at numpy's SIMD dispatch level X86_V3
X86_V4 AVX512_ICL AVX512_SPR over the baseline X86_V2. A lower level
(``NPY_DISABLE_CPU_FEATURES``) moves the last bits of some ``corr``
and ``validate`` artifacts; the golden test's failure message names
the level it ran at.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py OUTDIR
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from wgqed.cli import EXIT_OK, main as cli_main
from wgqed.config import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
COMMANDS = ("modes", "decay", "corr", "omegad", "validate")


# vacuum 1 x 1 guide at pi * 1.01, where the group-velocity shift puts
# the line center below zero
VACUUM_SQUARE_NEAR_CUTOFF = {
    "waveguide.a": "1.0", "waveguide.b": "1.0", "waveguide.mu": "1.0",
    "atom.x0": "0.5", "atom.y0": "0.25", "atom.omega": "3.173008580125691",
    "models.dos": "dispersion"}

# name, arguments after the command, demo.conf keys replaced or added
REFUSALS = (
    ("corr_csv_to_stdout", ["corr"], {}),
    ("corr_single_z_plane", ["corr"],
     {"grid.z_min": "5.0", "grid.z_max": "5.0"}),
    ("corr_t_bounds_reversed", ["corr"],
     {"grid.t_min": "50.0", "grid.t_max": "10.0"}),
    ("corr_x_outside_guide", ["corr"], {"grid.x_min": "-1.0"}),
    ("corr_t_max_before_auto_start", ["corr"], {"grid.t_max": "1.0"}),
    ("modes_max_mn_707", ["modes", "--max-mn", "707"], {}),
    ("decay_box_length_1e308", ["decay"], {"box.length": "1e308"}),
    ("decay_unknown_key", ["decay"], {"atom.omgea": "1.45"}),
    ("corr_below_cutoff", ["corr"], {"atom.omega": "0.5"}),
    ("omegad_consistent_no_crossing",
     ["omegad", "--radicand", "consistent"], {}),
    ("validate_square_guide_below_cutoff", ["validate"],
     {"waveguide.b": "3.141592653589793", "atom.omega": "0.5"}),
    ("corr_atom_far_from_grid", ["corr"], {"atom.z0": "300.0"}),
    ("validate_flat_guide", ["validate"],
     {"waveguide.a": "10.0", "waveguide.b": "0.001", "atom.x0": "5.0",
      "atom.y0": "0.0005"}),
    ("decay_dipole_1e160", ["decay"], {"atom.dipole_y_re": "1e160"}),
    ("corr_dipole_1e160", ["corr"], {"atom.dipole_y_re": "1e160"}),
    ("omegad_dipole_1e160", ["omegad"], {"atom.dipole_y_re": "1e160"}),
    ("validate_dipole_1e160", ["validate"], {"atom.dipole_y_re": "1e160"}),
    ("decay_dipole_1e300", ["decay"], {"atom.dipole_y_re": "1e300"}),
    ("omegad_dipole_1e154", ["omegad"], {"atom.dipole_y_re": "1e154"}),
    ("omegad_dipole_1e40", ["omegad"], {"atom.dipole_y_re": "1e40"}),
    ("omegad_dipole_1e76", ["omegad"], {"atom.dipole_y_re": "1e76"}),
    ("decay_below_cutoff_dipole_1e154", ["decay"],
     {"atom.omega": "0.5", "atom.dipole_y_re": "1e154"}),
    ("decay_below_cutoff_dipole_1e160", ["decay"],
     {"atom.omega": "0.5", "atom.dipole_y_re": "1e160"}),
    ("corr_below_cutoff_dipole_1e154", ["corr"],
     {"atom.omega": "0.5", "atom.dipole_y_re": "1e154"}),
    ("corr_below_cutoff_dipole_1e160", ["corr"],
     {"atom.omega": "0.5", "atom.dipole_y_re": "1e160"}),
    ("decay_dipole_1e154", ["decay"], {"atom.dipole_y_re": "1e154"}),
    ("decay_below_cutoff_dipole_1e60", ["decay"],
     {"atom.omega": "0.5", "atom.dipole_y_re": "1e60"}),
    ("decay_vacuum_square_near_cutoff", ["decay"], VACUUM_SQUARE_NEAR_CUTOFF),
    ("corr_vacuum_square_near_cutoff", ["corr"], VACUUM_SQUARE_NEAR_CUTOFF),
    ("omegad_below_cutoff", ["omegad"], {"atom.omega": "0.5"}),
    ("omegad_zero_y_dipole", ["omegad"], {"atom.dipole_y_re": "0.0"}),
    ("validate_wide_guide", ["validate"], {"waveguide.a": "1e200"}),
    ("decay_mode_scan_1e6", ["decay"],
     {"waveguide.eps": "1e300", "models.max_mn": "1000000"}),
    ("corr_mode_scan_1e6", ["corr"],
     {"waveguide.eps": "1e300", "models.max_mn": "1000000"}),
    ("omegad_mode_scan_1e6", ["omegad"],
     {"waveguide.eps": "1e300", "models.max_mn": "1000000"}),
    ("validate_mode_scan_1e6", ["validate"],
     {"waveguide.eps": "1e300", "models.max_mn": "1000000"}),
    ("validate_eps_1e306", ["validate"],
     {"waveguide.eps": "1e306", "waveguide.mu": "1.0"}),
    *((f"{command}_eps_mu_{value}", [command],
       {"waveguide.eps": value, "waveguide.mu": value})
      for value in ("1e-170", "1e200") for command in COMMANDS),
    ("decay_nu_min_above_auto_window", ["decay"], {"window.nu_min": "100.0"}),
    ("decay_nu_max_below_auto_window", ["decay"], {"window.nu_max": "0.5"}),
    *((f"{command}_window_reversed", [command],
       {"window.nu_min": "2.0", "window.nu_max": "1.0"})
      for command in ("decay", "modes")),
    ("corr_t_count_0", ["corr"], {"grid.t_count": "0"}),
    ("decay_format_xml", ["decay"], {"output.format": "xml"}),
    ("decay_max_mn_not_integer", ["decay"], {"models.max_mn": "eight"}),
    ("decay_omega_empty", ["decay"], {"atom.omega": ""}),
    # bad flag values, refused as their config keys are, and a command
    # that is not one
    ("decay_flag_format_xml", ["decay", "--format", "xml"], {}),
    ("decay_flag_max_mn_eight", ["decay", "--max-mn", "eight"], {}),
    ("decay_flag_dos_bogus", ["decay", "--dos", "bogus"], {}),
    ("unknown_command", ["bogus"], {}),
    # only TE10 travels at the demo frequency, and it has no x field
    *((f"{command}_x_dipole_on_axis", [command],
       {"atom.dipole_y_re": "0.0", "atom.dipole_x_re": "0.124"})
      for command in ("corr", "omegad")),
    # so weak a coupling that the shift's quadrature never converges
    *((f"{command}_weak_dipole", [command], {"atom.dipole_y_re": "0.00248"})
      for command in ("decay", "corr")),
    ("decay_eps_negative", ["decay"], {"waveguide.eps": "-1.0"}),
    # couplings that overflow to inf and nan, refused without a warning
    *((f"{command}_dipole_dbl_max", [command],
       {"atom.dipole_y_re": "1.7976931348623157e308"})
      for command in ("decay", "corr", "omegad")),
)


def derived_config(path: Path, items: dict) -> Path:
    """demo.conf with ``items`` replacing or adding keys; writes it to
    ``path``."""
    kept = [line for line in CONFIG.read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in items]
    path.write_text("\n".join(kept + [f"{k} = {v}" for k, v in items.items()])
                    + "\n", encoding="utf-8")
    return path


def figure_config(path: Path) -> Path:
    """demo.conf with the figure grid; writes it to ``path``."""
    a = load_config(str(CONFIG)).waveguide_a
    return derived_config(path, {
        "grid.x_min": repr(0.35 * a), "grid.x_max": repr(0.65 * a),
        "grid.x_count": "4", "grid.z_count": "200", "grid.t_count": "200"})


def refusals(tmp: Path) -> str:
    """Exit code and stderr of each refusal case, with ``tmp`` masked."""
    blocks = []
    for name, argv, items in REFUSALS:
        config = derived_config(tmp / f"{name}.conf", items)
        argv = [argv[0], "--config", str(config), *argv[1:]]
        # every case but the one about a missing --out writes to a file
        if name != "corr_csv_to_stdout":
            argv += ["--out", str(tmp / f"{name}.out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                outcome = f"exit {cli_main(argv)}"
            except Exception as exc:
                outcome = f"raised {type(exc).__name__}"
        blocks.append(f"[{name}] {outcome}\n"
                      + err.getvalue().replace(str(tmp), "TMP"))
    return "".join(blocks)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        figure = figure_config(Path(tmp) / "figure.conf")
        digits17 = derived_config(Path(tmp) / "digits17.conf",
                                  {"output.digits": "17"})
        front = {"grid.t_min": "0.5", "grid.t_max": "60.0"}
        fronts = {digits: derived_config(
            Path(tmp) / f"front{digits}.conf",
            {**front, "output.digits": str(digits)})
            for digits in (12, 13, 14, 15)}
        # config, file name, command, density model, further arguments
        runs = [(CONFIG, f"{command}_{dos}.{fmt}", command, dos, [])
                for command in COMMANDS
                for dos in ("paper", "dispersion")
                for fmt in ("csv", "json")]
        runs += [(figure, f"corr_figure_paper.{fmt}", "corr", "paper", [])
                 for fmt in ("csv", "json")]
        runs += [(digits17, f"decay_{dos}_digits17.{fmt}", "decay", dos, [])
                 for dos in ("paper", "dispersion")
                 for fmt in ("csv", "json")]
        runs += [(CONFIG, f"modes_paper_max_mn60.{fmt}", "modes", "paper",
                  ["--max-mn", "60"]) for fmt in ("csv", "json")]
        runs += [(fronts[12], f"corr_front_paper.{fmt}", "corr", "paper", [])
                 for fmt in ("csv", "json")]
        runs += [(fronts[digits], f"corr_front_paper_digits{digits}.csv",
                  "corr", "paper", []) for digits in (13, 14, 15)]
        for config, name, command, dos, more in runs:
            out = args.outdir / name
            rc = cli_main([command, "--config", str(config), "--dos", dos,
                           "--format", out.suffix[1:], "--reproducible",
                           "--out", str(out), *more])
            if rc != EXIT_OK:
                print(f"{out.name}: exit {rc}", file=sys.stderr)
                return rc
            written.append(out)
            if command == "corr" and out.suffix == ".csv":
                written.append(out.with_name(out.name + ".json"))
        out = args.outdir / "refusals.txt"
        out.write_text(refusals(Path(tmp)), encoding="utf-8")
        written.append(out)
    for path in sorted(written):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
