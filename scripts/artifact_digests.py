"""Write the reproducible artifacts and print their digests.

Runs every subcommand on configs/demo.conf with ``--reproducible``,
under both state density models and in both output formats, in
process through ``wgqed.cli.main``. That is 20 artifacts plus the two
JSON sidecars of the CSV ``corr`` runs. It then runs ``corr`` on the
figure grid (4 x 200 x 200, x from 0.35a to 0.65a, paper model) as
CSV with its sidecar and as JSON, for 25 files in all. Prints one
``sha256  name`` line per file, sorted by name, so two checkouts can
be compared with ``diff``.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py OUTDIR
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from wgqed.cli import EXIT_OK, main as cli_main
from wgqed.config import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
COMMANDS = ("modes", "decay", "corr", "omegad", "validate")


def figure_config(path: Path) -> Path:
    """demo.conf with the figure grid; writes it to ``path``."""
    a = load_config(str(CONFIG)).waveguide_a
    grid = {"grid.x_min": repr(0.35 * a), "grid.x_max": repr(0.65 * a),
            "grid.x_count": "4", "grid.z_count": "200",
            "grid.t_count": "200"}
    kept = [line for line in CONFIG.read_text(encoding="utf-8").splitlines()
            if line.split("=", 1)[0].strip() not in grid]
    path.write_text("\n".join(kept + [f"{k} = {v}" for k, v in grid.items()])
                    + "\n", encoding="utf-8")
    return path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        figure = figure_config(Path(tmp) / "figure.conf")
        runs = [(CONFIG, f"{command}_{dos}.{fmt}", command, dos)
                for command in COMMANDS
                for dos in ("paper", "dispersion")
                for fmt in ("csv", "json")]
        runs += [(figure, f"corr_figure_paper.{fmt}", "corr", "paper")
                 for fmt in ("csv", "json")]
        for config, name, command, dos in runs:
            out = args.outdir / name
            rc = cli_main([command, "--config", str(config), "--dos", dos,
                           "--format", out.suffix[1:], "--reproducible",
                           "--out", str(out)])
            if rc != EXIT_OK:
                print(f"{out.name}: exit {rc}", file=sys.stderr)
                return rc
            written.append(out)
            if command == "corr" and out.suffix == ".csv":
                written.append(out.with_name(out.name + ".json"))
    for path in sorted(written):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
