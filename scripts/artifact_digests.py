"""Write the reproducible demo artifacts and print their digests.

Runs every subcommand on configs/demo.conf with ``--reproducible``,
under both state density models and in both output formats, in
process through ``wgqed.cli.main``. That is 20 artifacts plus the two
JSON sidecars of the CSV ``corr`` runs. Prints one ``sha256  name``
line per file, sorted by name, so two checkouts can be compared with
``diff``.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py OUTDIR
"""

import argparse
import hashlib
import sys
from pathlib import Path

from wgqed.cli import EXIT_OK, main as cli_main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
COMMANDS = ("modes", "decay", "corr", "omegad", "validate")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", type=Path)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for command in COMMANDS:
        for dos in ("paper", "dispersion"):
            for fmt in ("csv", "json"):
                out = args.outdir / f"{command}_{dos}.{fmt}"
                rc = cli_main([command, "--config", str(CONFIG),
                               "--dos", dos, "--format", fmt,
                               "--reproducible", "--out", str(out)])
                if rc != EXIT_OK:
                    print(f"{out.name}: exit {rc}", file=sys.stderr)
                    return rc
                written.append(out)
                if command == "corr" and fmt == "csv":
                    written.append(out.with_name(out.name + ".json"))
    for path in sorted(written):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.name}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
