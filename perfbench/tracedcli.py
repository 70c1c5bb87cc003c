"""``python -m wgqed`` under the span tracer, for the traced run of the
commands workload.

    python3 perfbench/tracedcli.py --summary PATH --spans PATH --op N
        -- <wgqed arguments>

Runs ``wgqed.cli.main`` on the arguments in this fresh process,
writes the tracer's aggregates to ``--summary``, appends its spans to
``--spans`` and exits with the command's status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--summary", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--op", type=int, required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from wgqed import cli, numerics

    tracer = Tracer()
    tracer.install()
    tracer.op_id = args.op
    before = numerics._gl_nodes.cache_info()
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        after = numerics._gl_nodes.cache_info()
        tracer.gl_hits = after.hits - before.hits
        tracer.gl_misses = after.misses - before.misses
        Path(args.summary).write_text(json.dumps(tracer.summary()),
                                      encoding="utf-8")
        tracer.write_spans(args.spans, mode="a")


if __name__ == "__main__":
    sys.exit(main())
