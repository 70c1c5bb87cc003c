"""Seeded contract fuzzer for the command line: the config-key slice.

Each case replaces one to three keys of configs/demo.conf, drawn from
demo.conf's own keys and the seven optional grid.* and window.* keys,
with a value from a fixed list for the key's kind, and runs one of the
five commands through ``cli.main``. Every case must keep the exit code
contract of docs/artifact_schema.md:

- the exit code is 0, 2, 3, 4, 5 or 6;
- exits 0 and 5 write nothing to stderr;
- exits 2, 3, 4 and 6 write exactly one stderr line, and an exit-4
  line names the quadrature segment that failed;
- no warning or exception escapes.

The draw runs in one child process, under a 3 GiB address-space limit
and a per-case alarm, so a case that hangs or grows without bound
fails the test instead of the machine. Run as a script, this file
prints the tally of exit codes and every violation as JSON.

Not drawn: ``models.max_mn = 1000000``, whose index bound lists over
10^5 patterns on a strong dipole and runs for minutes.
"""

import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

SEED = 57
CASES = 1500
ALARM_S = 20
ADDRESS_SPACE = 3 << 30
DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
OPTIONAL_KEYS = ("grid.x_min", "grid.x_max", "grid.x_count", "grid.t_min",
                 "grid.t_max", "window.nu_min", "window.nu_max")
COMMANDS = ("modes", "decay", "corr", "omegad", "validate")
FLOATS = [repr(v) for v in (
    0.0, -0.0, -1.0, 5e-324, sys.float_info.min, 1e-300, 1e-170, 1e-8,
    1e-3, 0.5, 5 / 6 - 1e-10, 5 / 6 + 1e-10, 1.0, 3.0, 1e3, 1e8, 1e154,
    1e200, 1e300, sys.float_info.max, math.nan, math.inf, -math.inf)] \
    + ["auto"]
INTS = ["0", "1", "2", "8", "40", "-3", "x"]


class _Alarm(Exception):
    pass


def demo_items() -> dict:
    items = {}
    for line in DEMO.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, _, value = line.partition("=")
            items[key.strip()] = value.strip()
    return items


def values_for(field) -> list:
    # a model or format key gets its legal spellings and one bad one
    kind = field.metadata["kind"]
    if kind is float:
        return FLOATS
    if kind is int:
        return INTS
    legal = [getattr(v, "value", v) for v in kind]
    return legal + [legal[0].upper()]


def draw(rng: random.Random, schema: dict, keys: list) -> tuple:
    replaced = {key: rng.choice(values_for(schema[key]))
                for key in rng.sample(keys, rng.randint(1, 3))}
    return rng.choice(COMMANDS), replaced


def contract_problems(code, err: str) -> list:
    if code not in (0, 2, 3, 4, 5, 6):
        return [f"undocumented exit code {code!r}"]
    if code in (0, 5):
        return [f"exit {code} wrote to stderr: {err!r}"] if err else []
    if err.count("\n") != 1 or not err.endswith("\n"):
        return [f"exit {code} wrote {err!r}, not one line"]
    if code == 4 and "segment over nu in [" not in err:
        return [f"exit 4 names no segment: {err!r}"]
    return []


def run_draw() -> dict:
    """Run the CASES seeded cases in this process and return the tally
    of exit codes, the slowest case and every violation."""
    from wgqed import cli
    from wgqed.config import SCHEMA

    def ring(signum, frame):
        raise _Alarm

    signal.signal(signal.SIGALRM, ring)
    rng = random.Random(SEED)
    base = demo_items()
    # sorted, so the draw does not follow demo.conf's line order
    keys = sorted([*base, *OPTIONAL_KEYS])
    codes, violations, slowest = {}, [], (0.0, None)
    with tempfile.TemporaryDirectory() as tmp:
        conf, out = os.path.join(tmp, "case.conf"), os.path.join(tmp, "out")
        for case in range(CASES):
            command, replaced = draw(rng, SCHEMA, keys)
            items = {**base, **replaced}
            with open(conf, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in items.items())
            err, code, problems = io.StringIO(), None, []
            start = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                signal.alarm(ALARM_S)
                try:
                    code = cli.main([command, "--config", conf,
                                     "--out", out])
                except _Alarm:
                    problems.append(f"still running after {ALARM_S} s")
                except BaseException as exc:
                    problems.append(f"{type(exc).__name__} escaped: {exc}")
                finally:
                    signal.alarm(0)
            seconds = time.perf_counter() - start
            slowest = max(slowest, (seconds, case))
            for path in (out, out + ".json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            if code is not None:
                codes[code] = codes.get(code, 0) + 1
                problems += contract_problems(code, err.getvalue())
            problems += [f"{w.category.__name__} escaped: {w.message}"
                         for w in caught]
            if problems:
                violations.append({"case": case, "command": command,
                                   "keys": replaced, "problems": problems})
    return {"codes": {str(k): v for k, v in sorted(codes.items())},
            "slowest_s": round(slowest[0], 3), "slowest_case": slowest[1],
            "violations": violations}


def test_every_drawn_case_keeps_the_exit_contract(child_env):
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=child_env, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["violations"] == []
    codes = {int(k): v for k, v in report["codes"].items()}
    assert sum(codes.values()) == CASES
    # the draw reaches past the parser into the physics and its refusals
    assert {0, 2, 3, 5} <= codes.keys()


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    print(json.dumps(run_draw(), indent=1))
