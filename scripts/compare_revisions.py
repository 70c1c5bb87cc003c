"""Compare two revisions on the benchmark and write BENCH_<n>.json.

Archives both revisions of this repository with ``git archive`` into a
temporary directory and byte-compiles each tree with ``compileall``, so
that neither side compiles on its first run. For every workload in the
base tree's BENCHMARK.json it runs ten pairs of ``perfbench/run.py
--workload W --seed s --seconds S``, one run in each tree, with seeds
4001 to 4010 and S the benchmark's ``run_seconds``; the base runs first
in the even-numbered pairs and the head first in the odd ones. The last
line of each run's standard output is the run's JSON record.

The output file holds every raw run and, for each workload and
end-to-end metric, the median and interquartile range (IQR) on each
side, the pairs the head won (ties count for neither) and a verdict
against the metric's ``better`` and ``bound`` in the base tree's
BENCHMARK.json. It also holds both commits, the Python, numpy and scipy
versions and the cpu count from the first run's environment, and the
load average before and after. Pairs where either run failed are left
out. The verdicts, for a bound b given as a fraction of the base median:

    worse         the head median is worse than the base median by
                  more than b of it;
    better        all ten pairs are complete, the head won at least
                  nine of them, its median is better by more than the
                  base IQR, and the head failed no more runs and no
                  larger share of its operations than the base;
    unresolved    neither, and the base IQR exceeds b of the base
                  median, unless every head run beats every base run;
    within bound  otherwise.

Only committed files are compared. The sixty runs of ten pairs on
three workloads took about five minutes on 2 vCPUs.

Usage:
    python scripts/compare_revisions.py BASE [HEAD] --out BENCH_<n>.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 4001
PAIRS = 10
GAIN_SHARE = 0.9
RUN_TIMEOUT_S = 900


def pair_plan(pairs=PAIRS):
    """(seed, sides in running order) for each pair."""
    return [(FIRST_SEED + i,
             ("base", "head") if i % 2 == 0 else ("head", "base"))
            for i in range(pairs)]


def median_iqr(values):
    """Median and the distance between the quartiles."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def improves(better, new, old):
    return new < old if better == "lower" else new > old


def pair_wins(pairs, better):
    """Pairs (base, head) in which the head is better; ties count for
    neither side."""
    return sum(improves(better, head, base) for base, head in pairs)


def verdict(pairs, better, bound, head_fails_more=False):
    """The verdict on one metric's (base, head) pairs; a gain needs
    every pair and no more failures on the head's side."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    base_median, base_iqr = median_iqr(base)
    head_median, _ = median_iqr(head)
    scale = abs(base_median)
    if improves(better, base_median, head_median) \
            and abs(head_median - base_median) > bound * scale:
        return "worse"
    if pair_wins(pairs, better) >= GAIN_SHARE * len(pairs) \
            and improves(better, head_median, base_median) \
            and abs(head_median - base_median) > base_iqr:
        if len(pairs) < PAIRS or head_fails_more:
            return "unresolved"
        return "better"
    if base_iqr > bound * scale and not all(
            improves(better, h, b) for h in head for b in base):
        return "unresolved"
    return "within bound"


def failures(runs, side):
    """Failed runs, and failed and attempted operations of the runs
    that finished, on one side."""
    mine = [run for run in runs if run["side"] == side]
    done = [run for run in mine if run["metrics"] is not None]
    return {"runs": len(mine) - len(done),
            "ops": sum(run["failed"] for run in done),
            "attempted": sum(run["attempted"] for run in done)}


def fails_more(head, base):
    """Whether the head failed more runs, or a larger share of its
    operations, than the base."""
    return head["runs"] > base["runs"] \
        or head["ops"] * base["attempted"] > base["ops"] * head["attempted"]


def summarize(runs, bench):
    """Per workload: each side's failures and, per end-to-end metric,
    both sides' median and IQR, the pair wins and the verdict. Pairs
    where either run failed are left out."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        failed = {side: failures(mine, side) for side in ("base", "head")}
        head_fails_more = fails_more(failed["head"], failed["base"])
        by_seed = {}
        for run in mine:
            if run["metrics"] is not None:
                by_seed.setdefault(run["seed"], {})[run["side"]] = \
                    run["metrics"]
        complete = [sides for _, sides in sorted(by_seed.items())
                    if len(sides) == 2]
        metrics = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            pairs = [(s["base"][name], s["head"][name]) for s in complete]
            if not pairs:
                continue
            base_median, base_iqr = median_iqr([b for b, _ in pairs])
            head_median, head_iqr = median_iqr([h for _, h in pairs])
            metrics[name] = {
                "unit": m["unit"], "better": m["better"],
                "bound": m["bound"],
                "base": {"median": base_median, "iqr": base_iqr},
                "head": {"median": head_median, "iqr": head_iqr},
                "change": (head_median / base_median - 1.0
                           if base_median else None),
                "wins": pair_wins(pairs, m["better"]),
                "pairs": len(pairs),
                "verdict": verdict(pairs, m["better"], m["bound"],
                                   head_fails_more),
            }
        out[workload] = {"failed": failed, "metrics": metrics}
    return out


def last_record(stdout):
    """The JSON object on the last line of a perfbench run, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit, dest):
    """Committed files of ``commit`` under ``dest``, byte-compiled."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {commit} failed")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)],
                   check=True, stdout=subprocess.DEVNULL)


def run_once(tree, workload, seed, seconds):
    """One perfbench run: its exit status, its record's counts and
    metric values, and the environment it wrote beside them."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    record = last_record(proc.stdout) if proc.returncode == 0 else None
    run = {"returncode": proc.returncode, "metrics": None}
    if record is None:
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    else:
        run.update(
            correct=record["correct"], attempted=record["attempted"],
            failed=record["failed"],
            metrics={k: v["value"] for k, v in record["metrics"].items()})
        full = tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
        run["environment"] = json.loads(
            full.read_text(encoding="utf-8"))["environment"]
    return run


def loadavg():
    return [round(x, 2) for x in os.getloadavg()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head", nargs="?", default="HEAD")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("base", args.base), ("head", args.head))}
    record = {"commits": commits, "loadavg_start": loadavg()}
    runs = []
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, trees[side])
        bench = json.loads((trees["base"] / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        for workload in (w["name"] for w in bench["workloads"]):
            for pair, (seed, order) in enumerate(pair_plan()):
                for side in order:
                    run = run_once(trees[side], workload, seed,
                                   bench["run_seconds"])
                    runs.append({"workload": workload, "pair": pair,
                                 "seed": seed, "side": side,
                                 "first": order[0], **run})
                    print(f"{workload} seed {seed} {side}: "
                          f"{'failed' if run['metrics'] is None else 'ok'}",
                          file=sys.stderr, flush=True)
    summary = summarize(runs, bench)
    env = next((run["environment"] for run in runs if "environment" in run),
               {})
    record.update(
        environment={k: env.get(k)
                     for k in ("python", "numpy", "scipy", "cpu_count")},
        loadavg_end=loadavg(), summary=summary, runs=runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n",
                        encoding="utf-8")

    for workload, result in summary.items():
        failed = result["failed"]
        print(f"{workload} (failed runs, ops: "
              f"base {failed['base']['runs']}, {failed['base']['ops']}; "
              f"head {failed['head']['runs']}, {failed['head']['ops']})")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['base']['median']:>11.5g} "
                  f"(IQR {m['base']['iqr']:.3g}) -> "
                  f"{m['head']['median']:>11.5g} "
                  f"(IQR {m['head']['iqr']:.3g}) {m['unit']:5s} "
                  f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
