"""The pure parts of ``scripts/compare_revisions.py`` on canned records:
the order of the pairs, median and IQR, the pair wins, the failure
counts and the verdicts, on canned golden text the moved names and
the cut diff, and the SIMD level and C library it records. Nothing
here archives a revision, runs a golden script or runs the benchmark.
"""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

import simd_level

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" \
    / "compare_revisions.py"
BENCH = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))

spec = importlib.util.spec_from_file_location("compare_revisions", SCRIPT)
cr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cr)


def test_pairs_alternate_which_side_runs_first():
    plan = cr.pair_plan(4)
    assert plan == [(4001, ("base", "head")), (4002, ("head", "base")),
                    (4003, ("base", "head")), (4004, ("head", "base"))]
    plan = cr.pair_plan()
    assert [seed for seed, _ in plan] == list(range(4001, 4011))
    assert [order for _, order in plan].count(("base", "head")) == 5


def test_median_and_iqr():
    assert cr.median_iqr([5.0]) == (5.0, 0.0)
    assert cr.median_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0)
    assert cr.median_iqr([4.0, 1.0, 3.0, 2.0]) == (2.5, 1.5)


def test_ties_count_for_neither_side():
    pairs = [(10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (10.0, 8.0)]
    assert cr.pair_wins(pairs, "lower") == 2
    assert cr.pair_wins(pairs, "higher") == 1


GAIN = [(150 + i % 3, 140 - i % 3) for i in range(9)] + [(150, 151)]

# (base, head) runs of one metric, each with its expected verdict
CASES = [
    # nine of ten won, the gap of 10 beyond the base IQR of ~2
    ("better", "lower", 0.25, GAIN),
    # the same gain on nine pairs, or on one: too few pairs to claim it
    ("unresolved", "lower", 0.25, GAIN[:9]),
    ("unresolved", "lower", 0.25, GAIN[:1]),
    # eight of ten won: no gain whatever the gap
    ("within bound", "lower", 0.25,
     [(150, 140)] * 8 + [(150, 151)] * 2),
    # ten of ten won, the gap of 1 inside the base IQR of 4
    ("within bound", "lower", 0.25,
     [(148 + 4 * (i % 2), 149 + 4 * (i % 2)) for i in range(10)]),
    ("worse", "lower", 0.25, [(100, 126)] * 10),
    ("within bound", "lower", 0.25, [(100, 124)] * 10),
    ("worse", "higher", 0.05, [(1.0, 0.9)] * 10),
    ("within bound", "higher", 0.05, [(1.0, 1.0)] * 10),
    # spread wider than the bound on the base side
    ("unresolved", "lower", 0.25,
     [(1.0 + i % 2, 1.1 + 0.9 * (i % 2)) for i in range(10)]),
]


@pytest.mark.parametrize("expected, better, bound, pairs", CASES)
def test_verdict(expected, better, bound, pairs):
    assert cr.verdict(pairs, better, bound) == expected


def test_no_gain_when_the_head_fails_more():
    assert cr.verdict(GAIN, "lower", 0.25, head_fails_more=True) \
        == "unresolved"
    # a loss stays a loss
    assert cr.verdict([(100, 126)] * 10, "lower", 0.25,
                      head_fails_more=True) == "worse"


def test_fails_more_compares_failed_runs_and_the_share_of_failed_ops():
    def side(runs, ops, attempted):
        return {"runs": runs, "ops": ops, "attempted": attempted}

    assert not cr.fails_more(side(0, 0, 60), side(0, 0, 70))
    assert cr.fails_more(side(1, 0, 60), side(0, 0, 70))
    assert cr.fails_more(side(0, 1, 70), side(0, 0, 60))
    # one in 70 is a smaller share than one in 60
    assert not cr.fails_more(side(0, 1, 70), side(0, 1, 60))
    assert cr.fails_more(side(0, 1, 60), side(0, 1, 70))


def run(side, seed, p50, failed=0):
    """A canned record: every metric 1.0 but op_p50_ms; no metrics
    when ``p50`` is None, as for a run that did not finish."""
    rec = {"workload": "commands", "seed": seed, "side": side,
           "metrics": None}
    if p50 is not None:
        rec.update(failed=failed, attempted=6,
                   metrics={m["name"]: 1.0 for m in BENCH["end_to_end"]})
        rec["metrics"]["op_p50_ms"] = p50
    return rec


def test_summary_pairs_runs_by_seed_and_drops_failed_runs():
    runs = [run("base", 4001, 150.0), run("head", 4001, 130.0),
            run("head", 4002, 131.0), run("base", 4002, 154.0),
            run("base", 4003, 152.0), run("head", 4003, None)]
    summary = cr.summarize(runs, BENCH)["commands"]
    assert summary["failed"] == {
        "base": {"runs": 0, "ops": 0, "attempted": 18},
        "head": {"runs": 1, "ops": 0, "attempted": 12}}
    p50 = summary["metrics"]["op_p50_ms"]
    assert (p50["pairs"], p50["wins"]) == (2, 2)
    assert p50["base"] == {"median": 152.0, "iqr": 2.0}
    assert p50["head"] == {"median": 130.5, "iqr": 0.5}
    # won on both pairs, but two pairs claim no gain
    assert p50["verdict"] == "unresolved"
    assert summary["metrics"]["success_rate"]["verdict"] == "within bound"
    assert set(summary["metrics"]) == {
        m["name"] for m in BENCH["end_to_end"]}


def ten_pairs(head_failed=0):
    runs = []
    for i, (seed, order) in enumerate(cr.pair_plan()):
        p50 = dict(zip(("base", "head"), GAIN[i]))
        runs += [run(side, seed, p50[side],
                     head_failed if side == "head" and i == 0 else 0)
                 for side in order]
    return runs


def test_summary_of_ten_pairs_claims_the_gain():
    summary = cr.summarize(ten_pairs(), BENCH)["commands"]
    p50 = summary["metrics"]["op_p50_ms"]
    assert (p50["pairs"], p50["wins"], p50["verdict"]) == (10, 9, "better")


def test_summary_claims_no_gain_when_the_head_fails_more_ops():
    summary = cr.summarize(ten_pairs(head_failed=1), BENCH)["commands"]
    assert summary["failed"]["head"]["ops"] == 1
    p50 = summary["metrics"]["op_p50_ms"]
    assert (p50["pairs"], p50["wins"], p50["verdict"]) \
        == (10, 9, "unresolved")


def test_last_line_is_the_record():
    assert cr.last_record('workload x\n{"correct": true}\n') == {
        "correct": True}
    assert cr.last_record("") is None
    assert cr.last_record("perfbench: worker exited 1\n") is None


def test_moved_names_are_changed_added_and_removed_lines():
    base = cr.digest_map("aa  refusals.txt\nbb  decay_paper.csv\n"
                         "cc  gone.csv\n")
    head = cr.digest_map("ab  refusals.txt\nbb  decay_paper.csv\n"
                         "dd  new.csv\n")
    assert base == {"refusals.txt": "aa", "decay_paper.csv": "bb",
                    "gone.csv": "cc"}
    assert cr.moved_names(base, head) == [
        "gone.csv", "new.csv", "refusals.txt"]
    assert cr.moved_names(base, base) == []


def test_diff_is_cut_after_a_fixed_line_count():
    lines = [f"+line {i}" for i in range(cr.DIFF_LINES + 5)]
    assert cr.capped(lines) == lines[:cr.DIFF_LINES] + ["... 5 more lines"]
    assert cr.capped(lines[:cr.DIFF_LINES]) == lines[:cr.DIFF_LINES]
    assert cr.capped([]) == []


def test_file_diff_of_added_blocks(tmp_path):
    (tmp_path / "base.txt").write_text("[a] exit 2\nno\n")
    (tmp_path / "head.txt").write_text("[a] exit 2\nno\n[b] exit 2\nnew\n")
    lines = cr.file_diff("base.txt", "head.txt", tmp_path)
    changed = [line for line in lines if line.startswith(("+", "-"))
               and not line.startswith(("+++", "---"))]
    assert changed == ["+[b] exit 2", "+new"]
    # a name one side lacks diffs against an empty file
    assert cr.file_diff(None, "base.txt", tmp_path)[-2:] == [
        "+[a] exit 2", "+no"]


def test_simd_level_is_read_in_process(monkeypatch):
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    assert cr.simd_level() == {"simd_level": simd_level.active()}
    # the variable acts at numpy's import, so it is recorded as set
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR")
    assert cr.simd_level() == {"simd_level": simd_level.active(),
                               "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR"}


def test_environment_records_the_c_library(monkeypatch):
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    first_run = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                 "cpu_count": 2, "pid": 7}
    env = cr.environment(first_run)
    assert list(env) == ["python", "numpy", "scipy", "cpu_count",
                         "simd_level", "libc", "dont_write_bytecode"]
    assert env["libc"] == " ".join(platform.libc_ver())
    assert env["dont_write_bytecode"] is sys.dont_write_bytecode
    # a run without a recorded environment leaves the versions unknown
    assert cr.environment({})["numpy"] is None
