"""Every reproducible artifact still has its golden digest.

``scripts/artifact_digests.py`` writes the demo artifacts of every
command, the figure grid run and the refusal corpus, and prints one
``sha256  name`` line per file. ``tests/data/artifact_digests.txt``
holds those lines as last accepted, so a change that moves one digit
of one artifact fails here. A change that means to move an artifact
rewrites the golden file in the same diff (run the script and keep
its output).
"""

import importlib.util
from pathlib import Path

import simd_level

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "artifact_digests.txt"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", ROOT / "scripts" / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(text):
    """``{name: sha256}`` from ``sha256  name`` lines."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in text.splitlines())}


def differences(want, got):
    """One line per name whose digest is missing, extra or different."""
    problems = []
    for name in sorted(want.keys() | got.keys()):
        if name not in got:
            problems.append(f"{name} missing: golden {want[name]}")
        elif name not in want:
            problems.append(f"{name} extra: written {got[name]}")
        elif got[name] != want[name]:
            problems.append(f"{name} differs: golden {want[name]}, "
                            f"written {got[name]}")
    return problems


def report(problems):
    return (f"artifacts differ from {GOLDEN.name}:\n" + "\n".join(problems)
            + f"\n({simd_level.note()})")


def test_artifacts_match_golden_digests(tmp_path, capsys):
    assert load_script().main([str(tmp_path)]) == 0
    got = digests(capsys.readouterr().out)
    want = digests(GOLDEN.read_text(encoding="utf-8"))
    problems = differences(want, got)
    assert not problems, report(problems)


def test_report_names_both_simd_levels(monkeypatch):
    # a canned mismatch, read at a lower level than the goldens'
    monkeypatch.setattr(simd_level, "active", lambda: "X86_V3")
    problems = differences({"a.csv": "aa", "b.csv": "bb"},
                           {"a.csv": "ab", "c.csv": "cc"})
    assert problems == ["a.csv differs: golden aa, written ab",
                        "b.csv missing: golden bb", "c.csv extra: written cc"]
    assert report(problems).splitlines()[-1] == (
        "(the goldens were written at numpy SIMD level X86_V3 X86_V4 "
        "AVX512_ICL AVX512_SPR; this process runs at X86_V3)")
