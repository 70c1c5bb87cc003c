"""The emitter corpus still gives the same bits, class by class.

``scripts/chain_corpus.py`` runs a fixed, seeded corpus of emitters
through the chain in this process and prints one ``sha256  class``
line per output class (decay channels, shift contributions, poles,
``build_bins`` cells, correlation maps and metadata, the correlation
consistency figure and refusals), each over
``float.hex`` text. ``tests/data/chain_corpus.txt`` holds those lines
as last accepted, so a change that moves one bit of one output fails
here and names its class. A change that means to move an output
rewrites the golden file in the same diff; ``--text DIR`` at both
commits gives the lines to ``diff``.
"""

import importlib.util
from pathlib import Path

import numpy as np

import simd_level

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "chain_corpus.txt"


def load_script():
    spec = importlib.util.spec_from_file_location(
        "chain_corpus", ROOT / "scripts" / "chain_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(differ):
    return (f"classes differ from {GOLDEN.name}: {', '.join(differ)} (the "
            f"golden lines' numpy version is in the script's header; this "
            f"run has numpy {np.__version__}; {simd_level.note()})")


def test_corpus_matches_golden_digests(capsys):
    assert load_script().main([]) == 0
    got = capsys.readouterr().out.splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [line.split("  ", 1)[1] for line in got] == [
        line.split("  ", 1)[1] for line in want], "output classes differ"
    differ = [line.split("  ", 1)[1] for line, golden in zip(got, want)
              if line != golden]
    assert not differ, report(differ)


def test_report_names_both_simd_levels(monkeypatch):
    # a canned mismatch, read with no dispatched kernels at all
    monkeypatch.setattr(simd_level, "active", lambda: "")
    message = report(["shift", "bins"])
    assert message.startswith("classes differ from chain_corpus.txt: "
                              "shift, bins (")
    assert message.endswith(
        "the goldens were written at numpy SIMD level X86_V3 X86_V4 "
        "AVX512_ICL AVX512_SPR; this process runs at the baseline)")
