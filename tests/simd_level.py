"""numpy's SIMD dispatch level, for the golden tests' failure messages.

numpy picks its ufunc kernels at run time from the CPU features it
finds above its build's baseline, and several of them (real ``exp``,
``log``, ``power``, complex products) return other last bits at
another level, so the goldens' bytes hold only at the level they were
written at. ``NPY_DISABLE_CPU_FEATURES`` lowers a process's level.
"""

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# the level tests/data/artifact_digests.txt and chain_corpus.txt were
# written at, over the x86-64 baseline X86_V2, as the headers of
# scripts/artifact_digests.py and scripts/chain_corpus.py record it
GOLDEN = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def active() -> str:
    """The dispatched features this process's numpy runs, in dispatch
    order; empty at the baseline."""
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t])


def note() -> str:
    """The golden level and this process's, for a failure message."""
    return (f"the goldens were written at numpy SIMD level {GOLDEN}; this "
            f"process runs at {active() or 'the baseline'}")
