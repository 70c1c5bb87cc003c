"""The library as README documents it.

Each public object has one import path, its defining module: the
package namespace holds only ``__version__``, so ``import wgqed``
loads neither a submodule nor numpy. README's library example runs in
a fresh process exactly as printed, so its imports stay honest.
"""

import math
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_python(source, env):
    proc = subprocess.run([sys.executable, "-c", source],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_library_example_runs(child_env):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = run_python(blocks[0], child_env)
    # the decay rate, the shift window as a pair, the spatial rate
    rate, low, high, spatial = (float(word) for word in
                                re.sub(r"[(),]", " ", out).split())
    assert all(map(math.isfinite, (rate, low, high, spatial)))
    assert rate > 0.0 and low < 1.45 < high and spatial != 0.0


def test_import_wgqed_loads_nothing(child_env):
    out = run_python(
        "import sys, wgqed\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('wgqed.', 'numpy'))))\n"
        "print(sorted(n for n in vars(wgqed) if not n.startswith('_')))\n"
        "print(wgqed.__version__)\n", child_env)
    assert out.split("\n") == ["[]", "[]", "0.1.0", ""]
