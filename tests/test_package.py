"""The library as README documents it.

Each public object has one import path, its defining module: the
package namespace holds only ``__version__``, so ``import wgqed``
loads neither a submodule nor numpy. README's library example runs in
a fresh process exactly as printed, so its imports stay honest. Both
entry points, ``python -m wgqed`` and the ``wgqed`` script, go through
``wgqed.__main__.run``, which freezes the collector around the one
command of the process; importing the module runs nothing.
"""

import gc
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wgqed.__main__

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_import_main_runs_no_command(child_env):
    out = run_python(
        "import sys, wgqed.__main__\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('wgqed.', 'numpy'))))\n", child_env)
    assert out == "['wgqed.__main__']\n"


@pytest.fixture
def unfreeze():
    # a freeze in the test process would pin its heap for the rest of
    # the run
    yield
    gc.unfreeze()


def test_run_freezes_around_main_and_returns_its_status(monkeypatch,
                                                        unfreeze):
    seen = []

    def main():
        seen.append(gc.isenabled())
        return 3

    monkeypatch.setattr("wgqed.cli.main", main)
    assert wgqed.__main__.run() == 3
    assert seen == [True]
    assert gc.get_freeze_count() > 0
    assert gc.isenabled()


def test_run_leaves_the_collector_enabled_when_main_raises(monkeypatch,
                                                           unfreeze):
    def main():
        raise KeyboardInterrupt

    monkeypatch.setattr("wgqed.cli.main", main)
    with pytest.raises(KeyboardInterrupt):
        wgqed.__main__.run()
    assert gc.isenabled()


def test_run_leaves_the_collector_enabled_when_the_import_fails(
        monkeypatch):
    monkeypatch.setitem(sys.modules, "wgqed.cli", None)
    with pytest.raises(ImportError):
        wgqed.__main__.run()
    assert gc.isenabled()


def test_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"] == {"wgqed": "wgqed.__main__:run"}
