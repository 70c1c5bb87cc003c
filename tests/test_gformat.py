"""The vectorized ``%g`` kernel against the C routine, and the cell
texts ``cli._cells`` builds on it against the per-cell renderers.

``gformat.g_texts`` must write ``b"%.{digits}g" % v`` byte for byte for
every float64: fixed cases at the rounding and layout switches, doubles
next to decimal ties and powers of ten, and hypothesis draws over every
bit pattern. ``cli._cells`` of a float64 array, its format masks over
the kernel's texts, must write what ``cli._fmt`` and ``cli._json_cell``
write for each value, in CSV and in JSON. The fast path must cover the
figure grid, and the kernel must load only when a command renders a
float array.
"""

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wgqed import cli, gformat
from wgqed.config import load_config

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.conf"
DBL_MIN = sys.float_info.min
DBL_MAX = sys.float_info.max


def _g_oracle(values, digits):
    return [b"%.*g" % (digits, v) for v in values.tolist()]


def _g_fixed_cases():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    # log10 rounds to k for some of these just below 10**k
    near = np.outer([1 - 6e-14, 1 - 1e-14, 1 - 1e-15, 1 + 1e-15, 1 + 1e-14,
                     1 + 6e-14, 1 + 1e-13], powers).ravel()
    specials = [0.5, 2.5, 0.125, 1e-4, 9.9999999999995e-5, 9.99995e-5,
                1.5e-5, 1e100, 1.5e-100, 1e-300, 1e300, 1.7e308, DBL_MAX,
                DBL_MIN, 5e-324, 2.5e-310, 0.0, -0.0, math.inf, -math.inf,
                math.nan, 1.0, 0.1, 123456789012345.0]
    return np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        near, np.array(specials), -np.array(specials),
        np.nextafter(1e-4, [0.0, 1.0])])


def _g_switches(digits):
    # the 10**(digits - 1) and 10**digits switches, and the values that
    # round up across them
    edges = np.array([10.0 ** (digits - 1), 10.0 ** digits,
                      10.0 ** digits - 0.5, 10.0 ** (digits - 1) - 0.5])
    return np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, np.inf)])


class TestGTexts:
    """g_texts writes ``b"%.{digits}g" % v`` for every float64."""

    @pytest.mark.parametrize("digits", range(2, 18))
    def test_fixed_cases(self, digits):
        values = np.concatenate([_g_fixed_cases(), _g_switches(digits),
                                 _g_switches(digits) * 1e-5])
        assert gformat.g_texts(values, digits) == \
            _g_oracle(values, digits)

    @pytest.mark.parametrize("digits", range(3, 15))
    def test_near_ties(self, digits):
        # the doubles next to decimal ties one digit past the last kept:
        # where the rounding test must send a cell to the C routine
        rng = np.random.default_rng(digits)
        heads = rng.integers(10 ** (digits - 1), 10 ** digits, 4000)
        ties = np.array([float(f"{h}5e{k}") for h, k in zip(
            heads.tolist(), rng.integers(-30, 30, heads.size).tolist())])
        values = np.concatenate([ties, np.nextafter(ties, 0.0),
                                 np.nextafter(ties, np.inf)])
        assert gformat.g_texts(values, digits) == \
            _g_oracle(values, digits)

    @pytest.mark.parametrize("step", [-np.inf, np.inf])
    def test_log10_one_ulp_off(self, monkeypatch, step):
        # a libm whose log10 is one ulp off next to 10**k
        log10 = np.log10
        monkeypatch.setattr(np, "log10",
                            lambda v: np.nextafter(log10(v), step))
        values = _g_fixed_cases()
        for digits in (3, 12, 13):
            assert gformat.g_texts(values, digits) == \
                _g_oracle(values, digits)

    @pytest.mark.parametrize("digits", [3, 12, 17])
    def test_empty_and_shaped_blocks(self, digits):
        assert gformat.g_texts(np.empty(0), digits) == []
        block = np.linspace(0.01, 3.0, 24).reshape(2, 3, 4)
        assert gformat.g_texts(block, digits) == _g_oracle(block.ravel(),
                                                           digits)

    def test_exact_ties_round_half_even(self):
        values = np.array([0.5, 2.5, 0.125, 0.375])
        assert gformat.g_texts(values, 2) == \
            [b"0.5", b"2.5", b"0.12", b"0.38"]
        assert gformat.g_texts(values, 1) == \
            [b"0.5", b"2", b"0.1", b"0.4"]

    def test_layout_switches(self):
        values = np.array([9.9999999999995e-5, 1e-4, 9.99999e-5, 1e-5,
                           123456789012.0, 1234567890123.0, 1e-300,
                           1.25e+300])
        assert gformat.g_texts(values, 12) == [
            b"0.0001", b"0.0001", b"9.99999e-05", b"1e-05",
            b"123456789012", b"1.23456789012e+12", b"1e-300",
            b"1.25e+300"]

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60),
           st.integers(3, 17))
    def test_any_bit_pattern(self, bits, digits):
        values = np.array(bits, np.uint64).view(np.float64)
        assert gformat.g_texts(values, digits) == \
            _g_oracle(values, digits)

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=60),
           st.integers(3, 17))
    def test_grid_like_values(self, values, digits):
        values = np.array(values)
        assert gformat.g_texts(values, digits) == \
            _g_oracle(values, digits)

    def test_no_warning_escapes(self):
        values = np.concatenate([_g_fixed_cases(), _g_switches(12)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for digits in (3, 12, 13, 14, 17):
                gformat.g_texts(values, digits)
            # and the format masks, on inf and nan as well
            for digits in (3, 12, 14, 15, 16, 17):
                for json in (False, True):
                    cli._cells(values, digits, json)
                    cli._cells(np.array([np.inf, -np.inf, np.nan]),
                               digits, json)

    def test_fast_path_covers_the_figure_grid(self, tmp_path):
        # a silent fall back to the C routine for every cell fails here
        items = {"grid.x_min": repr(0.35 * math.pi),
                 "grid.x_max": repr(0.65 * math.pi),
                 "grid.x_count": 4, "grid.z_count": 200, "grid.t_count": 200}
        kept = [line for line in DEMO.read_text(encoding="utf-8").splitlines()
                if line.split("=", 1)[0].strip() not in items]
        conf = tmp_path / "figure.conf"
        conf.write_text("\n".join(kept + [f"{k} = {v}" for k, v in
                                           items.items()]) + "\n")
        values = load_config(str(conf)).correlation().values.ravel()
        texts, proven = gformat._fast_texts(values, 12)
        assert proven.mean() >= 0.99
        assert texts[proven].tolist() == \
            _g_oracle(values[proven], 12)
        # JSON, like CSV, keeps the kernel text of nearly every cell
        assert cli._json_kept(values, 12).mean() >= 0.99
        for json in (False, True):
            assert cli._cells(values, 12, json) == \
                _cell_oracle(values, 12, json)


def _cell_oracle(values, digits, json):
    render = cli._json_cell if json else cli._fmt
    return [render(v, digits).encode() for v in values.tolist()]


class TestCellTexts:
    """cli._cells of a float64 array writes the per-cell renderer's text
    of every value, in both formats."""

    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60),
           st.integers(3, 17))
    def test_any_bit_pattern(self, bits, digits):
        values = np.array(bits, np.uint64).view(np.float64)
        for json in (False, True):
            assert cli._cells(values, digits, json) == \
                _cell_oracle(values, digits, json)

    @pytest.mark.parametrize("digits", range(3, 18))
    def test_fixed_cases(self, digits):
        values = np.concatenate([_g_fixed_cases(), _g_switches(digits),
                                 -_g_switches(digits) * 1e-5])
        for json in (False, True):
            assert cli._cells(values, digits, json) == \
                _cell_oracle(values, digits, json)

    @pytest.mark.parametrize("digits", [3, 12, 16, 17])
    def test_empty_and_shaped_blocks(self, digits):
        block = np.linspace(-1.0, 3.0, 24).reshape(2, 3, 4)
        for json in (False, True):
            assert cli._cells(np.empty(0), digits, json) == []
            assert cli._cells(block, digits, json) == \
                _cell_oracle(block.ravel(), digits, json)


@pytest.mark.parametrize("command, loaded", [
    ("decay", False), ("omegad", False), ("validate", False),
    ("corr", True), ("modes", True)])
def test_kernel_loads_on_first_float_array(tmp_path, child_env, command,
                                            loaded):
    # importing wgqed.cli neither compiles nor loads the kernel
    script = (
        "import sys\n"
        "from wgqed.cli import main\n"
        "assert 'wgqed.gformat' not in sys.modules\n"
        f"assert main([{command!r}, '--config', {str(DEMO)!r}, '--out',\n"
        f"             {str(tmp_path / 'out.csv')!r}]) == 0\n"
        "print('wgqed.gformat' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(loaded)]
