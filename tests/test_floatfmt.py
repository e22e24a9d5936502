"""floatfmt.format_repr against float.__repr__, byte for byte."""

import json
import math
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from su11squeeze import floatfmt

CHUNK = 1 << 16  # values per call, so the formatter's scratch stays small


def formatted(values, nonfinite=floatfmt.CSV_NONFINITE) -> bytes:
    """The texts of ``values``, one per line, from ``format_repr``."""
    out = []
    for lo in range(0, len(values), CHUNK):
        chars, length = floatfmt.format_repr(values[lo:lo + CHUNK], nonfinite)
        assert not chars[np.arange(floatfmt.WIDTH) >= length[:, None]].any()  # zero past the text
        lines = np.empty((len(chars), floatfmt.WIDTH + 1), dtype=np.uint8)
        lines[:, :-1] = chars
        lines[np.arange(len(chars)), length] = ord("\n")
        out.append(lines[np.arange(floatfmt.WIDTH + 1) <= length[:, None]].tobytes())
    return b"".join(out)


def repr_strings(values, nonfinite=floatfmt.CSV_NONFINITE):
    chars, length = floatfmt.format_repr(values, nonfinite)
    return [bytes(row[:k]).decode("ascii") for row, k in zip(chars, length)]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    want = ("\n".join(map(repr, values.tolist())) + "\n").encode()
    got = formatted(values)
    if got != want:
        bad = [(w, g) for w, g in zip(want.split(), got.split()) if w != g]
        raise AssertionError(f"{len(bad)} of {len(values)} differ, e.g. {bad[:5]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    rng = np.random.default_rng(20180618)
    assert_repr(rng.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64))


def test_every_power_of_two_and_its_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    values = with_neighbours(powers)
    assert_repr(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    values = with_neighbours(powers)
    assert_repr(np.concatenate([values, -values]))


def test_notation_switch_points_and_edges():
    switch = with_neighbours([1e-4, 1e16, 1e-5, 1e15, 9999999999999998.0, 0.001, 1.0, 10.0])
    around_2_53 = np.array([2.0**53 + k for k in range(-16, 17)])
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 0.1, 0.2, 0.3, 1 / 3, 123456789012345678.0, 0.0016]
    assert_repr(np.concatenate([switch, -switch, around_2_53, -around_2_53, edges]))


def test_blocks_with_and_without_the_rare_paths(monkeypatch):
    # every row of a block may skip Ryu's edge rules (exponent fields of kind 1 and 2),
    # its trailing-zero general case and the exponent suffix, or every row may need one
    rng = np.random.default_rng(7)
    plain = rng.uniform(1e-3, 1e3, 5000)
    plain = (plain.view(np.uint64) | np.uint64(1)).view(np.float64)  # odd mantissas: no trailing zeros
    edge = np.concatenate([2.0 ** 52 + rng.integers(0, 2 ** 52, 200),  # kind 1
                           2.0 ** 54 * rng.uniform(1.0, 2.0 ** 17, 200),  # kind 2
                           np.ldexp(1.0, np.arange(54, 74))])
    flagged = np.concatenate([np.arange(1.0, 1000.0), np.ldexp(1.0, np.arange(-14, 53)),
                              rng.integers(-99, 100, 200) / 8.0])
    exponent = np.concatenate([rng.uniform(-1e-4, 1e-4, 500), 1e16 * rng.uniform(1.0, 1e10, 500),
                               np.ldexp(rng.uniform(1.0, 2.0, 100), rng.integers(-1074, 1024, 100))])
    assert_repr(np.concatenate([edge, -flagged, flagged, exponent]))

    def never(*args):
        raise AssertionError("a row took a rare path")

    monkeypatch.setattr(floatfmt, "_edge_flags", never)
    monkeypatch.setattr(floatfmt, "_shortest_flagged", never)
    assert_repr(plain)
    assert_repr(-plain)


def test_short_decimals_on_a_grid():
    # record times are short decimals; each sheds many digits
    assert_repr(np.arange(150001) * (120 / 150000))
    assert_repr(np.linspace(-150.0, 150.0, 20001))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_floats(values):
    assert repr_strings(values) == [repr(v) for v in values]


def test_nonfinite_spellings():
    values = [math.nan, -math.nan, math.inf, -math.inf, 1.5]
    assert repr_strings(values) == ["nan", "nan", "inf", "-inf", "1.5"]
    assert (repr_strings(values, floatfmt.JSON_NONFINITE)
            == [json.dumps(v) for v in values] == ["NaN", "NaN", "Infinity", "-Infinity", "1.5"])


def test_writes_into_a_strided_matrix():
    values = np.array([[1.0, -2.5e-300], [math.nan, 1e16]])
    slots = np.zeros((2, 2, 8 + floatfmt.WIDTH), dtype=np.uint8)
    view = slots[:, :, 8:].reshape(-1, floatfmt.WIDTH)
    chars, length = floatfmt.format_repr(values, out=view)
    assert chars is view
    got = [bytes(slots[i, j, 8:8 + length[2 * i + j]]).decode() for i in range(2) for j in range(2)]
    assert got == ["1.0", "-2.5e-300", "nan", "1e+16"]
    assert not slots[:, :, :8].any()


def test_empty_input():
    chars, length = floatfmt.format_repr(np.empty(0))
    assert chars.shape == (0, floatfmt.WIDTH) and length.shape == (0,)


def test_every_exponent_shifts_within_one_word():
    shift = floatfmt._tables()["shift"]
    assert len(shift) == 2047 and ((shift > 0) & (shift < 64)).all()


def test_cli_imports_the_formatter_on_first_write():
    # compiling floatfmt would add to every start-up that runs without cached bytecode
    code = "import sys, su11squeeze.cli; assert 'su11squeeze.floatfmt' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_tables_are_built_on_first_use_not_at_import():
    code = ("import su11squeeze.cli, su11squeeze.floatfmt as f; "
            "assert f._tables.cache_info().currsize == 0; f.format_repr([1.0]); "
            "assert f._tables.cache_info().currsize == 1")
    subprocess.run([sys.executable, "-c", code], check=True)
