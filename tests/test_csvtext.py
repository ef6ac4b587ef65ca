"""The vectorized ``%.17g`` kernel against Python's own ``"%.17g" % v``, byte for byte."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontomo import _container, _csvtext


def percent_lines(x):
    """The reference: one ``"%.17g" % v`` line per value."""
    return "".join("%.17g\n" % v for v in np.asarray(x, dtype=float).tolist()).encode()


def kernel_lines(x):
    return _csvtext.lines(np.asarray(x, dtype=float).reshape(-1, 1))


def assert_same_text(x):
    got, want = kernel_lines(x), percent_lines(x)
    if got != want:  # name the first value that differs
        for v, g, w in zip(np.asarray(x, dtype=float).tolist(), got.split(b"\n"), want.split(b"\n")):
            assert g == w, v
    assert got == want


def took_fallback(x):
    """Which of the positive ``x`` went through ``%``: its text starts in the sign slot, which
    no positive value's row keeps on the fast path."""
    text = np.empty((x.size, _csvtext.WIDTH), dtype=np.uint8)
    keep = np.empty((x.size, _csvtext.WIDTH), dtype=bool)
    _csvtext.fields(x, text, keep)
    return keep[:, 0]


def exact_ties():
    """x = j / 2^(s+1), j odd, with k = 16 - s: x 10^(16 - k) is an odd multiple of 1/2."""
    ties = []
    for s in range(1, 23):
        k, den = 16 - s, 2 ** (s + 1)
        low = den * 10 ** k if k >= 0 else -(-den // 10 ** -k)
        high = den * 10 ** (k + 1) if k >= -1 else den // 10 ** (-k - 1)
        ties += [j / den for j in range(low | 1, min(high, (low | 1) + 600), 2)]
    return np.array(ties)


def powers_of_ten():
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([p10, np.nextafter(p10, np.inf), np.nextafter(p10, 0.0)])


EXPLICIT = {
    "powers-of-ten-and-neighbours": powers_of_ten(),
    "subnormals": np.concatenate([np.arange(1, 2000) * 5e-324, np.nextafter(2.2250738585072014e-308, 0.0)
                                  - np.arange(1000) * 5e-324]),
    "extremes": np.array([np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny, -np.finfo(float).tiny,
                          5e-324, -5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, 2.0 ** 53, 2.0 ** 53 + 2.0,
                          1e16, 9999999999999998.0, 1e17, 99999999999999984.0, 1e-4, 9.9999999999999991e-5,
                          1e-5, 0.1, 0.3, 123.456, 1000000000000000.25, 9.9999999999999997e-305]),
    "exact-ties": exact_ties(),
    "float32-widened": np.concatenate([
        np.random.default_rng(1).standard_normal(3000).astype(np.float32),
        np.array([np.finfo(np.float32).max, np.finfo(np.float32).tiny, 1e-45, 0.1], dtype=np.float32),
    ]).astype(float),
    "empty": np.zeros(0),
    "one": np.array([-0.1]),
}


@pytest.mark.parametrize("name", EXPLICIT)
def test_explicit_values_match_percent_format(name):
    x = EXPLICIT[name]
    assert_same_text(x)
    assert_same_text(-x)


def test_exact_ties_take_the_fallback():
    ties = exact_ties()
    assert ties.size > 6000
    for v in ties.tolist():  # 17 significant digits end in an exact half
        k = len(str(int(Fraction(v) * 10 ** 30))) - 31
        assert (Fraction(v) * Fraction(10) ** (16 - k)).denominator == 2, v
    assert took_fallback(ties).all()
    # half to even: 1000000000000000.25 -> ...0.2, 1000000000000000.75 -> ...0.8
    assert kernel_lines([1000000000000000.25, 1000000000000000.75]) == b"1000000000000000.2\n1000000000000000.8\n"


def test_ordinary_values_stay_on_the_fast_path():
    # below 1e12 a random double has binary digits far past its 17th decimal
    # one, and from 1e17 on 10^s has a factor 5^|s| no double can cancel; so
    # neither lands within the margin of a tie (from 1e12 to 1e17 many do)
    exponents = np.concatenate([np.arange(-300, 12, 0.03), np.arange(17, 300, 0.03)])
    x = np.random.default_rng(2).standard_normal(exponents.size) * 10.0 ** exponents
    assert not took_fallback(np.abs(x)).any()
    assert took_fallback(np.array([np.inf, np.nan])).all() and not took_fallback(np.array([0.0, 1.5])).any()


@settings(max_examples=300)
@given(st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=64))
def test_raw_bit_patterns_match_percent_format(words):
    assert_same_text(np.array(struct.unpack(f"<{len(words)}d", b"".join(words))))


@pytest.mark.parametrize("per_call", [1, 5, 64])
def test_writers_match_percent_format_across_kernel_calls(tmp_path, monkeypatch, per_call):
    # blocks of whole rows per kernel call, and at least one row when a row is wider than a call
    monkeypatch.setattr(_container, "_CSV_TEXT_VALUES", per_call)
    rng = np.random.default_rng(per_call)
    ax0, ax1 = np.linspace(0.0, math.pi, 9, endpoint=False), np.linspace(-8.0, 8.0, 13)
    values = rng.standard_normal((9, 13)) * 10.0 ** rng.integers(-300, 300, (9, 13))
    values[2, 3:7] = 0.0, -0.0, np.inf, np.nan
    path = tmp_path / "grid.csv"
    _container.save_csv_triples(str(path), ("q", "p", "w"), ax0, ax1, values)
    assert path.read_bytes() == b"q,p,w\n" + b"".join(
        b"%.17g,%.17g,%.17g\n" % (a, b, values[i, j])
        for i, a in enumerate(ax0.tolist()) for j, b in enumerate(ax1.tolist()))
    _container.save_csv_rows(str(path), ("a", "b", "c"), (values[:, 0], values[:, 1], values[:, 2]))
    assert path.read_bytes() == b"a,b,c\n" + b"".join(b"%.17g,%.17g,%.17g\n" % tuple(r) for r in values[:, :3].tolist())
