"""The vectorized ``%.17g`` formatter of frames.csv, value by value against
Python's own ``b"%.17g" % v``."""

import numpy as np
import pytest

from nlgauge import _fmt17


def formatted(v) -> bytes:
    """The formatter's text of each value, one per line."""
    rows = _fmt17.text(v)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def assert_like_python(v):
    v = np.asarray(v, dtype=np.float64).ravel()
    got = formatted(v)
    want = b"".join(b"%.17g\n" % x for x in v.tolist())
    if got != want:
        wrong = [(x, a, b) for x, a, b in zip(v.tolist(), want.split(), got.split())
                 if a != b]
        pytest.fail(f"{len(wrong)} differ; first (value, python, ours): {wrong[:3]}")


def fast(v) -> np.ndarray:
    """True where the numpy path, not Python, wrote the value."""
    return _fmt17._digits(np.abs(np.asarray(v, dtype=np.float64)))[2]


def test_random_bit_patterns():
    # every class of double: nan, inf, subnormals, both signs, all exponents
    bits = np.random.default_rng(0).integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    assert_like_python(bits.view(np.float64))


def test_log_uniform_magnitudes_over_the_whole_range():
    rng = np.random.default_rng(1)
    v = np.ldexp(rng.uniform(0.5, 1.0, 50_000), rng.integers(-1074, 1025, 50_000))
    assert_like_python(v * rng.choice([-1.0, 1.0], v.size))


def test_exact_ties_round_half_even_through_python():
    # k/4 in [2**50, 2**51) has 16 integer digits: an odd k ends in .25 or .75,
    # an exact tie at the 17th digit that the numpy path must hand over
    k = np.random.default_rng(2).integers(2 ** 52, 2 ** 53, 20_000)
    v = k / 4.0
    assert_like_python(v)
    odd = k % 2 == 1
    assert odd.any() and not fast(v[odd]).any()
    assert fast(v[~odd]).all()


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_like_python(np.concatenate([powers, np.nextafter(powers, 0.0),
                                       np.nextafter(powers, np.inf)]))


@pytest.mark.parametrize("value, text", [
    # lies below 10**-14; its 17 digits round up to 10**17 and carry
    (float("1e-14"), b"1e-14"),
    # either side of the fixed-notation boundaries -4 <= e < 17
    (1.0000000000000001e-05, b"1.0000000000000001e-05"),
    (0.0001, b"0.0001"),
    (10000000000000000.0, b"10000000000000000"),
    (1e17, b"1e+17"),
    # three-digit exponents
    (1e-100, b"1e-100"),
    (-1.2345678901234567e-123, b"-1.2345678901234567e-123"),
    (3.5e200, b"3.5000000000000001e+200"),
    (2.5e150, b"2.5e+150"),
])
def test_edge_values_on_the_numpy_path(value, text):
    assert formatted([value]) == text + b"\n"
    assert fast([value]).all()


def test_zeros_infinities_nan_and_subnormals():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert_like_python(special)
    assert not fast(special[:7]).any()


def test_numpy_path_writes_nearly_every_field_value():
    # a frame-like sample: if the numpy path were off, Python would write all
    v = np.random.default_rng(3).normal(0.0, 0.05, 20_000)
    assert fast(v).mean() >= 0.99
    assert_like_python(v)


def test_rows_keep_their_last_byte_free():
    rows = _fmt17.text(np.array([-1.7976931348623157e308, -2.2250738585072014e-308,
                                 np.nan, -0.00012345678901234567]))
    assert rows.shape == (4, _fmt17.WIDTH)
    assert not rows[:, -1].any()
