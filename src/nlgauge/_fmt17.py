"""The text of ``"%.17g" % v`` for a float64 array, computed with numpy.

``text(v)`` gives one row of ``WIDTH`` bytes per value: the text of
``"%.17g" % v``, padded with 0 bytes, which a caller compacts away.

Digits. For |v| with decimal exponent e = floor(log10 |v|), the 17 digits are
the integer nearest to |v| * 10**(16 - e). The power is stored as a
double-double hi + lo, accurate to about 1e-30 relative, and |v| * hi is taken
exactly as p + err with Dekker's split product (no FMA, no extended
precision). p is an integer at this scale, so floor(p) plus the floor of the
small remainder (p - floor(p)) + err + |v| * lo gives the integer part n, and
the remainder r comes out within about 1e-13 of the exact fraction. An n
outside [10**16, 10**17) means the logarithm rounded across a power of ten: e
moves by one and n is computed again. n rounds up where r > 1/2, and a carry
to 10**17 moves e up by one.

Tie margin. An exact tie (an 18-digit decimal ending in 5) must round half to
even, and the remainder cannot tell a tie from a value within its error of
one. Every value whose r lies within TIE_MARGIN of 1/2 is therefore left to
Python.

Fallback. Python's own ``b"%.17g" % v`` writes zero, +-inf and nan, |v| with
e outside [EMIN, EMAX] (this includes the subnormals), the remainders within
the tie margin, and a value whose n is still out of range after one correction.

Layout. Each row is the sign, then the "0.000" prefix of -4 <= e <= -1, then
the 17 digits with a point slot, then "e+XX" or "e+XXX". This is the %g rule:
fixed notation iff -4 <= e < 17. The digits are looked up two at a time in a
table of ASCII pairs, whose variants also hold the point and the 0 bytes that
replace trailing zeros of the fraction and a point without a fraction.

Memory. The arithmetic is float64 and int64 only, without floor division,
int64 comparisons, narrow integer types or log10: each numpy loop a process
touches first maps its code pages, 64 KB at a time, and a version with uint8
arithmetic raised the peak memory of a run writing small frames by 0.8 MB.
"""

from functools import cache
from types import SimpleNamespace

import numpy as np

WIDTH = 30                      # sign, prefix 5, digits 18, exponent 5, a free byte
EMIN, EMAX = -290, 290          # decimal exponents of the fast path
TIE_MARGIN = 1e-9
SPLIT = 134217729.0             # 2**27 + 1, Dekker's splitting constant
LOG10_E = 0.4342944819032518
LOW, HIGH = 10 ** 16, 10 ** 17


def _split(x):
    """x = hi + lo with 26 significant bits in each part; scaled through frexp
    so that a power near the top of the double range does not overflow."""
    m, k = np.frexp(x)
    t = m * SPLIT
    hi = t - (t - m)
    return np.ldexp(hi, k), np.ldexp(m - hi, k)


def _product(a, b_hi, b_lo):
    """a * b as p + err exactly (Dekker 1971), with b = b_hi + b_lo split.
    The sums are taken in place, in the order of Dekker's formula."""
    p = a * (b_hi + b_lo)
    a_hi = a * SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    err = a_hi * b_hi
    err -= p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return p, err


@cache
def _tables():
    """Read-only tables, built on first use: per exponent (index e - EMIN) the
    double-double power 10**(16 - e), the point slot, and the prefix and
    exponent bytes; and the variants of the ASCII digit pairs."""
    # float exponents: numpy's int64 comparisons would be one more loop in memory
    e = np.arange(EMIN, EMAX + 2.0)
    p = np.abs(16 - e)
    # 10**p or 0.1**p as a double-double, by binary powering
    hi, lo = np.ones(e.size), np.zeros(e.size)
    b_hi = np.where(e <= 16, 10.0, 0.1)
    b_lo = np.where(e <= 16, 0.0, -0.2 * 2.0 ** -55)   # 1/10 - fl(0.1)
    for bit in range(int(p.max()).bit_length()):
        if bit:  # the base to the power 2**bit
            h, l = _product(b_hi, *_split(b_hi))
            l += 2.0 * b_hi * b_lo
            b_hi, b_lo = h + l, l - ((h + l) - h)
        use = p % 2 ** (bit + 1) >= 2 ** bit
        h, l = _product(hi[use], *_split(b_hi[use]))
        l += hi[use] * b_lo[use] + lo[use] * b_hi[use]
        hi[use], lo[use] = h + l, l - ((h + l) - h)
    fixed = (e >= -4) & (e < 17)
    prefix = (e < 0) & fixed
    # the point slot: after the first digit, after e + 1 digits, or (prefix) at the end
    slot = np.where(fixed, np.where(prefix, 17, e + 1), 1)
    # bytes per exponent: no sign, "0." and up to three zeros, no digits, and
    # the exponent as Python writes it
    exponents = range(EMIN, EMAX + 2)
    prefixes = [b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"" for k in exponents]
    suffixes = [b"" if -4 <= k < 17 else b"e%+03d" % k for k in exponents]
    affix = np.zeros((e.size, WIDTH), np.uint8)
    affix[:, 1:6] = np.array(prefixes, "S5").view(np.uint8).reshape(-1, 5)
    affix[:, 24:29] = np.array(suffixes, "S5").view(np.uint8).reshape(-1, 5)
    # pair variants: (tens, units), 0 bytes past ``keep`` (0, 1 or 2) digits, a
    # point in place of the first or second digit (the slot's 0)
    tens, units = np.repeat(np.arange(10.0), 10), np.tile(np.arange(10.0), 10)
    keep, point = np.arange(3.0)[:, None], np.arange(3.0)[:, None, None]
    first = np.where(point == 1, ord("."), tens + ord("0")) * (keep >= 1)
    second = np.where(point == 2, ord("."), units + ord("0")) * (keep >= 2)
    t = SimpleNamespace(
        hi=_split(hi), lo=lo, affix=affix,
        # the fraction starts after the slot; the prefix has no integer digits
        keep_from=np.where(prefix, 0.0, slot),
        step=(10.0 ** (17 - slot)).astype(np.int64),   # exact: at most 10**16
        # the pair holding the slot, and the offset of its variant with a point
        slot_pair=(slot // 2).astype(np.intp), point=300.0 * (1 + slot % 2),
        pairs=(first + 256 * second).astype("<u2").reshape(-1))
    for value in vars(t).values():
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
    return t


def _scaled(t, a, e):
    """Integer part and remainder of a * 10**(16 - e)."""
    i = (e - EMIN).astype(np.intp)
    p, rem = _product(a, t.hi[0][i], t.hi[1][i])
    whole = np.floor(p)
    p -= whole
    rem += p              # (p - floor(p)) + err, then + a * lo
    rem += a * t.lo[i]
    k = np.floor(rem)
    rem -= k
    return whole.astype(np.int64) + k.astype(np.int64), rem


def _outside(n):
    """-1.0 where n < 10**16, 1.0 where n >= 10**17, else 0.0. The exact int64
    differences are compared as floats, so that no int64 comparison loop is
    brought into memory."""
    return (np.asarray(n - HIGH, float) >= 0) - (np.asarray(n - LOW, float) < 0) * 1.0


def _digits(a):
    """The 17-digit integer n (int64) and exponent e (float) of each a >= 0,
    and ``ok``: False where Python must write the value (see the module
    docstring)."""
    t = _tables()
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log(a) * LOG10_E)
    ok = (e >= EMIN) & (e <= EMAX)
    a = np.where(ok, a, 1.0)
    e = np.where(ok, e, 0.0)
    n, r = _scaled(t, a, e)
    move = _outside(n)
    bad = np.flatnonzero(move)
    if bad.size:  # the logarithm rounded across a power of ten: move e by one
        eb = e[bad] + move[bad]
        okb = ok[bad] & (eb >= EMIN) & (eb <= EMAX)
        eb = np.where(okb, eb, 0.0)
        nb, r[bad] = _scaled(t, np.where(okb, a[bad], 1.0), eb)
        ok[bad] = okb & (_outside(nb) == 0)
        e[bad], n[bad] = eb, nb
    ok &= np.abs(r - 0.5) >= TIE_MARGIN
    n = np.where(ok, n + (r > 0.5), LOW)
    carry = _outside(n)   # 1.0 where rounding up reached 10**17
    n[carry > 0] = LOW
    e += carry
    return n, e, ok


def _pairs(n, step):
    """(9, n.size) float: the 18 digits of n with a 0 digit opened before its
    last log10(step) digits, two per row."""
    r = n % step
    r *= -9
    r += 10 * n           # 10 n - 9 (n % step)
    pairs = np.empty((9, n.size))
    for row, power in enumerate((10 ** 12, 10 ** 6, 1)):
        low = r % power
        group = (r - low) / power   # exact: the six digits above ``low``
        r = low
        hundreds = np.floor(group / 100)
        top = pairs[3 * row]
        np.floor(hundreds / 100, out=top)
        np.subtract(hundreds, 100 * top, out=pairs[3 * row + 1])
        np.subtract(group, 100 * hundreds, out=pairs[3 * row + 2])
    return pairs


def text(v) -> np.ndarray:
    """(v.size, WIDTH) uint8: the bytes of ``"%.17g" % x`` for each x in v,
    in order, padded with 0 bytes; the last byte of a row is always 0.
    Besides the nine rows of digit pairs, each temporary has one entry per value."""
    v = np.asarray(v, dtype=np.float64).ravel()
    t = _tables()
    n, e, ok = _digits(np.abs(v))
    i = (e - EMIN).astype(np.intp)
    pairs = _pairs(n, t.step[i])
    # one past the last nonzero digit, and at least through the integer digits;
    # floor(0.1 * pair) is the tens digit exactly
    end = t.keep_from[i]
    for k, pair in enumerate(pairs):
        units = np.floor(0.1 * pair)
        units *= -10
        units += pair
        last = (2 * k + 1.0) * (pair != 0)
        last += units != 0
        np.maximum(end, last, out=end)
    # each pair's variant: pair + 100 * (digits kept up to ``end``) + 300 or
    # 600 for a point in place of its first or second digit
    pairs.reshape(-1)[t.slot_pair[i] * v.size + np.arange(v.size)] += t.point[i]
    out = t.affix[i]
    out[:, 0] = np.signbit(v) * ord("-")
    columns = out.view("<u2")
    for k, pair in enumerate(pairs):
        variant = end - 2 * k
        np.clip(variant, 0, 2, out=variant)
        variant *= 100
        variant += pair
        columns[:, 3 + k] = t.pairs[variant.astype(np.intp)]
    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = np.array([b"%.17g" % x for x in v[slow].tolist()],
                             dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out
