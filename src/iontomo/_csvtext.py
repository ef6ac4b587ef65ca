"""``%.17g`` text of float64 arrays, byte for byte, from whole-array numpy operations.

The 17 digits of finite nonzero x round V = ldexp(|x|, s) 5^s, s = 16 - floor(log10|x|),
known within about 1e-14 from 5^s as a double-double (hi, lo) and Dekker's error-free
product of ldexp(|x|, s) hi.  Values whose V lies within 1e-9 of a tie, +-inf and nan
go through ``"%.17g" % v`` itself.  Each value is a row (sign | "0.000" | digits | "." |
digits | "e+-0ddd" | separator) whose keep mask is looked up by sign, layout and last
nonzero digit; one boolean compaction of the rows gives the text.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 49
_D1, _D2, _E = 6, 24, 41  # the digits, the digits after the point, "e"
_K_MIN = -330  # the tables cover k in [-330, 330]; a double has k in [-324, 308]
_SPLIT = 134217729.0  # 2^27 + 1


@functools.cache
def _tables():
    """Per k: 5^(16 - k) as hi, lo, hi's Dekker halves, exponent digits, 17 layout + 16; chunks; masks."""
    fives = [(5 ** max(s, 0), 5 ** max(-s, 0)) for s in range(16 - _K_MIN, 15 + _K_MIN, -1)]
    hi = np.array([num / den for num, den in fives])  # int division rounds correctly
    lo = np.array([(n * b - a * d) / (d * b) for (n, d), (a, b) in zip(fives, map(float.as_integer_ratio, hi))])
    bh = hi * _SPLIT - (hi * _SPLIT - hi)
    d = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # the digits of 0..9999
    chunks = np.ascontiguousarray(d + 48).view(np.uint32)[:, 0]
    zeros = (d[:, ::-1] == 0).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    k = np.arange(_K_MIN, 1 - _K_MIN)
    # layout: k + 4 in fixed notation (-4 <= k <= 16), then e+dd, e+ddd, e-dd, e-ddd
    layout = 17 * np.where((k >= -4) & (k <= 16), k + 4, 21 + 2 * (k < 0) + (abs(k) >= 100)) + 16
    c = np.arange(25)[:, None]
    kc = np.where(c < 21, c - 4, 0)[..., None]
    point = np.where(kc < 0, 17, kc + 1)  # digits before the point
    sig, j = np.arange(17)[:, None], np.arange(17)  # last nonzero digit, digit
    keep = np.zeros((2, 25, 17, WIDTH), dtype=bool)
    keep[1, ..., 0] = keep[..., -1] = True
    keep[..., 1:6] = (kc < 0) & (j[:5] < 1 - kc)  # "0." and -k - 1 zeros
    keep[..., _D1:_D2 - 1] = (j < point) & ((j <= sig) | (kc >= 0))
    keep[..., _D2 - 1] = (sig >= point)[..., 0]
    keep[..., _D2:_E] = (j >= point) & (j <= sig)
    e = c > 20
    keep[..., _E:-1] = np.stack([e, e & (c < 23), c > 22, c < 0, e & (c % 2 == 0), e, e], axis=-1)
    template = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+-0000,", dtype=np.uint8)
    return (hi, lo, bh, hi - bh), chunks[abs(k)], layout, chunks, zeros, keep.reshape(-1, WIDTH), template


def fields(x: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill the ``(n, WIDTH)`` ``text`` and ``keep`` rows of the 1-D float64 ``x``: ``text[keep]``
    is each value's ``"%.17g"`` text and its separator, the row's last byte (``,``)."""
    (hi_t, lo_t, bh_t, bl_t), exps, layout, chunks, zeros, patterns, template = _tables()
    zero, finite = x == 0, np.isfinite(x)
    ax = np.where(finite & ~zero, np.abs(x), 1.0)  # k = 0 in place of 0 and non-finite x
    k = np.floor(np.log10(ax)).astype(np.int64)
    D, fallback = np.empty(x.size, dtype=np.int64), np.empty(x.size, dtype=bool)
    todo = slice(None)
    for _ in range(3):  # near a power of ten, log10 can put k one off: V then misses [1e16, 1e17)
        kk, i = k[todo], k[todo] - _K_MIN
        a = np.ldexp(ax[todo], 16 - kk)
        p = a * hi_t[i]
        ah = a * _SPLIT - (a * _SPLIT - a)
        al, bh, bl = a - ah, bh_t[i], bl_t[i]
        e = al * bl + (((ah * bh - p) + al * bh) + ah * bl)  # p + e = a hi exactly
        fp = np.floor(p)
        r = ((p - fp) + e) + a * lo_t[i]  # V - fp
        fr = np.floor(r)
        r -= fr
        floor = fp.astype(np.int64) + fr.astype(np.int64)  # floor(V), summed exactly
        D[todo], fallback[todo] = floor + (r > 0.5), abs(r - 0.5) < 1e-9
        k[todo] = kk + (floor >= 10 ** 17) - (floor < 10 ** 16)
        miss = np.flatnonzero((floor < 10 ** 16) | (floor >= 10 ** 17))
        if miss.size == 0:
            break
        todo = miss if isinstance(todo, slice) else todo[miss]
    else:
        fallback[todo] = True
    fallback |= ~finite
    top = D == 10 ** 17
    D[top], D[zero] = 10 ** 16, 0
    k += top - _K_MIN
    c = np.empty((5, x.size), dtype=np.int64)  # D as a leading digit and four 4-digit chunks
    for i, p in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4, 1)):
        np.floor_divide(D, p, out=c[i])
        D -= c[i] * p
    text[:] = template
    text[:, _D1:_D2 - 1] = text[:, _D2:_E] = np.ascontiguousarray(chunks[c].T).view(np.uint8)[:, 3:]  # "000d" -> "d"
    text[:, _E + 3:-1] = exps[k].view(np.uint8).reshape(-1, 4)
    z1, z2, z3, z4 = zeros[c[1:]]
    code = layout[k] + np.signbit(x) * (25 * 17) - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    np.take(patterns, code, axis=0, out=keep)
    for i in np.flatnonzero(fallback):
        s = np.frombuffer(b"%.17g" % x[i], dtype=np.uint8)
        text[i, :s.size], keep[i, :-1] = s, np.arange(WIDTH - 1) < s.size


def packed(x: np.ndarray):
    """:func:`fields` of the 1-D ``x`` moved left in rows as wide as the longest text: a :func:`lines` head."""
    text, keep = np.empty((x.size, WIDTH), dtype=np.uint8), np.empty((x.size, WIDTH), dtype=bool)
    fields(x, text, keep)
    width = keep.sum(axis=1)
    out_keep = np.arange(width.max(initial=1)) < width[:, None]
    out = np.zeros(out_keep.shape, dtype=np.uint8)
    out[out_keep] = text[keep]
    return out, out_keep


def lines(x: np.ndarray, *heads) -> bytes:
    """CSV lines of the float64 array ``x``, one per row of its last axis, each after the
    (text, keep) ``heads`` (broadcast over the other axes) and ended by a newline."""
    ends = np.cumsum([0] + [t.shape[-1] for t, _ in heads])
    shape = (*x.shape[:-1], ends[-1] + x.shape[-1] * WIDTH)
    text, keep = np.empty(shape, dtype=np.uint8), np.empty(shape, dtype=bool)
    for (t, k), a, b in zip(heads, ends, ends[1:]):
        text[..., a:b], keep[..., a:b] = t, k
    fields(x.ravel(), text[..., ends[-1]:].reshape(-1, WIDTH), keep[..., ends[-1]:].reshape(-1, WIDTH))
    text[..., -1] = 10
    return text[keep].tobytes()
