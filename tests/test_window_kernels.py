"""The Laurent-window kernels against scalar reference loops.

Every window kernel reads its coefficients through one accessor,
``series._window_slice``, and works on whole arrays.  The references below
are the scalar loops those kernels replaced, written out once more: one
Python-complex operation per coefficient, with an exponent past the
certified top read as ``None``.  The kernels must give the same result,
compared by ``repr``, so the same bits, on seeded windows that include
entries exactly at the strip threshold, all-tiny, zero-led, negated and
empty windows.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from nullsl2 import MeroFunction, NonExactField, TruncationTooShort, annulus
from nullsl2.series import (LaurentWindow, _STRIP_REL, _fft_expand,
                            _normalized_window, _unit_roots, _window_add,
                            _window_mul, _window_reciprocal, _window_slice)
from nullsl2.spinor import is_flat

# ---------------------------------------------------------------------------
# the scalar reference loops
# ---------------------------------------------------------------------------


def ref_coeff(w, k):
    if k < w.min_exponent:
        return 0j
    if k > w.truncation_order:
        return None
    return w.coeffs[k - w.min_exponent]


def ref_normalized(min_exp, coeffs, strip_rel=0.0):
    cs = [complex(c) for c in coeffs]
    if not cs:
        return LaurentWindow(min_exp, (), min_exp - 1)
    peak = max(abs(c) for c in cs)
    thr = strip_rel * peak
    if thr > 0:
        cs = [0j if abs(c) <= thr else c for c in cs]
    lead = 0
    if peak > 0:
        while lead < len(cs) - 1 and abs(cs[lead]) <= thr:
            lead += 1
        if abs(cs[lead]) <= thr:
            lead = 0
    return LaurentWindow(min_exp + lead, tuple(cs[lead:]),
                         min_exp + len(cs) - 1)


def ref_add(a, b, sign):
    if not a.coeffs and not b.coeffs:
        lo = min(a.min_exponent, b.min_exponent)
        return LaurentWindow(lo, (), lo - 1)
    if not a.coeffs:
        return ref_normalized(b.min_exponent, [sign * c for c in b.coeffs],
                              _STRIP_REL)
    if not b.coeffs:
        return a
    lo = min(a.min_exponent, b.min_exponent)
    hi = min(a.truncation_order, b.truncation_order)
    out = []
    for k in range(lo, hi + 1):
        out.append((ref_coeff(a, k) or 0j) + sign * (ref_coeff(b, k) or 0j))
    return ref_normalized(lo, out, _STRIP_REL)


def ref_differentiate(w):
    return ref_normalized(w.min_exponent - 1,
                          [(w.min_exponent + i) * c
                           for i, c in enumerate(w.coeffs)])


def ref_antiderivative(w):
    coeffs = []
    for j in range(w.min_exponent + 1, w.truncation_order + 2):
        coeffs.append(0j if j == 0 else (ref_coeff(w, j - 1) or 0j) / j)
    return ref_normalized(w.min_exponent + 1, coeffs)


def ref_reciprocal(w):
    """The series reciprocal from the first stored coefficient, which must
    be nonzero, normalized by the kernel under test above (a reciprocal
    may overflow to nan, where ``ref_normalized`` strips differently)."""
    c = list(w.coeffs)
    inv = [1.0 / c[0]]
    for k in range(1, len(c)):
        s = 0j
        for j in range(1, k + 1):
            s += c[j] * inv[k - j]
        inv.append(-s / c[0])
    return _normalized_window(-w.min_exponent, inv, _STRIP_REL)


def ref_is_flat_minors(windows, tol):
    lo = min(w.min_exponent for w in windows)
    hi = max(w.truncation_order for w in windows)
    rows = [[ref_coeff(w, k) or 0j for k in range(lo, hi + 1)]
            for w in windows]
    scale = max(max(abs(c) for c in row) for row in rows) or 1.0
    ref_row = max(rows, key=lambda row: max(abs(c) for c in row))
    for row in rows:
        for i in range(len(row)):
            for j in range(i + 1, len(row)):
                minor = row[i] * ref_row[j] - row[j] * ref_row[i]
                if abs(minor) > tol * scale * scale:
                    return False
    return True


def ref_fft_expand(evaluate_many, base, dom, lo, hi):
    r = float(np.sqrt(dom.r_inner * dom.r_outer))
    n = 1024
    while n < 4 * (hi - lo + 1):
        n *= 2
    vals = np.asarray(evaluate_many(base + r * _unit_roots(n)), dtype=complex)
    hat = np.fft.fft(vals) / n
    return ref_normalized(lo, [hat[k % n] / r ** k for k in range(lo, hi + 1)],
                          _STRIP_REL)


# ---------------------------------------------------------------------------
# seeded windows
# ---------------------------------------------------------------------------


def _draw_coeffs(rng, length):
    """Coefficients over many decades, with exact zeros, signed zeros and
    one entry exactly at the strip threshold of the window's peak."""
    mags = 10.0 ** rng.uniform(-17, 2, size=length)
    cs = (mags * np.exp(2j * np.pi * rng.uniform(size=length))).tolist()
    for i in rng.integers(0, length, size=int(rng.integers(0, 3))):
        cs[i] = complex(*rng.choice([0.0, -0.0], size=2))
    if length >= 2 and rng.uniform() < 0.5:
        peak = max(abs(c) for c in cs)
        if peak > 0:
            cs[int(rng.integers(0, length))] = complex(_STRIP_REL * peak, 0.0)
    return cs


def _seeded_windows(seed, count=300):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        length = int(rng.integers(1, 40))
        cs = _draw_coeffs(rng, length)
        kind = i % 6
        if kind == 1:                       # zero-led
            lead = int(rng.integers(1, length + 1))
            cs[:lead] = [0j] * lead
        elif kind == 2:                     # all tiny
            cs = [c * 1e-30 if c else c for c in cs]
        elif kind == 3:                     # all zero
            cs = [0j] * length
        elif kind == 4:                     # negated: signed zeros inside
            cs = [-c for c in cs]
        lo = int(rng.integers(-8, 4))
        out.append(LaurentWindow(lo, tuple(cs), lo + length - 1))
    for m in (-3, 0, 2):                    # empty
        out.append(LaurentWindow(m, (), m - 1))
    return out


WINDOWS = _seeded_windows(2024)


def _same(a, b):
    return repr(a) == repr(b)


# ---------------------------------------------------------------------------
# the kernels against the references
# ---------------------------------------------------------------------------


def test_window_slice_pads_with_zeros():
    w = LaurentWindow(-1, (1 + 1j, 2.0 + 0j, 3j), 1)
    assert _window_slice(w, -3, 3).tolist() == [0j, 0j, 1 + 1j, 2, 3j, 0j, 0j]
    assert _window_slice(w, 0, 0).tolist() == [2 + 0j]
    assert _window_slice(w, 5, 7).tolist() == [0j] * 3
    assert _window_slice(w, 2, 1).tolist() == []
    assert _window_slice(LaurentWindow(0, (), -1), -1, 1).tolist() == [0j] * 3


@pytest.mark.parametrize("strip", [0.0, _STRIP_REL, 1e-3])
def test_normalized_window_matches_scalar_loop(strip):
    rng = np.random.default_rng(7)
    for w in WINDOWS:
        lo = int(rng.integers(-5, 5))
        assert _same(_normalized_window(lo, list(w.coeffs), strip),
                     ref_normalized(lo, w.coeffs, strip))
        assert _same(_normalized_window(lo, np.asarray(w.coeffs,
                                                       dtype=complex), strip),
                     ref_normalized(lo, w.coeffs, strip))


def test_normalized_window_threshold_is_inclusive():
    thr = _STRIP_REL * 4.0
    w = _normalized_window(0, [complex(thr, 0.0), 4.0, complex(0.0, thr)],
                           _STRIP_REL)
    assert (w.min_exponent, w.coeffs) == (1, (4 + 0j, 0j))


def test_window_add_matches_scalar_loop():
    rng = np.random.default_rng(11)
    for a in WINDOWS:
        b = WINDOWS[int(rng.integers(0, len(WINDOWS)))]
        for sign in (1, -1):
            assert _same(_window_add(a, b, sign), ref_add(a, b, sign))
            assert _same(_window_add(b, a, sign), ref_add(b, a, sign))


def test_window_calculus_matches_scalar_loops():
    for w in WINDOWS:
        f = MeroFunction(w)
        assert _same(f.differentiate().rep, ref_differentiate(w))
        res = ref_coeff(w, -1)
        if res:
            with pytest.raises(NonExactField):
                f.antiderivative()
        else:
            assert _same(f.antiderivative().rep, ref_antiderivative(w))


def test_window_mul_reads_the_convolution_directly():
    rng = np.random.default_rng(5)
    for a in WINDOWS[:100]:
        b = WINDOWS[int(rng.integers(0, 100))]
        if not (a.coeffs and b.coeffs):
            continue
        hi = min(a.truncation_order + b.min_exponent,
                 b.truncation_order + a.min_exponent)
        lo = a.min_exponent + b.min_exponent
        full = np.convolve(np.asarray(a.coeffs), np.asarray(b.coeffs))
        assert _same(_window_mul(a, b),
                     ref_normalized(lo, list(full[:hi - lo + 1]), _STRIP_REL))


def test_window_reciprocal_starts_at_the_first_nonzero_coefficient():
    # a window led by nonzero keeps its bits; a zero-led one (built
    # directly, not normalized) is read from its first nonzero coefficient
    checked = {0: 0, 1: 0}
    for w in WINDOWS:
        if not any(w.coeffs):
            continue
        lead = next(i for i, c in enumerate(w.coeffs) if c)
        tail = LaurentWindow(w.min_exponent + lead, w.coeffs[lead:],
                             w.truncation_order)
        assert _same(_window_reciprocal(w), ref_reciprocal(tail))
        checked[lead > 0] += 1
    assert checked[0] > 100 and checked[1] > 30


def test_division_by_a_zero_led_window_reads_its_order():
    f = MeroFunction(LaurentWindow(0, (0j, 1 + 0j), 1))
    assert f.ord(0) == 1
    assert (1 / f).rep == LaurentWindow(-1, (1 + 0j,), -1)
    g = MeroFunction(LaurentWindow(-1, (0j, -0j, 2 + 0j, 1j, 0.5 + 0j), 3))
    q = MeroFunction.from_laurent(1, [2.0, 1j, 0.5]) / g
    assert (g.ord(0), (1 / g).ord(0), q.ord(0)) == (1, -1, 0)
    tail = LaurentWindow(1, (2 + 0j, 1j, 0.5 + 0j), 3)
    assert _same(q.rep, _window_mul(tail, ref_reciprocal(tail)))


@pytest.mark.parametrize("r_in, r_out", [(0.5, 2.0), (0.3, 0.9), (1.5, 7.0)])
def test_fft_expand_matches_scalar_readout(r_in, r_out):
    rng = np.random.default_rng(3)
    dom = annulus(r_in, r_out)
    for _ in range(5):
        f = MeroFunction(LaurentWindow(-4, tuple(_draw_coeffs(rng, 9)), 4),
                         0j, dom)
        lo, hi = sorted(int(k) for k in rng.integers(-40, 40, size=2))
        assert _same(_fft_expand(f.evaluate_many, 0j, dom, lo, hi),
                     ref_fft_expand(f.evaluate_many, 0j, dom, lo, hi))


@pytest.mark.parametrize("r_in, r_out", [(1e5, 1e7), (1e-7, 1e-5)])
def test_fft_expand_refuses_radii_without_float_powers(r_in, r_out):
    # r = 1e6 (or 1e-6) has no finite nonzero float r**k for |k| = 59: a
    # named ValueError, not an OverflowError or a division by 0.0
    f = MeroFunction.from_rational([1], [0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"radius .* \[-59, 59\]"):
            f.to_laurent(terms=60, domain=annulus(r_in, r_out))


def test_is_flat_window_minors_match_scalar_loop():
    rng = np.random.default_rng(17)
    nonempty = [w for w in WINDOWS if w.coeffs][:60]
    for k, w in enumerate(nonempty):
        c = complex(*rng.normal(size=2))
        near = LaurentWindow(w.min_exponent,
                             tuple(c * x for x in w.coeffs),
                             w.truncation_order)
        other = nonempty[(k * 7 + 3) % len(nonempty)]
        for rows in ((w, near), (w, near, other), (near, w, w)):
            comps = [MeroFunction(r) for r in rows]
            if all(f.is_identically_zero(0.0) for f in comps):
                continue
            for tol in (0.0, 1e-16, 1e-12, 1e-6):
                if all(f.is_identically_zero(tol) for f in comps):
                    continue
                assert is_flat(comps, tol) == ref_is_flat_minors(rows, tol)


def test_laurent_head_residue_and_base_value_read_the_window():
    for w in WINDOWS:
        f = MeroFunction(w)
        top = w.truncation_order
        if w.coeffs:
            assert _same(f.laurent_head(0, top - 3, top),
                         {k: ref_coeff(w, k) or 0j
                          for k in range(top - 3, top + 1)})
            with pytest.raises(TruncationTooShort):
                f.laurent_head(0, top - 1, top + 1)
        if top < -1 and w.coeffs:
            with pytest.raises(TruncationTooShort):
                f.residue(0)
        else:
            assert _same(f.residue(0), ref_coeff(w, -1) or 0j)
        assert f.residue(0.5) == 0j
        if w.min_exponent >= 0 or not any(w.coeffs[:-w.min_exponent]):
            assert _same(f.evaluate(0), ref_coeff(w, 0) or 0j)


def test_a_stored_signed_zero_reads_as_zero():
    # the one change in bits: residue and the base-point value used to
    # return a stored zero with its signs, and now return 0j as every
    # other reader of the window does
    f = MeroFunction(LaurentWindow(-1, (complex(-0.0, -0.0),
                                        complex(-0.0, 0.0), 1 + 0j), 1))
    assert repr(f.residue(0)) == repr(f.evaluate(0)) == "0j"
    assert repr(f.laurent_head(0, -1, 0)) == "{-1: 0j, 0: 0j}"


def test_empty_window_reads_as_zero():
    f = MeroFunction(LaurentWindow(-2, (), -3))
    assert f.laurent_head(0, -4, 4) == {k: 0j for k in range(-4, 5)}
    assert f.residue(0) == 0j
    assert f.evaluate(0) == 0j
    assert f.antiderivative().rep == LaurentWindow(-1, (), -2)
