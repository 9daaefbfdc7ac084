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
from fractions import Fraction

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
    # round-off is stripped in mode space, before the division by r**k
    modes = ref_normalized(lo, [hat[k % n] for k in range(lo, hi + 1)],
                           _STRIP_REL)
    lead = modes.min_exponent
    # numpy's complex division, as in the kernel's array quotient
    return ref_normalized(lead, [np.complex128(c) / r ** k for k, c in
                                 enumerate(modes.coeffs, lead)])


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


@pytest.mark.parametrize("num", [[3e306, 1e306], [1e308, 1e308]])
def test_fft_expand_refuses_values_past_the_float_range(num):
    # 3e306 + 1e306 z has finite samples whose FFT sums overflow, which
    # read as an all-zero window; 1e308 (1 + z) has infinite samples.
    # Both are a named ValueError with no RuntimeWarning
    f = MeroFunction.from_rational(num, [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a finite float"):
            f.to_laurent(terms=25, domain=annulus(0.5, 2.0))


def _float_constants(seed, count):
    """Nonzero constants from floats at magnitudes 1e-30 .. 1e30: real,
    imaginary and general, with signed zero parts."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        re, im = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-30, 30)
                  for _ in range(2))
        zero = rng.choice([0.0, -0.0])
        out.append(complex(*((re, zero), (zero, im), (re, im))[i % 3]))
    return out


def test_constant_windows_equal_the_fft_bit_for_bit():
    # annuli 0.01 .. 40, off-origin bases, 25 .. 60 terms
    rng = np.random.default_rng(34)
    for c in _float_constants(34, 600):
        r_in = 10.0 ** rng.uniform(-2, 1.2)
        dom = annulus(r_in, min(40.0, r_in * 10.0 ** rng.uniform(0.05, 0.8)))
        base = complex(*rng.uniform(-2, 2, size=2)) if rng.uniform() < 0.5 \
            else 0j
        terms = int(rng.integers(25, 61))
        f = MeroFunction.constant(c)
        got = f.to_laurent(base, terms, dom)
        want = _fft_expand(f.evaluate_many, base, dom, 1 - terms, terms - 1)
        assert _same(got.rep, want)
        assert (got.base_point, got.domain) == (base, dom)


def test_a_constant_quotient_is_rounded_once():
    # c = num / den is the exact quotient rounded once, with +0.0 zero
    # parts.  The FFT reads the float quotient of the rounded num and den
    # instead, which can be an ulp away or carry -0.0 (den < 0); where its
    # samples hold c's bits, the two windows agree bit for bit
    rng = np.random.default_rng(35)
    dom = annulus(0.5, 2.0)
    agreed = 0
    for _ in range(200):
        num, den = (Fraction(int(rng.integers(1, 100)) * int(sign),
                             int(rng.integers(1, 100)))
                    for sign in rng.choice([-1, 1], size=2))
        f = MeroFunction.from_rational([num], [den])
        got = f.to_laurent(terms=25, domain=dom).rep
        c = complex(float(num / den), 0.0)
        assert _same(got, LaurentWindow(0, (c,) + (0j,) * 24, 24))
        if repr(complex(f.evaluate_many([1.0])[0])) == repr(c):
            agreed += 1
            assert _same(got, _fft_expand(f.evaluate_many, 0j, dom, -24, 24))
    assert 0 < agreed < 200


@pytest.mark.parametrize("r_in, r_out", [(1e5, 1e7), (1e-7, 1e-5)])
def test_a_constant_has_a_window_on_every_annulus(r_in, r_out):
    # no r**k is formed, so the radii of the FFT's ValueError do not apply
    dom = annulus(r_in, r_out)
    w = MeroFunction.constant(2.5 - 1j).to_laurent(terms=60, domain=dom)
    assert _same(w.rep, LaurentWindow(0, (2.5 - 1j,) + (0j,) * 59, 59))
    # the zero constant keeps the FFT, and its refusal
    with pytest.raises(ValueError, match=r"radius .* \[-59, 59\]"):
        MeroFunction.zero().to_laurent(terms=60, domain=dom)


def test_the_zero_constant_keeps_the_fft():
    dom = annulus(0.5, 2.0)
    f = MeroFunction.zero()
    assert _same(f.to_laurent(terms=25, domain=dom).rep,
                 _fft_expand(f.evaluate_many, 0j, dom, -24, 24))


def test_window_residue_on_annulus_10_100():
    # r = sqrt(1000): divided by r**k before the strip, the round-off of
    # the k = -24 mode outgrew c(-1) = 1, which was stripped to 0j
    w = MeroFunction.from_rational([1], [0, 1]).to_laurent(
        domain=annulus(10, 100))
    assert abs(w.residue(0) - 1) < 1e-12


@pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
def test_window_residue_matches_sympy_across_radii(r):
    # c(-1) on the annulus is the sum of the residues at the poles inside
    # it: here a double pole inside the sampling circle and one outside
    sp = pytest.importorskip("sympy")
    z = sp.symbols("z")
    r_ = sp.nsimplify(r)
    p_in = r_ * (sp.Rational(3, 10) + sp.I / 10)
    p_out = r_ * (3 + sp.I / 2)
    expr = (z ** 2 + 3 * r_ * z + 5 * r_ ** 2) / ((z - p_in) ** 2 * (z - p_out))
    num, den = (sp.Poly(e, z).all_coeffs()[::-1] for e in sp.fraction(expr))
    f = MeroFunction.from_rational([complex(c) for c in num],
                                   [complex(c) for c in den])
    expected = complex(sp.residue(expr, z, p_in))
    got = f.to_laurent(domain=annulus(0.6 * r, 1.5 * r)).residue(0)
    assert abs(got - expected) <= 1e-10 * abs(expected)


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
