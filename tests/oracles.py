"""Test-only oracles: the slow, direct routes that fast paths are checked against.

The `*_by_label` functions are the per-basis-vector relation walk of the
five `operators.*_results` families: every relation is evaluated afresh on
each interior basis vector psi_(n, m, j), with no use of the fact that the
operators never read m or j.  They share the side and residual helpers with
`operators`, so the two routes must agree to the last bit; what they check
is the walk.

`fourier_by_cell` is the transform as one character sum per output cell,
Theta(N^2): the route `functions.fourier` took before the radix-p pass up
the class tree.  On exact tables the two must agree in keys, key order and
the repr of every value.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import lcm

from padic_wavelets.errors import WindowClipError
from padic_wavelets.exact import Cyc, amp_is_zero, is_half_integral, p_power_amp
from padic_wavelets.functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    ball_reps,
    cell_index,
)
from padic_wavelets.operators import (
    _commutator_sides,
    _deformed_sides,
    _residual_result,
    ell_op,
    interior_scales,
    j_op,
    log_vladimirov_op,
    scalar_op,
    translate_expansion,
    vladimirov,
    vladimirov_spectral,
)
from padic_wavelets.wavelets import KozyrevIndex, basis_vector, enumerate_m_digits


def _interior_basis(p, window, *ops):
    for n in interior_scales(window, *ops):
        for m in enumerate_m_digits(p, window.m_depth):
            for j in range(1, p):
                yield KozyrevIndex(n, m, j)


def sl2_by_label(p, window):
    out = []
    jp, jm, logd = j_op(+1), j_op(-1), log_vladimirov_op()
    plus_minus = scalar_op(Fraction(2)) @ logd
    for idx in _interior_basis(p, window, jp, jm):
        e = basis_vector(p, window, idx)
        out.append(_residual_result(
            "sl2:[J+,J-]-2logD", idx, None, _commutator_sides(jp, jm, e, plus_minus), True))
    for step, name in ((+1, "sl2:[logD,J+]+J+"), (-1, "sl2:[logD,J-]-J-")):
        js = j_op(step)
        expected = scalar_op(Fraction(-step)) @ js
        for idx in _interior_basis(p, window, js):
            e = basis_vector(p, window, idx)
            out.append(_residual_result(
                name, idx, None, _commutator_sides(logd, js, e, expected), True))
    return out


def witt_by_label(p, window, k_range=3):
    out = []
    for a in range(-k_range, k_range + 1):
        for b in range(-k_range, k_range + 1):
            la, lb = ell_op(a), ell_op(b)
            expected = scalar_op(Fraction(a - b)) @ ell_op(a + b)
            for idx in _interior_basis(p, window, la, lb, ell_op(a + b)):
                e = basis_vector(p, window, idx)
                out.append(_residual_result(
                    f"witt:[l{a},l{b}]", idx, None,
                    _commutator_sides(la, lb, e, expected), True))
    return out


def deformed_by_label(p, window, alphas):
    out = []
    logd = log_vladimirov_op()
    for alpha in alphas:
        dal = vladimirov(alpha)
        exact = is_half_integral(alpha)
        exact_deformed = is_half_integral(alpha / Fraction(2))
        for step in (+1, -1):
            js = j_op(step)
            for idx in _interior_basis(p, window, js):
                e = basis_vector(p, window, idx)
                out.append(_residual_result(
                    f"deformed:s={step:+d}", idx, alpha,
                    _deformed_sides(alpha, step, e), exact_deformed))
                factor = 1 - p_power_amp(p, step * alpha)
                expected = scalar_op(factor) @ dal @ js
                out.append(_residual_result(
                    f"commutator:[D^a,J{step:+d}]", idx, alpha,
                    _commutator_sides(dal, js, e, expected), exact))
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            out.append(_residual_result(
                "commutator:[D^a,logD]", idx, alpha,
                _commutator_sides(dal, logd, e, None), exact))
    return out


def semigroup_by_label(p, window, alpha_pairs):
    out = []
    for a1, a2 in alpha_pairs:
        exact = is_half_integral(a1) and is_half_integral(a2)
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            lhs = vladimirov_spectral(a1, vladimirov_spectral(a2, e))
            rhs = vladimirov_spectral(a1 + a2, e)
            out.append(_residual_result("semigroup", idx, (a1, a2), [lhs, rhs], exact))
    return out


def translation_spectral_by_label(p, window, shift, alphas):
    out = []
    for alpha in alphas:
        exact = is_half_integral(alpha)
        for idx in _interior_basis(p, window):
            e = basis_vector(p, window, idx)
            try:
                lhs = vladimirov_spectral(alpha, translate_expansion(e, shift))
                rhs = translate_expansion(vladimirov_spectral(alpha, e), shift)
            except WindowClipError:
                continue
            out.append(_residual_result(
                "translation:spectral", idx, alpha, [lhs, rhs], exact))
    return out


def fourier_by_cell(f: LocallyConstantFn, sign: int, cap: int = DEFAULT_CELL_CAP):
    """`fourier` (sign -1) or `inverse_fourier` (sign +1), one output cell at
    a time.

    For w = iw*p^(-K) and r = ir*p^(-M) the phase of chi(w*r) is
    (iw*ir mod N) / N over the N = p^(M+K) cells.  Exact values are lifted
    once to integers over a common cyclotomic level and denominator,
    rational and sqrt(p) parts apart; a float value is one rational term at
    exponent 0.  Each output cell sums its terms by phase, then normalizes
    once (exact) or weights each phase by its root of unity (float).
    """
    p = f.prime
    out_reps = ball_reps(p, f.resolution, f.support_exponent, cap)
    count = len(out_reps)
    cells = [(cell_index(r, p, f.support_exponent), f.table[r]) for r in sorted(f.table)]
    exact = f.is_exact()
    if exact:
        level = max([f.support_exponent + f.resolution] + [v.level for _, v in cells])
        den = lcm(*(v.den for _, v in cells))
        lifted = []
        for ir, v in cells:
            lift = p ** (level - v.level)
            up = den // v.den
            lifted.append((
                ir,
                [(e * lift, a * up) for e, (a, _) in v.terms.items() if a],
                [(e * lift, b * up) for e, (_, b) in v.terms.items() if b],
            ))
        scale = Fraction(p) ** (-f.resolution) / den
    else:
        level = f.support_exponent + f.resolution
        lifted = [(ir, [(0, complex(v))], []) for ir, v in cells]
        roots = [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]
        scale = float(p) ** (-f.resolution)
    modulus = p**level
    lift_root = modulus // count
    out = {}
    for iw, w in enumerate(out_reps):
        acc_a, acc_b = {}, {}
        get_a, get_b = acc_a.get, acc_b.get
        for ir, terms_a, terms_b in lifted:
            shift = (sign * iw * ir % count) * lift_root
            for e, c in terms_a:
                e += shift
                if e >= modulus:
                    e -= modulus
                acc_a[e] = get_a(e, 0) + c
            for e, c in terms_b:
                e += shift
                if e >= modulus:
                    e -= modulus
                acc_b[e] = get_b(e, 0) + c
        if exact:
            phases = set(acc_a.keys())
            phases.update(acc_b.keys())
            num = scale.numerator
            terms = {e: (get_a(e, 0) * num, get_b(e, 0) * num)
                     for e in phases if get_a(e) or get_b(e)}
            total = Cyc(p, level, terms, scale.denominator)
        else:
            total = sum(roots[e] * c for e, c in acc_a.items()) * scale
        if not amp_is_zero(total):
            out[w] = total
    return LocallyConstantFn(p, f.resolution, f.support_exponent, out)
