"""The Kozyrev wavelet family on Q_p.

A wavelet label (n, m, j) has scale n, translation m in Q_p/Z_p stored by
its fractional digits (m_1, ..., m_k) with m = sum m_i p^(-i), and phase
index j in [1, p-1].  The wavelet itself is

    psi_{n,m,j}(x) = p^(-n/2) * chi(j p^(n-1) x) * [ |p^n x - m|_p <= 1 ],

supported on the coset p^(-n)(m + Z_p) and constant on cosets of
p^(1-n) Z_p.  This module evaluates and materializes the wavelets as cell
tables and projects onto them.  The independent piecewise constructors
built straight from the case tables of the scaled/translated wavelets
(`closed_form_*`) are test oracles in `tests/oracles.py`, never part of
the evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .errors import InvalidInputError, WindowClipError
from .exact import Cyc, added_terms, cyc_rotated
from .functions import (
    DEFAULT_CELL_CAP,
    LocallyConstantFn,
    _char_root,
    _check_cap,
    add_cells,
    amp_from_json,
    amp_to_json,
    cell_index,
    cell_table,
    character_amp,
    class_sums,
    json_int,
    term_sums,
)
from .padic import check_prime, digits_to_int, int_to_digits, valp


@dataclass(frozen=True, order=True)
class KozyrevIndex:
    """Wavelet label (n, m, j); trailing zero m-digits are stripped."""

    n: int
    m_digits: tuple = ()
    j: int = 1

    def __post_init__(self):
        digits = tuple(self.m_digits)
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        object.__setattr__(self, "m_digits", digits)
        if self.j < 1:
            raise InvalidInputError("phase index j must be >= 1")

    @property
    def m_depth(self) -> int:
        return len(self.m_digits)


def sorted_labels(coefficients: dict) -> list:
    """The (label, value) pairs of `coefficients` by label (n, m_digits, j),
    the order of `KozyrevIndex`, compared as tuples."""
    return sorted(coefficients.items(), key=lambda item: (item[0].n, item[0].m_digits, item[0].j))


def m_value(idx: KozyrevIndex, p: int) -> Fraction:
    """The canonical coset representative sum m_i p^(-i)."""
    return digits_to_int(idx.m_digits[::-1], p) * Fraction(1, p**idx.m_depth)


def validate_index(p: int, idx: KozyrevIndex) -> KozyrevIndex:
    check_prime(p)
    if not 1 <= idx.j <= p - 1:
        raise InvalidInputError(f"j={idx.j} outside [1, {p - 1}]")
    if any(not 0 <= d < p for d in idx.m_digits):
        raise InvalidInputError("m digits must lie in [0, p-1]")
    return idx


@dataclass(frozen=True)
class Window:
    """Inclusive scale bounds and maximum fractional depth for m."""

    n_min: int
    n_max: int
    m_depth: int = 1

    def __post_init__(self):
        if self.n_min > self.n_max or self.m_depth < 0:
            raise InvalidInputError("empty window")

    def contains(self, idx: KozyrevIndex) -> bool:
        return self.n_min <= idx.n <= self.n_max and idx.m_depth <= self.m_depth


def enumerate_m_digits(p: int, max_depth: int):
    """All canonical m-digit tuples of depth <= max_depth, sorted by depth."""
    result = [()]
    for depth in range(1, max_depth + 1):
        for i in range(p**depth):
            m = int_to_digits(i, p, depth)
            if m[-1] != 0:
                result.append(m)
    return sorted(result, key=lambda t: (len(t), t))


@dataclass
class WaveletExpansion:
    """Sparse coefficient map over wavelet labels inside a window."""

    prime: int
    window: Window
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        check_prime(self.prime)
        for idx in self.coefficients:
            if not self.window.contains(idx):
                raise WindowClipError(idx, f"index {idx} outside window {self.window}")


# -- evaluation --------------------------------------------------------------


def evaluate_at_rational(p: int, idx: KozyrevIndex, q: Fraction) -> Cyc:
    """Wavelet value at an exact rational point."""
    validate_index(p, idx)
    n, j = idx.n, idx.j
    arg = Fraction(p) ** n * q - m_value(idx, p)
    if arg != 0 and arg.denominator % p == 0:
        return Cyc.zero(p)
    return Cyc.half_power(p, -n) * character_amp(p, Fraction(j) * Fraction(p) ** (n - 1) * q)


def natural_support_exponent(idx: KozyrevIndex) -> int:
    return idx.n + idx.m_depth


def natural_resolution(idx: KozyrevIndex) -> int:
    return 1 - idx.n


def materialize(p: int, idx: KozyrevIndex, extra_depth: int = 0,
                cap: int = DEFAULT_CELL_CAP) -> LocallyConstantFn:
    """Cell table of the wavelet at its natural support and resolution.

    The support ball exponent is n + depth(m): for m != 0 the support is the
    single coset p^(-n)(m + Z_p) sitting on the sphere |x| = p^(n+depth).
    """
    validate_index(p, idx)
    if extra_depth < 0:
        raise InvalidInputError("extra_depth must be >= 0")
    support = natural_support_exponent(idx)
    resolution = natural_resolution(idx) + extra_depth
    # the cap bounds the declared ball, although only the support coset is
    # enumerated: its cells (m + t) p^(-n), t < p^(1+extra_depth), are
    # canonical and increasing, so the table has the ball's cell order
    _check_cap(p, support + resolution, cap)
    m = m_value(idx, p)
    unit = Fraction(p) ** -idx.n
    table = {}
    for t in range(p ** (1 + extra_depth)):
        rep = (m + t) * unit
        table[rep] = evaluate_at_rational(p, idx, rep)
    return LocallyConstantFn(p, support, resolution, table)


# -- analysis / synthesis ----------------------------------------------------


def _twiddle(p: int, v, e: int):
    """v * zeta_p^e: v itself at e = 0 mod p, -v at p = 2."""
    e %= p
    if e == 0:
        return v
    if p == 2:
        return -v
    return v * _char_root(p, e, p)


def analyze(f: LocallyConstantFn, window: Window,
             cap: int = DEFAULT_CELL_CAP) -> WaveletExpansion:
    """Project onto every wavelet in the window; clipping is silent.

    On its child p^(-n)(m + d + pZ_p) the wavelet is p^(-n/2) chi(j(m + d)/p),
    so with m = mu p^(-k), k = depth(m), a coefficient needs only the class
    sums s_d of f's cells i p^(-M) at i = mu p^(M-n-k) + d p^(M-n) mod
    p^(M-n+1), and is (sum_d zeta_p^(-jd) s_d) * chi(-j mu/p^(k+1)) p^(-n/2) p^(-K).
    The labels are read off the class sums in order of n, then m by depth
    and digits, then j; labels finer than the cells (n < 1 - K) or off the
    ball get 0.

    An exact table is summed by `functions.term_sums` as integer terms
    {exponent: (a, b)} of the p^L-th roots of unity over one common
    denominator, L the highest level of its values and at least 1 for
    p > 2, so that zeta_p is a power of zeta_(p^L).  The class sums and the
    twiddled children only add those term dicts (`exact.added_terms`),
    which hold no more exponents than the cells do, and each coefficient
    is normalized once, as one `Cyc`, then rotated by its character
    (`exact.cyc_rotated`) and scaled.  A table with a float value is
    summed as amplitudes by `class_sums`.
    """
    p = f.prime
    m_exp, res = f.support_exponent, f.resolution
    # the cap bounds each label's p^(1+depth(m)) cells, as `materialize` does
    for depth in range(window.m_depth + 1):
        _check_cap(p, depth + 1, cap)
    coeffs = {}
    n_low = max(window.n_min, 1 - res)
    if window.n_max < n_low:
        return WaveletExpansion(p, window, coeffs)
    cells = {cell_index(r, p, m_exp): v for r, v in f.table.items()}
    measure = Fraction(p) ** (-res)
    exact = f.is_exact()
    if exact:
        level, den, sums = term_sums(p, cells, m_exp + res)
        measure /= den
    else:
        sums = class_sums(p, cells, m_exp + res)
    for n in range(n_low, window.n_max + 1):
        scale = Cyc.half_power(p, -n) * measure
        if n > m_exp:  # m = 0 above the ball: all of f lies in child 0
            groups = {(0, 0): {0: sums[0][0]}} if sums[0] else {}
        else:
            # the class i mod p^(M-n+1) is mu p^(M-n-k) + d p^(M-n)
            shift = p ** (m_exp - n)
            by_class = {}
            for i, s in sums[m_exp - n + 1].items():
                by_class.setdefault(i % shift, {})[i // shift] = s
            groups = {}
            for a, children in by_class.items():
                v = valp(a, p) if a else m_exp - n
                if m_exp - n - v <= window.m_depth:
                    groups[(m_exp - n - v, a // p**v)] = children
        for k, mu in sorted(groups):
            children = groups[(k, mu)]
            m_digits = int_to_digits(mu, p, k)[::-1]
            for j in range(1, p):
                if exact:
                    c = Cyc(p, level, _twiddled_sum(p, level, children, j))
                    if c:
                        c = cyc_rotated(c, -j * mu, k + 1) * scale
                else:
                    total = None
                    for d in sorted(children):
                        term = _twiddle(p, children[d], -j * d)
                        total = term if total is None else total + term
                    c = total * (character_amp(p, Fraction(-j * mu, p ** (k + 1))) * scale)
                if c:
                    coeffs[KozyrevIndex(n, m_digits, j)] = c
    return WaveletExpansion(p, window, coeffs)


def _twiddled_sum(p: int, level: int, children: dict, j: int) -> dict:
    """sum_d zeta_p^(-jd) children[d] of term dicts at `level`: at p = 2 a
    child is negated when jd is odd; otherwise its exponents move by
    (-jd mod p) p^(level-1), mod p^level."""
    modulus = p**level
    parts = []
    for d, terms in children.items():
        s = -j * d % p
        if not s:
            parts.append((terms.items(), 1, 1))
        elif p == 2:
            parts.append((terms.items(), 1, -1))
        else:
            shift = s * modulus // p
            parts.append(([((e + shift) % modulus, c) for e, c in terms.items()], 1, 1))
    return added_terms(parts)


def synthesize(expansion: WaveletExpansion, resolution: int | None = None,
               cap: int = DEFAULT_CELL_CAP) -> LocallyConstantFn:
    """Sum coeff * wavelet over the expansion at a common resolution.

    On the ball |x| <= p^S, a label with m = mu p^(-k), k = depth(m), is
    constant on the p classes i = mu p^(S-n-k) + t p^(S-n) mod p^(S-n+1) of
    the cell indices i, where it takes v_0 zeta_p^(jt) with
    v_0 = p^(-n/2) chi(j mu/p^(k+1)) * coeff.  So the pass runs top down
    over the residue-class tree: a class mod p^L takes its parent's value
    plus the values of the labels at level L = S - n + 1, a class whose sum
    cancels is dropped, and the finest level is spread to the output cells.
    Exact values are those of the sum of the scaled wavelets; float values
    are sums in another order, equal to within rounding.  Cells come out in
    increasing order.  Every label is validated and its cap checks (those
    of `materialize` and then `refine_to`) made, in sorted label order,
    before any cell is built.
    """
    p = expansion.prime
    finest = 1 - expansion.window.n_min
    if resolution is None:
        resolution = finest
    if resolution < finest:
        raise InvalidInputError(
            f"resolution {resolution} is coarser than the window's finest {finest}"
        )
    labels = sorted_labels(expansion.coefficients)
    support = max([-resolution] + ([natural_support_exponent(idx) for idx, _ in labels] or [0]))
    # level L -> the (class mod p^L, value) pairs its labels add
    adds = {}
    half_powers = {}
    for idx, coeff in labels:
        validate_index(p, idx)
        _check_cap(p, idx.m_depth + 1, cap)
        extra = resolution - natural_resolution(idx)
        if extra:
            _check_cap(p, extra, cap, p)
        n, k, j = idx.n, idx.m_depth, idx.j
        mu = digits_to_int(idx.m_digits[::-1], p)
        half = half_powers.get(n)
        if half is None:
            half = half_powers[n] = Cyc.half_power(p, -n)
        den = p ** (k + 1)
        v = half * _char_root(p, j * mu % den, den) * coeff
        first, child = mu * p ** (support - n - k), p ** (support - n)
        adds.setdefault(support - n + 1, []).extend(
            (first + t * child, _twiddle(p, v, j * t)) for t in range(p))
    nodes, level = {}, 0
    for below in sorted(adds):
        nodes = _spread(p, nodes, level, below)
        add_cells(nodes, adds[below])
        level = below
    nodes = _spread(p, nodes, level, support + resolution)
    return LocallyConstantFn(p, support, resolution, cell_table(p, support, nodes.items()))


def _spread(p: int, nodes: dict, level: int, below: int) -> dict:
    """Each class r mod p^level split into the classes r + s p^level mod
    p^below, which keep r's value; keys in increasing order."""
    if not nodes:
        return nodes
    order = sorted(nodes)
    return {r + s: nodes[r] for s in range(0, p**below, p**level) for r in order}


def expansion_to_json(e: WaveletExpansion) -> dict:
    """The JSON record of e: coefficients listed by label (n, m_digits, j)
    (`sorted_labels`), each with its value (`amp_to_json`)."""
    coeffs = [{"n": idx.n, "m_digits": list(idx.m_digits), "j": idx.j, **amp_to_json(c)}
              for idx, c in sorted_labels(e.coefficients)]
    w = e.window
    return {
        "prime": e.prime,
        "window": {"n_min": w.n_min, "n_max": w.n_max, "m_depth": w.m_depth},
        "coefficients": coeffs,
    }


def expansion_from_json(data: dict) -> WaveletExpansion:
    """Zero values are dropped; a label repeated after a zero copy is rejected."""
    try:
        p = check_prime(json_int(data, "prime"))
        w = data["window"]
        window = Window(json_int(w, "n_min"), json_int(w, "n_max"), json_int(w, "m_depth"))
        labels = {}
        for entry in data["coefficients"]:
            digits = entry["m_digits"]
            if not all(type(d) is int for d in digits):
                raise InvalidInputError(f"m_digits {digits} are not all integers")
            idx = KozyrevIndex(json_int(entry, "n"), tuple(digits), json_int(entry, "j"))
            validate_index(p, idx)
            if not window.contains(idx):
                raise InvalidInputError(f"label {idx} lies outside the window {window}")
            key = (idx.n, idx.m_digits, idx.j)
            if key in labels:
                raise InvalidInputError(f"label {idx} repeats an earlier label")
            labels[key] = idx, amp_from_json(p, entry)
    except (KeyError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"malformed expansion record: {exc}") from exc
    return WaveletExpansion(p, window, {idx: v for idx, v in labels.values() if v})
