"""Locally constant complex functions on Q_p as sparse coset-cell tables.

A function is stored on the ball |x|_p <= p^M at resolution K: it is constant
on each coset r + p^K Z_p and zero outside the ball.  Cells are keyed by the
canonical representative r (the rational whose base-p digits live strictly
below exponent K), so tables with different declared supports compare
directly.  Missing keys mean exact zero.

Cell values are exact `Cyc` amplitudes or floating complex; sums are taken in
deterministic sorted-cell order so results do not depend on table layout.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isfinite, lcm
from operator import add, itemgetter, or_

from .errors import EnumerationCapError, InvalidInputError, PrimeMismatchError
from .exact import (
    Cyc,
    added_terms,
    amp_equal,
    amp_sum,
    conj,
    cyc_from_coefficients,
    cyc_galois,
    lift,
    moved_terms,
)
from .padic import (
    RationalPhase,
    check_prime,
    frac_valp,
    int_to_digits,
    digits_to_int,
    rational_character_phase,
    valp,
)

DEFAULT_CELL_CAP = 10**6


@lru_cache(maxsize=1 << 18)
def reduce_rep(q: Fraction, p: int, resolution: int) -> Fraction:
    """Canonical representative of q + p^K Z_p: digits below exponent K."""
    s = valp(q.denominator, p)
    if q.denominator != p**s:
        raise InvalidInputError("cell representatives need p-power denominators")
    span = resolution + s
    if span <= 0:
        return Fraction(0)
    return Fraction(q.numerator % p**span, p**s)


def _check_cap(p: int, exponent: int, cap: int, cells: int = 1) -> None:
    """Raise `EnumerationCapError` when cells * p^exponent exceeds the cap.

    As p >= 2, an exponent >= cap.bit_length() exceeds it; such a count is
    computed only if it is below 2^64, and otherwise named as a power.
    """
    if exponent >= cap.bit_length() and exponent * p.bit_length() > 64:
        power = f"{p}^{exponent}"
        raise EnumerationCapError(f"{cells}*{power}" if cells > 1 else power, cap)
    if cells * p**exponent > cap:
        raise EnumerationCapError(cells * p**exponent, cap)


def ball_size(p: int, support_exponent: int, resolution: int,
              cap: int = DEFAULT_CELL_CAP) -> int:
    """The number p^(M+K) of cells covering |x| <= p^M, checked against the cap."""
    count_exp = support_exponent + resolution
    if count_exp < 0:
        raise InvalidInputError("support_exponent + resolution must be >= 0")
    _check_cap(p, count_exp, cap)
    return p**count_exp


@dataclass
class LocallyConstantFn:
    """Table function: support ball exponent M, resolution exponent K.

    Treat instances as immutable; operations always build new tables.
    """

    prime: int
    support_exponent: int
    resolution: int
    table: dict = field(default_factory=dict)

    def __post_init__(self):
        check_prime(self.prime)

    def value_at(self, q: Fraction):
        if q != 0 and frac_valp(q, self.prime) < -self.support_exponent:
            return Cyc.zero(self.prime)
        key = reduce_rep(q, self.prime, self.resolution)
        return self.table.get(key, Cyc.zero(self.prime))

    def is_exact(self) -> bool:
        return all(isinstance(v, Cyc) for v in self.table.values())

    def refine_to(self, resolution: int, cap: int = DEFAULT_CELL_CAP) -> "LocallyConstantFn":
        """Split every cell to the finer resolution; values are unchanged."""
        if resolution < self.resolution:
            raise InvalidInputError("refinement cannot lower the resolution")
        if resolution == self.resolution:
            return self
        p = self.prime
        if not self.table:
            return LocallyConstantFn(p, self.support_exponent, resolution, {})
        _check_cap(p, resolution - self.resolution, cap, len(self.table))
        splits = p ** (resolution - self.resolution)
        step = Fraction(p) ** self.resolution
        out = {}
        for rep, v in self.table.items():
            for j in range(splits):
                out[rep + j * step] = v
        return LocallyConstantFn(p, self.support_exponent, resolution, out)

    def with_support(self, support_exponent: int) -> "LocallyConstantFn":
        if support_exponent < self.support_exponent:
            raise InvalidInputError("cannot shrink the declared support ball")
        return LocallyConstantFn(self.prime, support_exponent, self.resolution, dict(self.table))


def add_cells(table: dict, cells) -> None:
    """Add the (cell, value) pairs `cells` into `table` in place, in their
    order; a cell whose sum is zero is deleted."""
    for r, v in cells:
        if r in table:
            v = table[r] + v
            if not v:
                del table[r]
                continue
        table[r] = v


def integrate(f: LocallyConstantFn):
    """Haar integral: the cell values summed in index order, times p^(-K)."""
    p, m = f.prime, f.support_exponent
    cells = sorted(((cell_index(r, p, m), v) for r, v in f.table.items()), key=itemgetter(0))
    return amp_sum(p, [v for _, v in cells]) * (Fraction(p) ** (-f.resolution))


def inner_product(f: LocallyConstantFn, g: LocallyConstantFn):
    """Hermitian pairing <f, g> = integral of conj(f) * g.

    The first slot is conjugated; with complex cell values this is what makes
    the wavelet family orthonormal rather than merely bilinear-orthogonal.
    """
    if f.prime != g.prime:
        raise PrimeMismatchError("functions over different primes")
    p = f.prime
    if f.resolution >= g.resolution:
        fine, coarse, conj_fine = f, g, True
    else:
        fine, coarse, conj_fine = g, f, False
    coarse_res = coarse.resolution
    lookup = coarse.table.get
    products = []
    for rep in sorted(fine.table):
        v_coarse = lookup(reduce_rep(rep, p, coarse_res))
        if v_coarse is None:
            continue
        v_fine = fine.table[rep]
        if conj_fine:
            products.append(conj(v_fine) * v_coarse)
        else:
            products.append(conj(v_coarse) * v_fine)
    return amp_sum(p, products) * (Fraction(p) ** (-fine.resolution))


def cell_index(r: Fraction, p: int, support_exponent: int) -> int | None:
    """The index i of the cell r = i p^(-M) of the ball |x| <= p^M; None off it."""
    m = support_exponent
    i, rest = divmod(r.numerator * p ** max(m, 0), r.denominator * p ** max(-m, 0))
    return None if rest else i


def cell_table(p: int, support_exponent: int, cells) -> dict:
    """The table {i p^(-M): v} of the (index i, value v) pairs `cells`, in
    their order; each key is built once, as Fraction(i, p^M), or as the
    integer i p^|M| when M < 0."""
    m = support_exponent
    den, factor = (p**m, 1) if m >= 0 else (1, p**-m)
    return {Fraction(i * factor, den): v for i, v in cells}


def cell_digits(f: LocallyConstantFn) -> list:
    """(i, digits, value) for the cells r = i p^(-M) of f by increasing i,
    the order of the keys; r has the base-p digits of i, least significant
    first, at exponents -M .. K-1.  A key off the ball is rejected."""
    p, depth = f.prime, f.support_exponent + f.resolution
    count = p**depth if depth >= 0 else 0
    cells = [(cell_index(r, p, f.support_exponent), v) for r, v in f.table.items()]
    if any(i is None or not 0 <= i < count for i, _ in cells):
        raise InvalidInputError("representative does not fit the support ball")
    cells.sort(key=itemgetter(0))
    return [(i, list(int_to_digits(i, p, depth)), v) for i, v in cells]


def class_sums(p: int, cells: dict, depth: int) -> list[dict]:
    """Entry t maps r to the sum, in index order, of `cells` (index in
    [0, p^depth) -> value) over i = r mod p^t; zeros are absent.  O(N) additions."""
    return _class_tree(p, {i: cells[i] for i in sorted(cells) if cells[i]}, depth, _amp_total)


def _amp_total(values):
    # left to right; a partial sum of zero is dropped, as an empty class is
    total = 0
    for v in values:
        total = total + v if total else v
    return total


def term_sums(p: int, cells: dict, depth: int):
    """`class_sums` of exact `cells` (index in [0, p^depth) -> `Cyc`) as
    integer terms: (level, den, sums), entry t of sums mapping r to the sum
    of the cells i = r mod p^t as {e: (a, b)}, meaning
    (a + b sqrt(p)) zeta^e / den with zeta = exp(2 pi i / p^level).  The
    cells are lifted once (`exact.lift`) to the highest of their levels,
    and at least 1 for p > 2 so that zeta_p is a power of zeta, and the
    classes add their children's terms (`exact.added_terms`).  Zero pairs
    and empty classes are absent, and a class with one child shares that
    child's dict."""
    cells = {i: v for i, v in cells.items() if v}
    level, den, parts = lift(p, [(v.level, v.terms, v.den) for v in cells.values()],
                             1 if p > 2 else 0)
    leaves = {i: added_terms([part]) for i, part in zip(cells, parts)}
    return level, den, _class_tree(p, leaves, depth,
                                   lambda group: added_terms((g.items(), 1, 1) for g in group))


def _class_tree(p: int, leaves: dict, depth: int, total) -> list[dict]:
    """The class sums over the nonzero `leaves` (index in [0, p^depth) ->
    value), entry t for the classes mod p^t: each class of two or more
    children is `total` of their values in index order, a class with one
    child shares its value, and a class whose total is zero is absent."""
    sums = [leaves]
    for t in range(depth - 1, -1, -1):
        size, kids, stage = p**t, {}, sums[-1]
        for i in sorted(stage):
            kids.setdefault(i % size, []).append(stage[i])
        coarse = {}
        for r, group in kids.items():
            value = group[0] if len(group) == 1 else total(group)
            if value:
                coarse[r] = value
        sums.append(coarse)
    return sums[::-1]


@lru_cache(maxsize=65536)
def _char_root(p: int, num: int, den: int) -> Cyc:
    return Cyc.root_of_unity(p, RationalPhase(num, den))


def character_amp(p: int, q: Fraction) -> Cyc:
    """chi(q) = exp(2 pi i {q}_p) as an exact amplitude."""
    ph = rational_character_phase(q, p)
    return _char_root(p, ph.numerator, ph.denominator)


def fourier(f: LocallyConstantFn, cap: int = DEFAULT_CELL_CAP) -> LocallyConstantFn:
    """Fourier transform; the output lives on |w| <= p^K at resolution M.

    On that ball the cellwise-constant integrand makes the finite sum exact;
    values outside it are not represented.
    """
    return _fourier_impl(f, -1, cap)


def inverse_fourier(f: LocallyConstantFn, cap: int = DEFAULT_CELL_CAP) -> LocallyConstantFn:
    return _fourier_impl(f, +1, cap)


def _fourier_impl(f: LocallyConstantFn, sign: int, cap: int) -> LocallyConstantFn:
    # for w = iw*p^(-K) and r = ir*p^(-M) the phase of chi(w*r) is
    # (iw*ir mod N) / N over the N = p^(M+K) cells, so this is a length-N
    # DFT.  A table with a float value is summed in floating point by
    # `class_tree_dft`.  An exact table takes one of three routes, each
    # chosen by one rule computed from the table, with the same output, the
    # same repr, on all.  Let L be the highest level of its values, raised to
    # 1 (3 for p = 2) when a value has a sqrt(p) part, so that every unit
    # u = 1 mod p^L gives an automorphism sigma_u: zeta -> zeta^u that
    # fixes the values and sqrt(p); then F f(u*iw) = sigma_u(F f(iw)).  The
    # output indices fall into B orbits under these units (`_orbit_count`).
    # When B times the T terms of the table is at most N^2, the orbit route
    # (`_orbit_cells`) takes one character sum per orbit and fills every
    # other cell by `exact.cyc_galois`, which needs no normalization (see
    # the `exact` module docstring).  Otherwise, mainly for values at level
    # M+K, where B = N, a table g may still be equivariant,
    # g(u*iw) = sigma_u(g(iw)) for the units u = 1 mod p^L at a lower L, as
    # the transform of a table at level L is.  Its transform then lies at
    # level L, each output a sum over the orbits of g's indices of traces
    # down to L (`exact` module docstring), and the trace route
    # (`_trace_cells`) builds each output from the terms those traces keep.
    # `_trace_levels` yields the levels L, ascending, at which its cost
    # rule expects it to beat the tree, and the first at which
    # `_equivariant` holds is taken.  That check compares sigma_u0 of every
    # cell, u0 = 1 + p^L, with the cell at u0*iw in level, den and terms,
    # not by value, so that the rational and sqrt(p) parts the route reads
    # on an orbit's first cell are those the tree reads on the others, and
    # the outputs keep the tree's repr; it moves and folds term dicts and
    # builds no `Cyc`.  Every other exact table takes the class tree.  Its
    # exact values are lifted once to a common denominator, as integer
    # coefficient lists by exponent at their own cyclotomic level,
    # rational and sqrt(p) parts apart.  A twiddle, a power of zeta_N,
    # rotates a list; a node entry takes the lowest level that holds its
    # children and twiddles.  Each output cell is reduced once, and a cell
    # that reduces to zero is left out.
    p = f.prime
    depth = f.support_exponent + f.resolution
    count = ball_size(p, f.resolution, f.support_exponent, cap)
    if not f.table:
        return _output(f, {})
    cells = {cell_index(r, p, f.support_exponent): v for r, v in f.table.items()}
    if f.is_exact():
        # the common den, whether a value has a sqrt(p) part, the top
        # level and the term count, in one pass over the cells
        den, with_b, top, terms = 1, False, 0, 0
        second = itemgetter(1)
        for v in cells.values():
            if den % v.den:
                den = lcm(den, v.den)
            if v.level > top:
                top = v.level
            if not with_b:
                with_b = any(map(second, v.terms.values()))
            terms += len(v.terms)
        scale = Fraction(p) ** (-f.resolution) / den
        num = scale.numerator
        fixed = max(top, 3 if p == 2 else 1) if with_b else top
        if _orbit_count(p, depth, fixed) * terms <= count * count:
            return _output(f, _orbit_cells(p, depth, sign, cells, fixed, with_b, den, scale))
        for trace in _trace_levels(p, depth, cells, with_b):
            if _equivariant(p, depth, cells, trace):
                return _output(f, _trace_cells(p, depth, sign, cells, trace, with_b, den, scale))
        # a value above level M+K splits, by linearity, into zeta^r times
        # values at level M+K, one class tree per residue r mod p^(level-M-K)
        level = max(depth, top)
        groups: dict = {}
        for ir, v in cells.items():
            up = den // v.den
            node_level = min(v.level, depth)
            size = p**node_level
            spread = p ** (v.level - node_level)
            parts = {0: v.terms}
            if spread > 1:
                parts = {}
                for e, c in v.terms.items():
                    parts.setdefault(e % spread, {})[e // spread] = c
            for r, terms in parts.items():
                a = [0] * size
                b = [0] * size if with_b else None
                for e, (x, y) in terms.items():
                    a[e] = x * up
                    if with_b:
                        b[e] = y * up
                groups.setdefault(r * p ** (level - v.level), {})[ir] = (node_level, a, b)
        # zeta_N^s lies at level depth - v_p(s)
        levels = {p**v: depth - v for v in range(depth + 1)}

        def mix(pairs):
            # entries are (level, a list, b list or None); a lone child
            # with twiddle 1 is passed on as it is
            if len(pairs) == 1 and not pairs[0][1]:
                return pairs[0][0]
            node_level = levels[gcd(count, *(j for _, j in pairs))]
            for entry, _ in pairs:
                if entry[0] > node_level:
                    node_level = entry[0]
            size = p**node_level
            drop = p ** (depth - node_level)
            acc_a = acc_b = None
            # each child is rotated by u slots, lifted to node_level into
            # every step-th slot from q, and added in
            for (_, a, b), shift in pairs:
                step = size // len(a)
                u, q = divmod(shift // drop, step)
                if u:
                    a = a[-u:] + a[:-u]
                if step > 1:
                    a, lifted = [0] * size, a
                    a[q::step] = lifted
                acc_a = a if acc_a is None else map(add, acc_a, a)
                if with_b:
                    if u:
                        b = b[-u:] + b[:-u]
                    if step > 1:
                        b, lifted = [0] * size, b
                        b[q::step] = lifted
                    acc_b = b if acc_b is None else map(add, acc_b, b)
            return node_level, list(acc_a), list(acc_b) if with_b else None

        residues = list(groups)
        trees = [groups[r] for r in residues]

        def finish(entries):
            if residues == [0]:
                return cyc_from_coefficients(p, *entries[0], num, scale.denominator)
            # one of several residues: the nonzero terms at the top level
            terms = {}
            for r, (node_level, a, b) in zip(residues, entries):
                lift = p ** (level - node_level)
                for e in compress(range(len(a)), a if b is None else map(or_, a, b)):
                    terms[r + e * lift] = (a[e] * num, b[e] * num if b is not None else 0)
            return Cyc(p, level, terms, scale.denominator) if terms else Cyc.zero(p)
    else:
        trees = [{ir: complex(v) for ir, v in cells.items()}]
        roots = [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]

        def mix(pairs):
            return sum(v if j == 0 else roots[j] * v for v, j in pairs)

        scale = float(p) ** (-f.resolution)

        def finish(entries):
            return entries[0] * scale
    values = {}
    outputs = [class_tree_dft(p, depth, sign, leaves, mix) for leaves in trees]
    for iw, entries in enumerate(zip(*outputs)):
        total = finish(entries)
        if total:
            values[iw] = total
    return _output(f, values)


def _output(f: LocallyConstantFn, values: dict) -> LocallyConstantFn:
    """The transform of `f` whose output index iw holds values[iw]: the
    cell iw * p^(-K), keyed in index order."""
    p, k = f.prime, f.resolution
    return LocallyConstantFn(p, k, f.support_exponent, cell_table(p, k, sorted(values.items())))


def _trace_levels(p: int, depth: int, cells: dict, with_b: bool):
    """The levels L, ascending, at which the trace route is expected to
    beat the class tree on the nonzero exact `cells`.

    L starts at the smallest level the values allow: at least 1, and for
    p = 2 at least 2 (so that 1 + p^L generates the units = 1 mod p^L), or
    3 with sqrt(2) parts; and at least the level of every value g(k) above
    n = M+K - v_p(k), since the units = 1 mod p^max(L, n) fix k and so
    must fix g(k).  By timings of both routes on dense, sparse and sqrt(p)
    tables (the shape table kept with the benchmark results), in steps of
    about 0.1 microsecond, the tree takes about 5 N p^l, l the highest
    level of the values up to M+K, and the route 4 per input term for the
    check, 1 per term an output reads, 5 per output that reads an orbit
    and 40 per output.  The route pays while its work is at most the
    tree's.  The work grows with L, so the levels stop at the first that
    does not pay, and below M+K, where every orbit has one cell.

    Measured in the tree's own steps on the 53 shapes of that table, the
    check, which builds no `Cyc`, takes 1.2 to 3.7 steps per input term
    on dense tables (1.6 to 5.8 when it built one per cell) and 4 to 9.5
    on tables constant on p cells, where each cell holds few terms; a
    table that fails the check stops within 0.3 ms.  At 3 per term the
    rule takes the same route on every shape, and only 2 would move one
    (p = 2, N = 512, values at level 6: 0.78 of the tree's time) while
    pricing the check below its measured cost, so the check stays at 4."""
    lowest = 3 if p == 2 and with_b else 2 if p == 2 else 1
    for k, c in cells.items():
        if c.level > lowest and c.level > depth - (valp(k, p) if k else depth):
            lowest = c.level
    count = p**depth
    tree = 5 * count * p ** min(depth, max(c.level for c in cells.values()))
    check = 4 * sum(len(c.terms) for c in cells.values())
    for level in range(lowest, depth):
        work = check + 40 * count
        for v, _, units in _orbit_reps(p, depth, level):
            n = depth - v
            for r in units:
                c = cells.get(p**v * r % count)
                if c is not None:
                    # the orbit is read by the outputs mod p^n, and its
                    # terms survive the trace for p^min(n, L) of them, or
                    # a share of those for values above level max(n, L)
                    work += 5 * p**n + (len(c.terms) * p ** (n + level)
                                        // p ** max(n, level, c.level))
        if work > tree:
            return
        yield level


def _orbit_count(p: int, depth: int, level: int) -> int:
    """B, the number of orbits of the indices [0, p^depth) under the units
    u = 1 mod p^level: the index 0, and phi(p^min(level, depth - v)) orbits
    of indices of valuation v < depth, with phi(1) = 1."""
    return 1 + sum(p ** t - p ** (t - 1) if t else 1
                   for t in (min(level, depth - v) for v in range(depth)))


def _orbit_reps(p: int, depth: int, level: int):
    """(v, step, units) for v = 0 .. depth: the orbits of the indices of
    valuation v (the index 0 for v = depth) under the units u = 1 mod
    p^level have the least indices p^v r, r in `units`, the units below
    step = p^min(level, depth - v), and p^(depth - v) / step cells each."""
    for v in range(depth + 1):
        step = p ** min(level, depth - v)
        yield v, step, [r for r in range(1, max(step, 2)) if r % p]


def _orbit_cells(p: int, depth: int, sign: int, cells: dict, level: int, with_b: bool,
                 den: int, scale: Fraction) -> dict:
    """{iw: F f(iw)} for the nonzero outputs of the exact `cells` (index ->
    `Cyc` over a common denominator `den`, values fixed by sigma_u for every
    unit u = 1 mod p^level), times `scale`, one orbit at a time.

    The orbit of iw = p^v r, r a unit, is p^v w for the units w = r mod
    p^min(level, n), n = depth - v, and its least index is the one whose r
    is below p^min(level, n).  That cell is one character sum at level
    max(level, n), zeta_N^iw being zeta_(p^n)^r, and p^v w is sigma_u of
    it for u = w / r mod p^n.  The sum goes into integer lists, reduced
    once by `cyc_from_coefficients`, when the T terms of the table times p
    fill the p^max(level, n) slots of a list; a sparser sum, which would
    spend its time on empty slots, goes into a term dict, normalized once
    as a `Cyc`."""
    count = p**depth
    num, out_den = scale.numerator, scale.denominator
    total = sum(len(c.terms) for c in cells.values())
    values = {}
    for v, step, units in _orbit_reps(p, depth, level):
        n = depth - v
        top = max(level, n)
        size, modulus = p**top, p**n
        stretch = size // modulus
        sparse = total * p < size
        # a term dict takes num here, lists take it in their reduction
        factor = num if sparse else 1
        lifted = []
        for ir, c in cells.items():
            lift, up = size // p**c.level, den // c.den * factor
            lifted.append((ir, [(e * lift, x * up, y * up) for e, (x, y) in c.terms.items()]))
        for r in units:
            if sparse:
                acc = {}
                get = acc.get
                for ir, items in lifted:
                    s = sign * r * ir % modulus * stretch
                    for e, x, y in items:
                        e = (e + s) % size
                        old = get(e)
                        acc[e] = (x, y) if old is None else (old[0] + x, old[1] + y)
                base = Cyc(p, top, acc, out_den)
            else:
                a = [0] * size
                b = [0] * size if with_b else None
                for ir, items in lifted:
                    s = sign * r * ir % modulus * stretch
                    for e, x, y in items:
                        e += s
                        if e >= size:
                            e -= size
                        a[e] += x
                        if with_b:
                            b[e] += y
                base = cyc_from_coefficients(p, top, a, b, num, out_den)
            if not base:
                continue
            if step == modulus:
                # a one-cell orbit: every orbit where level >= n, and iw = 0
                values[p**v * r % count] = base
                continue
            inverse = pow(r, -1, modulus)
            for w in range(r, modulus, step):
                if w % p:
                    values[p**v * w] = cyc_galois(base, w * inverse)
    return values


def _equivariant(p: int, depth: int, cells: dict, level: int) -> bool:
    """Whether g(u0*k) = sigma_u0(g(k)) for every nonzero cell k of the
    exact `cells`, u0 = 1 + p^level, with the same level, den and terms:
    as u0 generates the units = 1 mod p^level, the table is then
    equivariant under all of them.

    sigma_u0 keeps a value's level and den, and fixes a value at a level
    <= `level`, which is compared with its image as it is.  Any other
    value's terms are moved through one exponent table e -> u0*e per level
    t, built once per call with p^t entries (at most N on the trace route,
    where every level is at most M+K), folded into the canonical basis by
    `exact.moved_terms` and compared with the image's terms as dicts: no
    `Cyc` is built.  Reading u0*e from the table, rather than computing
    it per term as `exact.cyc_galois` does, saves 3 to 15 per cent of the
    check on dense round trips of 81 to 729 cells, the most at the most
    terms per cell."""
    count, u0 = p**depth, 1 + p**level
    tables: dict = {}
    for k, c in cells.items():
        image = cells.get(u0 * k % count)
        if image is None or image.level != c.level or image.den != c.den:
            return False
        if c.level <= level:
            if image.terms != c.terms:
                return False
            continue
        table = tables.get(c.level)
        if table is None:
            modulus = p**c.level
            table = tables[c.level] = [e * u0 % modulus for e in range(modulus)]
        terms = c.terms
        if image.terms != moved_terms(p, len(table), map(table.__getitem__, terms),
                                      terms.values()):
            return False
    return True


def _trace_cells(p: int, depth: int, sign: int, cells: dict, level: int, with_b: bool,
                 den: int, scale: Fraction) -> dict:
    """{iw: F g(iw)} for the nonzero outputs of the exact `cells` g (index
    -> `Cyc` over a common denominator `den`, equivariant under the units
    u = 1 mod p^level), times `scale`.

    The orbit of k0 adds to F g(iw) the sum of sigma_u(g(k0) zeta_N^(iw*k0))
    over its cells, which is |orbit| / p^(top - level) times the trace from
    level top down to `level`: a term zeta^e, e lifted to the level top of
    every value and of zeta_N, keeps p^(top - level) zeta^e when p^(top -
    level) divides e, and traces to 0 otherwise.  Each orbit's terms are
    bucketed by e mod p^(top - level), so that an output reads only the
    bucket that survives its shift, into integer lists of length p^level.
    An orbit of valuation v depends on iw mod p^(M+K-v) alone, so the
    orbits are added one valuation at a time, from the index 0 down to the
    units, into lists by iw mod p^(M+K-v) that start from those of v + 1;
    the lists of v = 0 are the outputs, each reduced once by
    `cyc_from_coefficients`."""
    count = p**depth
    top = max([depth, level] + [c.level for c in cells.values()])
    size, modulus = p**level, p**top
    block, stretch = modulus // size, modulus // count
    # slot q + j of a list of twice the length holds zeta^((q + j) mod
    # p^level), so that no shift wraps; the sqrt(p) part follows
    sums = [[0] * size * (4 if with_b else 2)]
    for v, step, units in reversed(list(_orbit_reps(p, depth, level))):
        orbit = p ** (depth - v) // step
        reps = []
        for r in units:
            c = cells.get(p**v * r % count)
            if c is None:
                continue
            lift, up = modulus // p**c.level, den // c.den * orbit
            buckets: dict = {}
            for e, (x, y) in c.terms.items():
                q, rest = divmod(e * lift, block)
                # keyed by the shift mod block that makes e a multiple of it
                items = buckets.setdefault(-rest % block, [])
                items.append((q, x * up))
                if y:
                    items.append((q + 2 * size, y * up))
            reps.append((sign * p**v * r * stretch, buckets))
        inner = len(sums)
        layer = []
        for y in range(p ** (depth - v)):
            acc = sums[y % inner]
            copied = False
            for shift, buckets in reps:
                s = y * shift % modulus
                items = buckets.get(s % block)
                if items is None:
                    continue
                if not copied:
                    acc, copied = acc[:], True
                # e + s = (q + j) * block for every e = q * block + rest
                j = (s + block - 1) // block
                for q, x in items:
                    acc[q + j] += x
            layer.append(acc)
        sums = layer
    # a list no valuation added to is shared, and reduced once
    num, out_den = scale.numerator, scale.denominator
    reduced: dict = {}
    values = {}
    for iw, acc in enumerate(sums):
        value = reduced.get(id(acc))
        if value is None:
            a = list(map(add, acc[:size], acc[size:2 * size]))
            b = list(map(add, acc[2 * size:3 * size], acc[3 * size:])) if with_b else None
            value = reduced[id(acc)] = cyc_from_coefficients(p, level, a, b, num, out_den)
        if value:
            values[iw] = value
    return values


def class_tree_dft(p: int, depth: int, sign: int, leaves: dict, mix) -> list:
    """The N = p^depth outputs sum over i of zeta_N^(sign*k*i) * leaves[i],
    for k in [0, N), by radix-p decimation in time up the residue-class tree.

    The node of class c mod p^t holds the length-N/p^t transform of the
    cells i = c mod p^t: entry k sums its p children c + p^t d, child entry
    k mod N/p^(t+1), each weighted by zeta_N^(sign*d*k*p^t).  `mix` takes
    [(value, j)] and returns the sum of zeta_N^j * value.  A class with no
    cell in `leaves` is never built; without leaves the list is empty.
    """
    n = p**depth
    stage = {i: [v] for i, v in leaves.items()}
    for t in range(depth - 1, -1, -1):
        size = p**t
        length = n // size
        child = length // p
        kids: dict = {}
        for c in sorted(stage):
            kids.setdefault(c % size, []).append((c // size, stage[c]))
        stage = {
            c: [mix([(values[k % child], sign * d * k * size % n) for d, values in group])
                for k in range(length)]
            for c, group in kids.items()
        }
        del kids
    return stage.get(0, [])


def fn_equal(f: LocallyConstantFn, g: LocallyConstantFn, tol: float = 0.0) -> bool:
    """Pointwise equality; exact when both tables are exact."""
    if f.prime != g.prime:
        return False
    res = max(f.resolution, g.resolution)
    a = f.refine_to(res)
    b = g.refine_to(res)
    zero = Cyc.zero(f.prime)
    for rep in set(a.table) | set(b.table):
        if not amp_equal(a.table.get(rep, zero), b.table.get(rep, zero), tol):
            return False
    return True


# -- JSON encoding of cell values and whole functions -----------------------


def amp_to_json(v) -> dict:
    if isinstance(v, Cyc):
        term = v.polar_exact()
        if term is not None and term[1] == 0:
            mag, _, phase = term
            return {
                "mag_num": mag.numerator,
                "mag_den": mag.denominator,
                "phase_num": phase.numerator,
                "phase_den": phase.denominator,
            }
    z = complex(v)
    return {"re": z.real, "im": z.imag}


def amp_from_json(p: int, obj: dict):
    """A cell or coefficient value: JSON integers mag_num/mag_den and
    phase_num/phase_den, or finite JSON numbers re and im."""
    if "mag_num" in obj:
        num, den = json_int(obj, "mag_num"), json_int(obj, "mag_den")
        if den == 0:
            raise InvalidInputError("magnitude denominator is zero")
        phase_num, phase_den = json_int(obj, "phase_num"), json_int(obj, "phase_den")
        # one root per phase, from the bounded cache of `character_amp`
        return _char_root(p, phase_num, phase_den) * Fraction(num, den)
    return complex(json_float(obj, "re"), json_float(obj, "im"))


def json_int(record: dict, key: str) -> int:
    """record[key], which must be a JSON integer; a bool is not one."""
    value = record[key]
    if type(value) is not int:
        raise InvalidInputError(f"{key} must be an integer, got {value!r}")
    return value


def json_float(record: dict, key: str):
    """record[key], which must be a finite JSON number; a bool is not one."""
    value = record[key]
    if type(value) not in (int, float) or not isfinite(value):
        raise InvalidInputError(f"{key} must be a finite number, got {value!r}")
    return value


def fn_to_json(f: LocallyConstantFn) -> dict:
    """The JSON record of f: cells listed by increasing index i, the cell
    r = i p^(-M), each with the digits of i, least significant first
    (`cell_digits`), and its value (`amp_to_json`)."""
    cells = [{"digits": digits, **amp_to_json(v)} for _, digits, v in cell_digits(f)]
    return {
        "prime": f.prime,
        "support_exponent": f.support_exponent,
        "resolution_exponent": f.resolution,
        "cells": cells,
    }


def fn_from_json(data: dict) -> LocallyConstantFn:
    """Zero values are dropped; a cell repeated after a zero copy is rejected."""
    try:
        p = check_prime(json_int(data, "prime"))
        m = json_int(data, "support_exponent")
        k = json_int(data, "resolution_exponent")
        cells = list(data["cells"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed function record: missing {exc}") from exc
    indexed = {}
    for n, entry in enumerate(cells):
        try:
            digits = entry["digits"]
            if type(digits) is not list:
                raise InvalidInputError(f"digits {digits!r} are not a list")
            if not all(type(d) is int and 0 <= d < p for d in digits):
                raise InvalidInputError(f"digits {digits} are not all in [0, {p})")
            if any(digits[max(m + k, 0):]):
                raise InvalidInputError(f"digits {digits} lie outside the ball")
            i = digits_to_int(digits, p)
            if i in indexed:
                raise InvalidInputError(f"digits {digits} repeat an earlier cell")
            indexed[i] = amp_from_json(p, entry)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed cell record at index {n}: {exc}") from exc
    return LocallyConstantFn(p, m, k, cell_table(p, m, ((i, v) for i, v in indexed.items() if v)))
