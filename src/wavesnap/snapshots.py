"""Recovering waves from snapshots at integer, rational, and generic times.

A wave with Cauchy data (u0, g) evolves as u_t = S'_t u0 + S_t g.  On a
band-limited field every statement below is a finite set of scalar equations,
one per mode, so solvers work mode by mode and report exactly which modes
are free (kernel of the sine propagator), which determine the solution, and
which make the data inconsistent.

Statuses: "Unique" (all modes determined), "NonUniqueKernel" (free kernel
modes, minimal-norm representative returned), "Obstructed" (no wave fits).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .fields import (
    Field,
    MultiplierSymbol,
    _with_amps,
    check_finite,
    symbol_values,
    union_columns,
)
from .propagators import (
    InvalidTime,
    as_radians,
    cos_column,
    psi_column,
    psi_grid,
    sine_at_column,
    sine_over_column,
    sine_over_grid,
    symbol_Psi,
    symbol_S,
    symbol_Sprime,
)

STATUS_UNIQUE = "Unique"
STATUS_NONUNIQUE = "NonUniqueKernel"
STATUS_OBSTRUCTED = "Obstructed"

OBSTRUCTION_AMP_TOL = 1e-12  # kernel-mode data above this has no preimage
CONSISTENCY_TOL = 1e-9  # scaled by (1 + conditioning)
RATIONAL_GATE_TOL = 1e-9


@dataclass(frozen=True)
class CauchyData:
    """Position and velocity over one basis: flat plane waves or sphere harmonics."""

    position: Field
    velocity: Field

    def __post_init__(self) -> None:
        self.position.check_same_basis(self.velocity)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of `diagonal_solve`.  `kernel_modes` lists the free keys:
    frequencies for flat fields, (l, m) pairs on the sphere."""

    status: str
    solution: Field | None
    residual: float
    conditioning: float
    kernel_modes: tuple
    note: str = ""

    @property
    def kernel_coeffs(self) -> tuple:
        return self.kernel_modes  # the sphere's name for the kernel keys, kept for the benchmark


# A grid: (keys, freqs, re, im).  Its columns are the keys of one or more
# data, datum after datum: `keys` and `freqs` hold each datum's own key and
# frequency columns, and re and im, the real and imaginary parts of a series
# of amplitude rows over all of those columns, are two float64 arrays.
#
# One time or one index at a time, `evolve` and `general_integer_snapshot`
# apply the column symbol rules in plain floats, so a process that never asks
# for a series never loads numpy.  The grids apply the array forms of the
# same rules, part by part in the order complex arithmetic takes them, so
# each grid value is the scalar operator's up to the sign of a zero.
Grid = tuple[tuple[tuple, ...], tuple[tuple[float, ...], ...], Any, Any]


def evolve(data: CauchyData, t: float | Fraction) -> Field:
    """u_t = S'_t u0 + S_t g: `evolve_column` over the union of the data's
    keys.  A non-finite float t raises InvalidTime."""
    _check_finite(t)
    keys, freqs, (x, y) = union_columns((data.position, data.velocity))
    return _with_amps(data.position, keys, freqs, evolve_column(t, freqs, x, y))


def evolve_column(t: float | Fraction, freqs: Sequence[float], x: Sequence[complex], y: Sequence[complex]) -> list:
    """cos(t lam) x + sin(t lam)/lam y over the columns of frequencies lam,
    positions x and velocities y; a Fraction t means t pi.  A failing or
    non-finite amplitude names S'_t or S_t where a symbol value is bad, else
    raises ValueError 'non-finite amplitude'."""
    r = as_radians(t)
    try:
        cos, sine = cos_column(r, freqs), sine_over_column(r, freqs)
        amps = list(map(operator.add, map(operator.mul, cos, x), map(operator.mul, sine, y)))
        check_finite(amps)
    except (ArithmeticError, ValueError):
        _name_bad_symbol((symbol_Sprime(t), symbol_S(t)), freqs)
        raise
    return amps


def _residual(t: float | Fraction, freqs: Sequence[float], x: Sequence, y: Sequence, target: Sequence) -> float:
    """max |target - u_t| over one column, u_t from position x and velocity y
    by `evolve_column`, not by the solver's symbols: the solvers' post-check."""
    diffs = list(map(operator.sub, target, evolve_column(t, freqs, x, y)))
    check_finite(diffs)
    return max(map(abs, diffs), default=0.0)


def evolve_grid(data: Sequence[CauchyData], times: Sequence[Sequence[float | Fraction]]) -> Grid:
    """`evolve` of each datum at each time of its own row in `times` (rows
    of one length), as one grid through `sine_over_grid`: row i holds each
    datum's u at its i-th time over the union of its keys.  A non-finite
    float time raises InvalidTime before any amplitude is formed; else the
    first datum with an amplitude that is not finite raises what `evolve`
    raises at its first such time.  An empty batch raises ValueError."""
    import numpy as np

    if not data:
        raise ValueError("need at least one datum")
    radians = np.array([[as_radians(t) for t in row] for row in times], dtype=float)
    if not np.isfinite(radians).all():
        for row in times:
            for t in row:
                _check_finite(t)  # a Fraction far enough out reaches the symbols at an infinite time
    unions = [union_columns((d.position, d.velocity)) for d in data]
    keys, freqs = tuple(u[0] for u in unions), tuple(u[1] for u in unions)
    lam = np.fromiter(itertools.chain.from_iterable(freqs), float)
    (xr, xi), (yr, yi) = (_parts([amp for u in unions for amp in u[2][j]]) for j in (0, 1))
    t = np.repeat(radians.T, list(map(len, keys)), axis=1)  # each element its column's time
    with np.errstate(all="ignore"):
        cos_t = t * lam
        np.cos(cos_t, out=cos_t)
        sin_t = sine_over_grid(t, lam)
        del t
        re = cos_t * xr
        re += sin_t * yr
        im = cos_t * xi
        im += sin_t * yi
    del cos_t, sin_t
    _check_rows(re, im, lambda: zip(times, freqs), lambda row, i: (symbol_Sprime(row[i]), symbol_S(row[i])))
    return keys, freqs, re, im


def general_integer_snapshot(ua: Field, ub: Field, a: float, b: float, m: int) -> Field:
    """u at time a + m (b - a), from the snapshots at a < b.  Each amplitude
    is Psi_{m,s} ub - Psi_{m-1,s} ua at its key, s = b - a, over the union of
    the snapshots' keys; failures are named as in `evolve`."""
    s = _step(ua, ub, a, b)
    m = int(m)  # as symbol_Psi reads its index
    keys, freqs, (y, x) = union_columns((ub, ua))
    try:
        us, sins = _angles(s, freqs)
        psi, psi1 = psi_column(m, us, sins), psi_column(m - 1, us, sins)
        amps = list(map(operator.sub, map(operator.mul, psi, y), map(operator.mul, psi1, x)))
        check_finite(amps)
    except (ArithmeticError, ValueError):
        _name_bad_symbol((symbol_Psi(m, s), symbol_Psi(m - 1, s)), freqs)
        raise
    return _with_amps(ub, keys, freqs, amps)


def snapshot_grid_columns(s, freqs: Sequence[float], x, y, ms: Iterable[int]):
    """`general_integer_snapshot` at each m in `ms` as the parts (re, im) of
    one grid over `freqs`, from the parts x = (re, im) of u_a and y of u_b as
    float64 arrays.  The step s is a float, or a float64 column of one step
    per key.  Every Psi column is a row of one `psi_grid` call, so u = s lam
    and sin(u) are computed once per key.  The first row that is not finite
    raises what `general_integer_snapshot` raises at its index; at a column
    s, the first key holding such an amplitude raises what it raises for
    that key alone, at the key's step and its first such index."""
    import numpy as np

    ms = list(map(int, ms))

    def symbols(step: float, i: int) -> tuple[MultiplierSymbol, MultiplierSymbol]:
        return symbol_Psi(ms[i], step), symbol_Psi(ms[i] - 1, step)

    (xr, xi), (yr, yi) = x, y
    index = sorted({k for m in ms for k in (m, m - 1)})
    with np.errstate(all="ignore"):
        us = s * np.asarray(freqs, dtype=float)  # an infinite u marks its keys' Psi values bad
    try:
        psi = psi_grid(index, us)
    except (ArithmeticError, ValueError):
        for step, column in _spans(s, freqs):
            for i in range(len(ms)):
                _name_bad_symbol(symbols(step, i), column)
        raise
    row = {k: i for i, k in enumerate(index)}
    p = psi[np.array([row[m] for m in ms], dtype=np.intp)]
    q = psi[np.array([row[m - 1] for m in ms], dtype=np.intp)]
    del psi
    with np.errstate(all="ignore"):
        re = p * yr
        re -= q * xr
        im = p * yi
        im -= q * xi
    _check_rows(re, im, lambda: _spans(s, freqs), symbols)
    return re, im


def _spans(s, freqs: Sequence[float]) -> list[tuple[float, list[float]]]:
    """(step, frequencies as floats): the float step s over all of `freqs`,
    or each key alone at its own step of a column s."""
    import numpy as np

    if np.ndim(s) == 0:
        return [(float(s), list(map(float, freqs)))]
    return [(step, [float(lam)]) for step, lam in zip(s.tolist(), freqs)]


def _step(ua: Field, ub: Field, a: float, b: float) -> float:
    """The step s = b - a between two snapshots at finite times a < b over one basis."""
    _check_finite(a)
    _check_finite(b)
    if not b > a:
        raise InvalidTime(f"need a < b, got a={a}, b={b}")
    ub.check_same_basis(ua)
    return b - a


def _angles(s: float, freqs: Sequence[float]) -> tuple[list[float], list[float]]:
    """The columns u = s lam and sin(u) over the frequencies."""
    us = [s * lam for lam in freqs]
    return us, list(map(math.sin, us))


def _parts(amps: Sequence[complex]):
    """The real and imaginary parts of a column of amplitudes, as float64 arrays."""
    import numpy as np

    z = np.array(amps, dtype=complex).reshape(-1)
    return z.real, z.imag


def _name_bad_symbol(symbols: Iterable[MultiplierSymbol], freqs: Sequence[float]) -> None:
    """SymbolUndefined from `symbol_values` at the first bad symbol value."""
    for symbol in symbols:
        symbol_values(symbol, freqs)


def _check_rows(re, im, spans: Callable[[], Iterable[tuple[Any, Sequence[float]]]], symbols: Callable) -> None:
    """Raise at the first amplitude of a grid that is not finite.  The grid's
    columns are the frequencies of `spans()`, (arg, freqs) pairs in order,
    asked for only then; the first span holding such an amplitude raises at
    its first such row i: SymbolUndefined where one of `symbols(arg, i)` is
    bad over its freqs, else ValueError 'non-finite amplitude'."""
    import numpy as np

    if np.isfinite(re).all() and np.isfinite(im).all():
        return
    bad = ~(np.isfinite(re) & np.isfinite(im))
    lo = 0
    for arg, freqs in spans():
        hi = lo + len(freqs)
        rows = bad[:, lo:hi].any(axis=1)
        if rows.any():
            i = int(rows.argmax())
            _name_bad_symbol(symbols(arg, i), freqs)
            check_finite(list(map(complex, re[i, lo:hi].tolist(), im[i, lo:hi].tolist())))
        lo = hi


# ---------------------------------------------------------------------------
# compatibility residuals


def compatibility_residual_general(
    fa: Field, fb: Field, fc: Field, a: float, b: float, c: float
) -> float:
    """max |S_{c-b} fa + S_{a-c} fb + S_{b-a} fc|, which vanishes on genuine
    snapshot triples at times (a, b, c); a non-finite time raises
    InvalidTime.  Each field's products are taken on its own keys, a failing
    or non-finite symbol value raising SymbolUndefined and a finite one whose
    product leaves the float range OverflowError, both naming the symbol;
    they are summed from 0j over the union of the keys, fields in order, and
    a non-finite sum raises ValueError."""
    for t in (a, b, c):
        _check_finite(t)
    fields, products = (fa, fb, fc), []
    for t, f in zip((c - b, a - c, b - a), fields):
        try:
            column = list(map(operator.mul, sine_over_column(as_radians(t), f.freqs), f.amps))
            check_finite(column)
        except (ArithmeticError, ValueError):
            symbol = symbol_S(t)
            _name_bad_symbol((symbol,), f.freqs)  # else each value is finite, and a product overflowed
            lam, amp = next((lam, amp) for lam, amp in zip(f.freqs, f.amps) if not cmath.isfinite(symbol(lam) * amp))
            msg = f"{symbol.label} times the amplitude {amp!r} at frequency {lam!r} leaves the float range"
            raise OverflowError(msg) from None
        products.append(column)
    keys, _, columns = union_columns(fields, products)
    sums = [0j] * len(keys)
    for column in columns:
        sums = list(map(operator.add, sums, column))
    check_finite(sums)
    return max(map(abs, sums), default=0.0)


def _validate_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise InvalidTime(f"need positive integer times, got p={p!r}, q={q!r}")
    if p == q:
        raise InvalidTime(f"need distinct times, got p = q = {p}")
    if math.gcd(p, q) != 1:
        raise InvalidTime(f"need coprime times, gcd({p}, {q}) = {math.gcd(p, q)}")


# ---------------------------------------------------------------------------
# solvers

# One scalar equation s g = r per key, as three columns over the solve's keys:
# the symbol s, whether it counts as zero, and the right side r.
Equation = tuple[Sequence[float], Sequence[bool], Sequence[complex]]


def diagonal_solve(
    like: Field,
    keys: tuple,
    freqs: tuple[float, ...],
    equations: Sequence[Equation],
    kernel_note: str,
    gains: Sequence[float] | None = None,
    verify: Callable[[list], tuple[float, str]] | None = None,
) -> SolveReport:
    """Solve for g, a field of like's basis, key by key over canonical `keys`
    and `freqs`, a column at a time over `equations`, taken in order.

    A key's conditioning is its gain (default 1.0) / |s| over its nonzero
    symbols.  Where every symbol is zero the key is in the kernel: g is free
    (0 is returned) and the data is Obstructed unless every right side is
    within OBSTRUCTION_AMP_TOL of 0.  Elsewhere g = r / s from the first
    nonzero equation, and the other equations must agree within
    CONSISTENCY_TOL (1 + the key's own conditioning).  `verify(gs)`, given
    g's amplitude column over `keys` (0j in the kernel), returns a post-check
    residual and a note, held to CONSISTENCY_TOL (1 + the worst
    conditioning); without it the residual is the worst inconsistency.
    """
    n, count = len(keys), len(equations)
    gains = itertools.repeat(1.0) if gains is None else gains
    gs, first = [0j] * n, [count] * n  # each key's g and the equation it comes from; 0j and count in the kernel
    for e in reversed(range(count)):
        s, zero, r = equations[e]
        gs = [g if z else ri / si for g, z, si, ri in zip(gs, zero, s, r)]
        first = [f if z else e for f, z in zip(first, zero)]
    cond, inc = [0.0] * n, [0.0] * n  # each a running max over the key's equations, as max(c, t) takes it
    for e, (s, zero, r) in enumerate(equations):
        terms = [0.0 if z else gain / abs(si) for z, gain, si in zip(zero, gains, s)]
        cond = [t if t > c else c for c, t in zip(cond, terms)]
        if count > 1:  # a lone equation is the first of every key it solves
            terms = map(abs, map(operator.sub, map(operator.mul, gs, s), r))
            inc = [t if t > i and f != e and f != count else i for i, f, t in zip(inc, first, terms)]
    in_kernel = [f == count for f in first]
    kernel = tuple(itertools.compress(keys, in_kernel))
    obstruction = max([abs(ri) for _, _, r in equations for ri in itertools.compress(r, in_kernel)], default=0.0)
    conditioning, inconsistency = max(cond, default=0.0), max(inc, default=0.0)
    failed = ""  # the note on the first key over its own bound; no bound is below CONSISTENCY_TOL
    if inconsistency > CONSISTENCY_TOL:
        for key, c, i in zip(keys, cond, inc):
            key_tol = CONSISTENCY_TOL * (1.0 + c)
            if i > key_tol:
                failed = f"cross-equation inconsistency {i:.3e} at key {key} exceeds {key_tol:.3e}"
                break
    if obstruction > OBSTRUCTION_AMP_TOL:
        return SolveReport(STATUS_OBSTRUCTED, None, obstruction, conditioning, kernel, kernel_note)
    if failed:
        return SolveReport(STATUS_OBSTRUCTED, None, inconsistency, conditioning, kernel, failed)
    tol = CONSISTENCY_TOL * (1.0 + conditioning)
    check_finite(gs)
    residual, note = verify(gs) if verify is not None else (inconsistency, "")
    if residual > tol:
        note = "post-verification failed" + (": " + note if note else "")
        return SolveReport(STATUS_OBSTRUCTED, None, residual, conditioning, kernel, note)
    g = _with_amps(like, keys, freqs, gs)  # drops the kernel keys' zeros
    return SolveReport(STATUS_NONUNIQUE if kernel else STATUS_UNIQUE, g, residual, conditioning, kernel, note)


def _snapshot_equation(
    t: float | Fraction, freqs: Sequence[float], f0: Sequence[complex], ft: Sequence[complex]
) -> Equation:
    """The equation that the snapshots at 0 and t give the velocity g at each
    frequency w: sin(w t)/w g = ft - cos(w t) f0, naming a failing symbol."""
    try:
        s, zero = sine_at_column(t, freqs)
        cos = cos_column(t, freqs)
    except (ArithmeticError, ValueError):
        _name_bad_symbol((symbol_S(t), symbol_Sprime(t)), freqs)
        raise
    return s, zero, list(map(operator.sub, ft, map(operator.mul, cos, f0)))


def two_snapshot_solve(f0: Field, ft: Field, t: float | Fraction = 1.0) -> SolveReport:
    """Velocity g from snapshots at times 0 and t, on either field kind.

    Keys where sin(w t) vanishes (w > 0) lie in the kernel of S_t: data there
    either obstructs (nonzero right side) or is free (minimal-norm g = 0
    returned, key listed).  A Fraction t means t pi and finds its zeros
    exactly; see `sine_at`.  A non-finite float t raises InvalidTime."""
    return _two_snapshot_solve(f0, ft, t, f"data at kernel frequencies of S_{as_radians(t):g} has no preimage")


def _check_finite(t: float | Fraction, name: str = "time") -> None:
    """Raise InvalidTime at a non-finite float time.  A Fraction is always
    finite, and math.isfinite on a huge one overflows, so it is not tested."""
    if not isinstance(t, Fraction) and not math.isfinite(t):
        raise InvalidTime(f"{name} must be finite, got {t}")


def _two_snapshot_solve(f0: Field, ft: Field, t: float | Fraction, kernel_note: str) -> SolveReport:
    _check_finite(t)
    keys, freqs, (a, b) = union_columns((f0, ft))
    eq = _snapshot_equation(t, freqs, a, b)
    return diagonal_solve(f0, keys, freqs, [eq], kernel_note, verify=lambda gs: (_residual(t, freqs, a, gs, b), ""))


def three_snapshot_solve(f0: Field, f1: Field, falpha: Field, alpha: float | Fraction) -> SolveReport:
    """Velocity g from snapshots at times 0, 1, alpha.

    Exact rational alpha = p/q routes through the Bezout reconstruction on
    the rescaled integer times (0, p, q) with step 1/q, which handles the
    shared kernel exactly; its compatibility gate failing comes back as an
    Obstructed report.  Here, unlike elsewhere, a Fraction is the time p/q
    itself, not p/q of pi, so it never reaches `sine_at`.  Generic float
    alpha is solved mode by mode: the time-1 equation where sin(lam) is
    usable, the time-alpha equation otherwise, the unused equation
    cross-checked at 1e-9 (1 + conditioning).
    """
    if isinstance(alpha, Fraction):
        if alpha <= 0 or alpha == 1:
            raise InvalidTime(f"rational alpha must be positive and != 1, got {alpha}")
        return _bezout_solve(f0, falpha, f1, alpha.numerator, alpha.denominator, 1.0 / alpha.denominator)
    alpha = float(alpha)
    _check_finite(alpha, "alpha")
    if alpha in (0.0, 1.0):
        raise InvalidTime(f"alpha must differ from both snapshot times, got {alpha}")
    keys, freqs, (a, b, c) = union_columns((f0, f1, falpha))
    equations = [_snapshot_equation(1.0, freqs, a, b), _snapshot_equation(alpha, freqs, a, c)]
    return diagonal_solve(f0, keys, freqs, equations, "data at shared kernel frequencies has no preimage")


def rational_reconstruct(f0: Field, fp: Field, fq: Field, p: int, q: int) -> SolveReport:
    """Velocity from integer-time snapshots 0, p, q with gcd(p, q) = 1.

    Gates on the Psi compatibility identity (Obstructed beyond 1e-9),
    then combines the two windows through a Bezout pair k p + l q = 1 and
    divides once by the symbol of S_1.  The report's residual is the
    post-check of re-evolving the solution to times p and q.
    """
    _validate_pq(p, q)
    return _bezout_solve(f0, fp, fq, p, q, 1.0)


def bezout(p: int, q: int) -> tuple[int, int]:
    """The pair (k, l) with k p + l q = 1 and minimal |k| <= q, |l| <= p;
    on a tie the positive k wins."""
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise ValueError(f"need positive integers, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise InvalidTime(f"gcd({p}, {q}) != 1")
    if q == 1:
        return 0, 1
    k0 = pow(p, -1, q)
    k = k0 if abs(k0) <= abs(k0 - q) else k0 - q
    if abs(k0) == abs(k0 - q):
        k = max(k0, k0 - q)
    l = (1 - k * p) // q
    return k, l


def _bezout_solve(f0: Field, fa: Field, fb: Field, p: int, q: int, unit: float) -> SolveReport:
    """Solve for g from snapshots at times (0, p*unit, q*unit), gcd(p, q) = 1.

    With k p + l q = 1, the combination
        Psi_{k, p u} S'_{l q u} (fa - S'_{p u} f0) + Psi_{l, q u} S'_{k p u} (fb - S'_{q u} f0)
    equals S_u g identically, because sin(k p x) cos(l q x) + sin(l q x) cos(k p x)
    = sin(x) for x = u lam.  One division by the symbol of S_u finishes; its
    kernel (lam in pi Z / u) is the only non-uniqueness.  The windows, the Psi
    gate and both product symbols are columns over the keys, built in one pass,
    and the post-check re-evolves over the same columns.  Data failing the
    gate has no wave: an Obstructed report with the gate residual, no
    conditioning and no kernel modes.
    """
    pu, qu = p * unit, q * unit
    for f in (fa, fb):
        f.check_same_basis(f0)
    keys, freqs, (x, y, z) = union_columns((f0, fa, fb))
    k, l = bezout(p, q)
    try:
        (us, sin_u), (uas, sin_ua), (ubs, sin_ub) = (_angles(c, freqs) for c in (unit, pu, qu))
        a = list(map(operator.sub, y, map(operator.mul, map(math.cos, uas), x)))  # the window fa - S'_{pu} f0
        b = list(map(operator.sub, z, map(operator.mul, map(math.cos, ubs), x)))  # and fb - S'_{qu} f0
        psi_a = list(map(operator.mul, psi_column(q, us, sin_u), a))
        psi_b = list(map(operator.mul, psi_column(p, us, sin_u), b))
        sym_a = list(map(operator.mul, psi_column(k, uas, sin_ua), cos_column(l * q * unit, freqs)))
        sym_b = list(map(operator.mul, psi_column(l, ubs, sin_ub), cos_column(k * p * unit, freqs)))
    except (ArithmeticError, ValueError):
        symbols = (symbol_Sprime(pu), symbol_Sprime(qu), symbol_Psi(q, unit), symbol_Psi(p, unit), symbol_Psi(k, pu))
        _name_bad_symbol(symbols + (symbol_Sprime(l * q * unit), symbol_Psi(l, qu), symbol_Sprime(k * p * unit)), freqs)
        raise
    check_finite(a + b + psi_a + psi_b)
    diffs = list(map(operator.sub, psi_a, psi_b))  # Psi_{q,u} va - Psi_{p,u} vb, zero on genuine snapshots
    check_finite(diffs)
    gate = max(map(abs, diffs), default=0.0)
    if gate > RATIONAL_GATE_TOL:
        note = f"snapshot compatibility residual {gate:.3e} exceeds {RATIONAL_GATE_TOL:.1e}"
        return SolveReport(STATUS_OBSTRUCTED, None, gate, 0.0, (), note)
    num = list(map(operator.add, map(operator.mul, sym_a, a), map(operator.mul, sym_b, b)))
    check_finite(num)
    su, zero = sine_at_column(unit, freqs, sin_u)  # sin(unit lam) once: u is unit lam in both
    # S_{pu} and S_{qu} vanish with S_u, so at a kernel key neither window sees
    # g and both must vanish: the larger one is the right side
    rhs = [max(va, vb, key=abs) if zr else n for zr, n, va, vb in zip(zero, num, a, b)]
    gains = list(map(operator.add, map(abs, sym_a), map(abs, sym_b)))

    def verify(gs: list) -> tuple[float, str]:
        ra, rb = _residual(pu, freqs, x, gs, y), _residual(qu, freqs, x, gs, z)
        return max(ra, rb), f"bezout k={k}, l={l}; residual at t={pu:g}: {ra:.3e}, t={qu:g}: {rb:.3e}"

    note = "kernel-mode data admits no wave through all three snapshots"
    return diagonal_solve(f0, keys, freqs, [(su, zero, rhs)], note, gains, verify)


# ---------------------------------------------------------------------------
# the small-denominator obstruction, exhibited


@dataclass(frozen=True)
class LiouvilleRow:
    k: int
    q: int
    sin_abs: str  # |sin(pi delta_k)|, the small denominator
    amplitude: str  # pi / (sin * q^(k-1)), the velocity amplitude it forces
    amplitude_log10: float
    certified: bool  # exact arithmetic confirms amplitude > 1


def liouville_obstruction_demo(k_max: int) -> tuple[LiouvilleRow, ...]:
    """Velocity amplitudes forced by vanishing data along the convergents of
    the classical factorial series sum 10^(-j!).

    At frequency pi q_k the time-alpha equation divides by
    sin(pi q_k alpha) = +-sin(pi delta_k), and delta_k ~ q_k^(-k).  Even
    against data of sup norm q_k^(1-k) the recovered amplitude
    pi / (sin(pi delta_k) q_k^(k-1)) stays above 1, certified in exact
    arithmetic through sin x < x.  Display strings come from 30-digit
    arithmetic since the values leave double range around k = 5.  Rows are
    computed from k = k_max down one `convergent_chain`, so a k_max beyond
    the series' precision raises PrecisionExhausted before any exact sum is
    formed, and returned in ascending k.
    """
    import mpmath  # only this demo needs it

    from . import diophantine

    if not 1 <= k_max <= 25:
        raise ValueError(f"k_max must be in [1, 25], got {k_max}")
    depth = diophantine.FACTORIAL_DEPTH_CAP
    alpha = diophantine.liouville_truncation(10, None, depth)
    rows = []
    for k, (qk, _, lo, hi, den) in zip(range(k_max, 0, -1), diophantine.convergent_chain(alpha, k_max)):
        certified = hi * qk ** (k - 1) < den  # delta_hi q_k^(k-1) < 1
        shift = max(lo.bit_length() - 256, 0)  # mpf of a ~10^5-bit integer is slow; 256 bits are plenty
        with mpmath.workdps(30):
            delta = mpmath.mpf(lo >> shift) / mpmath.mpf(den >> shift)
            sin_val = mpmath.sin(mpmath.pi * delta)
            amp = mpmath.pi / (sin_val * mpmath.mpf(qk) ** (k - 1))
            rows.append(
                LiouvilleRow(
                    k=k,
                    q=qk,
                    sin_abs=mpmath.nstr(sin_val, 8),
                    amplitude=mpmath.nstr(amp, 8),
                    amplitude_log10=float(mpmath.log10(amp)),
                    certified=bool(certified),
                )
            )
    return tuple(reversed(rows))
