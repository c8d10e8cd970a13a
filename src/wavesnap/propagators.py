"""Symbols of the wave propagators and their snapshot combinations.

The half-wave sine propagator S_t has symbol sin(t lam)/lam, its derivative
S'_t has symbol cos(t lam), and the snapshot propagator Psi_{m,s} has symbol
sin(m s lam)/sin(s lam).  The latter equals the Chebyshev polynomial
U_{m-1}(cos(s lam)), which is what makes integer-time snapshots close under
a three-term recurrence.

Both ratio symbols have removable singularities.  Evaluation switches branch
near them:

  sin(t lam)/lam      -> Taylor series in (t lam) when |t lam| < 1e-6
  sin(m s lam)/sin(s lam) -> U_{m-1}(cos(s lam)) when |sin(s lam)| < 1e-6

The switch thresholds are part of the contract; tests pin agreement of the
two branches across the handover window.

A time is a float in radians or an exact Fraction beta meaning beta pi.
`sine_at` and `cos_at` evaluate the sine and cosine propagators at one
frequency for either kind of time, and `sine_at` also decides whether the
sine vanishes there, which is what every snapshot solver divides by.
`exact_residue` reduces an exact time to integers, for one frequency or a
numpy array of them; the small-denominator tables and the sphere margin
screen read their exact times through it too.

`sine_over_column`, `sine_at_column`, `cos_column` and `psi_column` are the
same rules over a column of frequencies in plain floats, and `sine_over_grid` and `psi_grid`
the ratio rules over a whole grid as float64 arrays (numpy's sin and cos
return math.sin and math.cos bit for bit).  Both run only the ratio branch
a column at a time; every element inside a switch window goes to the scalar
rule, so the scalar functions remain the only place each branch is written,
but for `sine_over_grid`, which writes `sine_over`'s three-term series once
more, in numpy and in the same operation order.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from .fields import MultiplierSymbol

SERIES_SWITCH = 1e-6  # |t lam| below this: series branch of sin(t lam)/lam
SIN_SWITCH = 1e-6  # |sin(s lam)| below this: Chebyshev branch of Psi
KERNEL_SIN_TOL = 1e-14  # |sin(t lam)| below this marks a kernel frequency,
KERNEL_ULPS = 4  # as does |sin(t lam)| below this many ulp(t lam)
PHASE_LIMIT = 2.0**50  # |t w| from which kernel_threshold reaches 1: a float time resolves no phase
RECHECK_WINDOW = 1e-9  # relative; screened rows this close to the best score get the exact recheck


class InvalidTime(ValueError):
    """Times at which the operation is undefined: alpha in {0, 1}, a
    non-finite float time, a float time too large for a kernel decision, an
    exact time at which a nonzero sine underflows to 0.0, a zero step s of
    Psi_{m,s}, equal snapshot times, or integer times that are not
    positive, distinct and coprime."""


class PrecisionExhausted(RuntimeError):
    """The certified error of a truncation cannot support the request."""


def chebyshev_U(m: int, x: float) -> float:
    """Chebyshev polynomial of the second kind, extended to all integer
    indices by U_{-1} = 0 and U_{-m-2} = -U_m.  In O(log m) steps: (T_n,
    U_{n-1}) for n = m + 1 by binary powering, through T_{a+b} = T_a T_b -
    (1 - x^2) U_{a-1} U_{b-1} and U_{a+b-1} = U_{a-1} T_b + T_a U_{b-1}, or at
    x = +-1 by the exact (+-1)^m (m + 1), which overflows past the float range."""
    if m == -1:
        return 0.0
    if m < -1:
        return -chebyshev_U(-m - 2, x)
    if x == 1.0 or x == -1.0:  # where the doubling would form 0 inf
        return x ** (m % 2) * float(m + 1)
    s2 = (1.0 - x) * (1.0 + x)  # 1 - x^2 without cancellation near x = +-1
    t, u = 1.0, 0.0  # (T_0, U_{-1})
    for bit in f"{m + 1:b}":
        t, u = t * t - s2 * u * u, 2.0 * t * u
        if bit == "1":
            t, u = t * x - s2 * u, u * x + t
    return u


def as_radians(time: float | Fraction) -> float:
    """A time as a float in radians: a Fraction beta is beta pi."""
    if type(time) is not float and isinstance(time, Fraction):  # a float skips the ABC check
        return math.pi * (time.numerator / time.denominator)
    return float(time)


def sine_over(t: float, lam: float) -> float:
    """sin(t lam)/lam, by its Taylor series where |t lam| < SERIES_SWITCH:
    the symbol of S_t at a time t in radians."""
    u = t * lam
    if abs(u) < SERIES_SWITCH:
        return t * (1.0 - u * u / 6.0 + u * u * u * u / 120.0)
    return math.sin(u) / lam


def kernel_threshold(u: float) -> float:
    """|sin(u)| below this counts as zero: the larger of KERNEL_SIN_TOL and
    KERNEL_ULPS ulp(u); the latter wins from |u| = 16 on.  A float u = t lam
    at k pi is off by up to ~2 ulp(u) from rounding lam and the product, and
    a radius from hypot adds another ulp or two."""
    return max(KERNEL_SIN_TOL, KERNEL_ULPS * math.ulp(u))


def check_phase(t: float, w: float) -> None:
    """Raise InvalidTime where |t w| >= PHASE_LIMIT: there the kernel threshold
    reaches 1, so every frequency would count as a zero of sin(w t)."""
    if abs(t * w) >= PHASE_LIMIT:
        raise InvalidTime(f"time {t!r} resolves no phase at frequency {w!r}: |t w| >= 2^50 counts every sine as zero")


def sine_floor(y):
    """A certified lower bound on |sin y| over the float64 array `y`: Jordan's
    |sin y| >= (2/pi) dist(y, pi Z) on d = |y - pi k|, k = rint(y / pi), less
    (|y| + 4) 2^-49, twice what d can overstate dist by: |pi - math.pi| |k|
    (4e-17 |y| + 1.3e-16), the roundings of math.pi k and the subtraction, and
    a k one off near a half-period (3e-16 |y|); clamped to [0, pi/2].  It is 0
    from |y| = 2^50 on, nan at a non-finite y (numpy warns unless silenced)."""
    import numpy as np

    d = np.abs(y - np.rint(y / math.pi) * math.pi)
    d -= (np.abs(y) + 4.0) * 2.0**-49
    return np.multiply(np.clip(d, 0.0, math.pi / 2, out=d), 2 / math.pi, out=d)


def exact_residue(beta: Fraction, w2):
    """(r, 2q) = (2w p mod 4q, 2q) for the exact time beta pi, beta = p/q, and
    the doubled frequency 2w: w beta = r / 2q modulo 2, the period of sin(pi x)
    and cos(pi x), so sin(w beta pi) = 0 iff 2q divides r.

    `w2` is an int or an integer numpy array.  An array stays int64 while
    every product is below 2^63 and every residue converts to float exactly;
    otherwise it holds Python ints."""
    p, q = beta.numerator, beta.denominator
    m = 4 * q
    if isinstance(w2, int):
        return w2 * p % m, 2 * q
    if not (m <= 2**53 and int(abs(w2).max(initial=0)) * m < 2**63):
        w2 = w2.astype(object)
    return w2 * (p % m) % m, 2 * q


def _underflow(beta: Fraction) -> InvalidTime:
    """The error of an exact time beta pi at which a nonzero sine, or the symbol sin(w t)/w, reads as 0.0."""
    return InvalidTime(f"time {beta} pi: a nonzero sine underflows to 0.0, which would read as an exact zero")


def residue_sines(beta: Fraction, r, q2):
    """(sin(pi r / q2), r = 0 mod q2) over the integer numpy array `r` of
    residues `exact_residue(beta, ...)` returned with q2: the sines as
    float64 and the exact zeros.  A nonzero residue whose sine underflows to
    0.0 raises InvalidTime naming beta."""
    import numpy as np

    sines, zeros = np.sin(np.pi * np.asarray(r / q2, dtype=float)), r % q2 == 0
    if ((sines == 0.0) & ~zeros).any():
        raise _underflow(beta)
    return sines, zeros


def _doubled(w: float | Fraction) -> int:
    """2w for a positive half-integer frequency w, the frequencies an exact time accepts."""
    w2 = 2 * w
    if not (w2 > 0 and w2 == int(w2)):
        raise ValueError(f"an exact time beta pi needs a positive half-integer frequency, got {w!r}")
    return int(w2)


def sine_at(time: float | Fraction, w: float | Fraction) -> tuple[float, bool]:
    """(sin(w t)/w, exactly_zero) at frequency w >= 0 and time t.

    For a Fraction t = beta pi the zero is decided in integers: sin(w beta pi)
    = 0 iff 2q divides 2w p (see `exact_residue`); a Fraction w keeps 2w
    exact where a float would round it (2w >= 2^53).  For a float t every w is
    a zero at t = 0, where S_t vanishes; elsewhere a zero is |w t| >= 1 with
    |sin(w t)| below `kernel_threshold(w t)`, so only a nonzero multiple of
    pi counts, never a small w t where sin(w t)/w is near t.  A float |w t|
    >= PHASE_LIMIT raises InvalidTime (`check_phase`), and so does a Fraction
    t whose nonzero sin(w t)/w underflows to 0.0."""
    if type(time) is not float and isinstance(time, Fraction):  # a float skips the ABC check
        r, q2 = exact_residue(time, _doubled(w))
        if r % q2 == 0:
            return 0.0, True
        v = math.sin(math.pi * (r / q2)) / w
        if v == 0.0:
            raise _underflow(time)
        return v, False
    t = float(time)
    check_phase(t, w)
    u = t * w
    if abs(u) < SERIES_SWITCH:
        return sine_over(t, w), t == 0.0
    s = math.sin(u)  # sine_over's ratio branch, with sin(u) kept for the kernel test
    return s / w, t == 0.0 or (abs(u) >= 1.0 and abs(s) < kernel_threshold(u))


def cos_at(time: float | Fraction, w: float) -> float:
    """cos(w t) at frequency w and time t, reduced exactly for a Fraction t."""
    if type(time) is not float and isinstance(time, Fraction):
        r, q2 = exact_residue(time, _doubled(w))
        return math.cos(math.pi * (r / q2))
    return math.cos(float(time) * w)


def symbol_S(t: float | Fraction) -> MultiplierSymbol:
    """Symbol of S_t: lam -> sin(t lam)/lam, with value t at lam = 0."""
    t = as_radians(t)
    return MultiplierSymbol(f"S[{t:g}]", functools.partial(sine_over, t))


def symbol_Sprime(t: float | Fraction) -> MultiplierSymbol:
    """Symbol of S'_t: lam -> cos(t lam).  Entire, no singular points."""
    t = as_radians(t)
    return MultiplierSymbol(f"S'[{t:g}]", functools.partial(cos_at, t))


def symbol_Psi(m: int, s: float) -> MultiplierSymbol:
    """Symbol of Psi_{m,s}: lam -> sin(m s lam)/sin(s lam) = U_{m-1}(cos(s lam)).

    Defined for every integer m (negative ones through the extended U) and
    every nonzero step s.  Values at sin(s lam) = 0 come from the Chebyshev
    branch: +-m at even/odd multiples of pi.
    """
    m = int(m)
    s = float(s)
    if s == 0.0:
        raise InvalidTime("Psi_{m,s} requires s != 0")

    def fn(lam: float) -> float:
        u = s * lam
        return psi_at(m, u, math.sin(u))

    return MultiplierSymbol(f"Psi[{m},{s:g}]", fn)


def psi_at(m: int, u: float, sin_u: float) -> float:
    """sin(m u)/sin(u) given sin_u = sin(u), by U_{m-1}(cos u) where
    |sin u| < SIN_SWITCH: the one branch rule of Psi.  `symbol_Psi` calls it
    per frequency; `snapshots.general_integer_snapshot` and `psi_grid` compute
    u and sin(u) once per frequency for all their Psi columns."""
    if abs(sin_u) < SIN_SWITCH:
        return chebyshev_U(m - 1, math.cos(u))
    return math.sin(m * u) / sin_u


def sine_over_column(t: float, ws: Sequence[float], sins: Sequence[float] | None = None) -> list[float]:
    """`sine_over(t, w)` at each frequency in `ws` (`sins`: sin(t w) at each w,
    if given): the ratio branch a column at a time; `sine_over` itself in the
    series window and for a column whose sine or division fails (w = 0, t w = inf)."""
    try:
        out = [math.sin(t * w) / w for w in ws] if sins is None else [s / w for s, w in zip(sins, ws)]
    except (ArithmeticError, ValueError):
        return [sine_over(t, w) for w in ws]
    if ws and abs(t) * min(map(abs, ws)) < SERIES_SWITCH:  # else no |t w| is below it
        for i in [i for i, w in enumerate(ws) if -SERIES_SWITCH < t * w < SERIES_SWITCH]:
            out[i] = sine_over(t, ws[i])
    return out


def sine_at_column(
    time: float | Fraction, ws: Sequence[float], sins: Sequence[float] | None = None
) -> tuple[list[float], list[bool]]:
    """`sine_at(time, w)` at each frequency in `ws`: the values and the zero
    flags.  At a float time t the values are `sine_over_column`'s, and only
    the elements with |sin(t w)| below the kernel threshold at |t| max |w| go
    to `sine_at` for their flag; at a Fraction time every element does.  A
    float |t| max |w| >= PHASE_LIMIT raises InvalidTime, so every sine taken
    is of a finite |t w| < 2^50."""
    if type(time) is float or not isinstance(time, Fraction):
        t = float(time)
        top = max(map(abs, ws), default=0.0)  # no element's |t w| is larger
        check_phase(t, top)
        sins = [math.sin(t * w) for w in ws] if sins is None else sins
        bound = kernel_threshold(abs(t) * top)
        zeros = [False] * len(ws)  # t = 0 puts every element in the window
        for i in [i for i, s in enumerate(sins) if -bound < s < bound]:
            zeros[i] = sine_at(t, ws[i])[1]
        return sine_over_column(t, ws, sins), zeros
    pairs = [sine_at(time, w) for w in ws]
    return [v for v, _ in pairs], [z for _, z in pairs]


def cos_column(time: float | Fraction, ws: Sequence[float]) -> list[float]:
    """`cos_at(time, w)` at each frequency in `ws`."""
    if type(time) is float or not isinstance(time, Fraction):
        t = float(time)
        return [math.cos(t * w) for w in ws]
    return [cos_at(time, w) for w in ws]


def psi_column(m: int, us: Sequence[float], sins: Sequence[float]) -> list[float]:
    """`psi_at(m, u, sin u)` over the columns `us` and `sins`: the ratio
    branch a column at a time, the elements with |sin u| < SIN_SWITCH through
    `psi_at`, and every element through it where a sine or division fails."""
    try:
        out = [math.sin(m * u) / s for u, s in zip(us, sins)]
    except (ArithmeticError, ValueError):
        return [psi_at(m, u, s) for u, s in zip(us, sins)]
    for i in [i for i, s in enumerate(sins) if -SIN_SWITCH < s < SIN_SWITCH]:
        out[i] = psi_at(m, us[i], sins[i])
    return out


def sine_over_grid(ts, lams: Sequence[float]):
    """`sine_over` at every frequency in `lams` (columns) and every time in
    `ts`: one time per row, or a 2-D array of one time per element (rows x
    columns), as a float64 array.  Both branches run in numpy: sin(u)/lam,
    and on every element with |u| < SERIES_SWITCH, t = 0 and lam = 0 among
    them, `sine_over`'s series at its own time, operation for operation, so
    each value is the scalar rule's bit for bit.  Where the scalar rule
    would raise (an infinite u) the element is nan."""
    import numpy as np

    lam = np.asarray(lams, dtype=float)
    t = np.asarray(ts, dtype=float)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    with np.errstate(all="ignore"):
        u = t * lam
        out = np.sin(u)
        out /= lam
        near = np.abs(u) < SERIES_SWITCH
        u, t = u[near], np.broadcast_to(t, out.shape)[near]
        out[near] = t * (1.0 - u * u / 6.0 + u * u * u * u / 120.0)
    return out


def psi_grid(ms: Sequence[int], us: Sequence[float]):
    """`psi_at` at every index in `ms` (rows) and every u = s lam in `us`
    (columns), as a float64 array, with sin(u) computed once per column.
    The ratio branch sin(m u)/sin(u) runs in numpy; every column with
    |sin u| < SIN_SWITCH takes `psi_at` itself.  Each m is read as float(m),
    as m * u reads it, so an index past the float range raises OverflowError;
    where the scalar rule would raise (an infinite u) the element is nan."""
    import numpy as np

    u = np.asarray(us, dtype=float)
    m = np.array([float(k) for k in ms]).reshape(-1, 1)
    with np.errstate(all="ignore"):
        sin_u = np.sin(u)
        out = np.sin(m * u) / sin_u
    for j in np.flatnonzero(np.abs(sin_u) < SIN_SWITCH):
        for i, k in enumerate(ms):
            out[i, j] = psi_at(k, float(u[j]), float(sin_u[j]))
    return out


def fundamental_identities_check(t: float, lam_grid: list[float]) -> dict[str, float]:
    """The max absolute residuals, by name, of the recurrences Psi_{m+2} +
    Psi_m = 2 cos(lam) Psi_{m+1} and S_{m+2} + S_m = 2 S'_1 S_m+1 for
    -10 <= m <= 10, and of the shift rule S_t S'_1 - S'_t S_1 = S_{t-1},
    pointwise on `lam_grid`.  Each of the 23 Psi and S columns is one row
    of `psi_grid` and `sine_over_grid`.
    """
    return _identity_residuals([t], lam_grid)[0]


def _identity_residuals(ts: Sequence[float], lam_grid: list[float]) -> list[dict[str, float]]:
    """`fundamental_identities_check` at each time of `ts` on one grid: the
    two recurrences, which no time enters, once, and the shift rule per time.
    The grid is checked first, then every time."""
    import numpy as np

    if not lam_grid:
        raise ValueError("empty grid")
    if any(lam < 0 or not math.isfinite(lam) for lam in lam_grid):
        raise ValueError("grid entries must be finite and >= 0")
    for t in ts:
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")

    lam = np.array(lam_grid, dtype=float)
    ms = range(-10, 13)
    out = []
    with np.errstate(all="ignore"):
        two_cos = 2.0 * np.cos(lam)
        r_psi, r_s = (
            np.abs(v[2:] + v[:-2] - two_cos * v[1:-1]).max()
            for v in (psi_grid(ms, lam), sine_over_grid([float(m) for m in ms], lam))
        )
        for t in ts:
            s_t, s_t1, s_1 = sine_over_grid([float(t), t - 1.0, 1.0], lam)
            r_shift = np.abs(s_t * np.cos(lam) - np.cos(float(t) * lam) * s_1 - s_t1).max()
            residuals = {"snapshot_recurrence": float(r_psi), "sine_recurrence": float(r_s), "time_shift": float(r_shift)}
            if not all(map(math.isfinite, residuals.values())):
                raise ValueError(f"t lam overflows on the grid at t={t!r}")
            out.append(residuals)
    return out
