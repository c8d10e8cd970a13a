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

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import diophantine
from .fields import (
    Field,
    aligned,
    apply_multiplier,
    canonical_columns,
    linear_combine,
    max_abs_amp,
    subtract,
    symbol_product,
    union_support,
)
from .propagators import MultiplierSymbol, symbol_Psi, symbol_S, symbol_Sprime

STATUS_UNIQUE = "Unique"
STATUS_NONUNIQUE = "NonUniqueKernel"
STATUS_OBSTRUCTED = "Obstructed"

KERNEL_SIN_TOL = 1e-14  # |sin(t lam)| below this marks a kernel frequency,
KERNEL_ULPS = 4  # as does |sin(t lam)| below this many ulp(t lam)
OBSTRUCTION_AMP_TOL = 1e-12  # kernel-mode data above this has no preimage
CONSISTENCY_TOL = 1e-9  # scaled by (1 + conditioning)
RATIONAL_GATE_TOL = 1e-9


class InvalidTime(ValueError):
    """A time at which the operation is undefined (t = 0 kernel, alpha in {0, 1})."""


class InvalidTimes(ValueError):
    """A time tuple violating ordering or coprimality preconditions."""


class IncompatibleData(ValueError):
    """Snapshot data failing a compatibility identity beyond tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


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
    def solvable(self) -> bool:
        return self.status != STATUS_OBSTRUCTED

    @property
    def kernel_coeffs(self) -> tuple:
        return self.kernel_modes  # the sphere's name for the kernel keys, kept for the benchmark


def evolve(data: CauchyData, t: float) -> Field:
    """u_t = S'_t u0 + S_t g."""
    return linear_combine(
        [1.0, 1.0],
        [
            apply_multiplier(data.position, symbol_Sprime(t)),
            apply_multiplier(data.velocity, symbol_S(t)),
        ],
    )


_LAPLACIAN = MultiplierSymbol("-lam^2", lambda lam: -(lam * lam))


def wave_residual(data: CauchyData, t: float, h: float) -> float:
    """Max-amplitude residual of the centered second time difference of the
    evolved field against its Laplacian."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h}")
    up = evolve(data, t + h)
    u0 = evolve(data, t)
    um = evolve(data, t - h)
    lap = apply_multiplier(u0, _LAPLACIAN)
    r = linear_combine(
        [1.0 / (h * h), -2.0 / (h * h), 1.0 / (h * h), -1.0], [up, u0, um, lap]
    )
    return max_abs_amp(r)


def _is_kernel(t: float, lam: float) -> bool:
    """lam is a kernel frequency of S_t: radius in (pi/t) Z, excluding 0
    where the symbol continues to t != 0.  A float u = t lam at k pi is off
    by up to ~2 ulp(u) from rounding lam and the product, and a radius from
    hypot adds another ulp or two, hence `kernel_threshold`."""
    u = t * lam
    x = abs(math.sin(u))
    return lam > 0 and x < kernel_threshold(u)


def kernel_threshold(u: float) -> float:
    """|sin(u)| below this counts as zero: the larger of KERNEL_SIN_TOL and
    KERNEL_ULPS ulp(u); the latter wins from |u| = 16 on."""
    return max(KERNEL_SIN_TOL, KERNEL_ULPS * math.ulp(u))


def kernel_modes(f: Field, t: float) -> tuple:
    """Keys of f annihilated by S_t."""
    if t == 0:
        raise InvalidTime("S_0 = 0: every frequency is in the kernel")
    return tuple(key for key, lam in zip(f.keys, f.freqs) if _is_kernel(t, lam))


def general_integer_snapshot(
    ua: Field, ub: Field, a: float, b: float, m: int
) -> Field:
    """u at time a + m (b - a), from the snapshots at a < b."""
    if not b > a:
        raise InvalidTimes(f"need a < b, got a={a}, b={b}")
    s = b - a
    return linear_combine(
        [1.0, -1.0],
        [
            apply_multiplier(ub, symbol_Psi(m, s)),
            apply_multiplier(ua, symbol_Psi(m - 1, s)),
        ],
    )


# ---------------------------------------------------------------------------
# compatibility residuals


def compatibility_residual_general(
    fa: Field, fb: Field, fc: Field, a: float, b: float, c: float
) -> float:
    """Residual of S_{c-b} fa + S_{a-c} fb + S_{b-a} fc, which vanishes on
    genuine snapshot triples at times (a, b, c)."""
    r = linear_combine(
        [1.0, 1.0, 1.0],
        [
            apply_multiplier(fa, symbol_S(c - b)),
            apply_multiplier(fb, symbol_S(a - c)),
            apply_multiplier(fc, symbol_S(b - a)),
        ],
    )
    return max_abs_amp(r)


def rational_compatibility_residual(
    f0: Field, fp: Field, fq: Field, p: int, q: int
) -> float:
    """Residual of Psi_q (fp - S'_p f0) = Psi_p (fq - S'_q f0) for integer
    snapshot times 0, p, q."""
    _validate_pq(p, q)
    return _psi_gate_residual(f0, fp, fq, p, q, 1.0)


def _validate_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)) or p < 1 or q < 1:
        raise InvalidTimes(f"need positive integer times, got p={p!r}, q={q!r}")
    if p == q:
        raise InvalidTimes(f"need distinct times, got p = q = {p}")
    if math.gcd(p, q) != 1:
        raise InvalidTimes(f"need coprime times, gcd({p}, {q}) = {math.gcd(p, q)}")


def _psi_gate_residual(
    f0: Field, fa: Field, fb: Field, p: int, q: int, unit: float
) -> float:
    va = subtract(fa, apply_multiplier(f0, symbol_Sprime(p * unit)))
    vb = subtract(fb, apply_multiplier(f0, symbol_Sprime(q * unit)))
    lhs = apply_multiplier(va, symbol_Psi(q, unit))
    rhs = apply_multiplier(vb, symbol_Psi(p, unit))
    return max_abs_amp(subtract(lhs, rhs))


# ---------------------------------------------------------------------------
# solvers

# One scalar equation s g = r at a key; s counts as zero when the flag is set.
Equation = tuple[float, bool, complex]


def diagonal_solve(
    support: Sequence[Field],
    rhs: Sequence[Field],
    row: Callable[..., tuple[Sequence[Equation], float]],
    kernel_note: str,
    verify: Callable[[Field], tuple[float, str]] | None = None,
) -> SolveReport:
    """Solve for g key by key over the union of the keys of `support`.

    `row(key, lam, *amps)` gets the key, its frequency and its amplitudes in
    the `rhs` fields, and returns the key's equations and a gain; the key's
    conditioning is gain / |s| over its nonzero symbols.  Where every symbol
    is zero the key is in the kernel: g is free (0 is returned) and the data
    is Obstructed unless every right side is within OBSTRUCTION_AMP_TOL of 0.
    Elsewhere g = r / s from the first nonzero equation, and the other
    equations must agree within CONSISTENCY_TOL (1 + conditioning).
    `verify(g)` gives a post-check residual and a note, held to the same
    bound; without it the residual is the cross-equation inconsistency.
    """
    for f in support[1:]:
        support[0].check_same_basis(f)
    keys, freqs = union_support(support)
    entries = []
    kernel = []
    obstruction = conditioning = inconsistency = 0.0
    for key, lam, *amps in zip(keys, freqs, *(aligned(f.keys, f.amps, keys) for f in rhs)):
        eqs, gain = row(key, lam, *amps)
        i = next((i for i, (_, zero, _) in enumerate(eqs) if not zero), None)
        if i is None:
            kernel.append(key)
            obstruction = max(obstruction, *(abs(r) for _, _, r in eqs))
            continue
        g = eqs[i][2] / eqs[i][0]
        for j, (s, zero, r) in enumerate(eqs):
            if not zero:
                conditioning = max(conditioning, gain / abs(s))
            if j != i:
                inconsistency = max(inconsistency, abs(g * s - r))
        entries.append((key, lam, g))
    kernel = tuple(kernel)
    if obstruction > OBSTRUCTION_AMP_TOL:
        return SolveReport(STATUS_OBSTRUCTED, None, obstruction, conditioning, kernel, kernel_note)
    tol = CONSISTENCY_TOL * (1.0 + conditioning)
    if inconsistency > tol:
        note = f"cross-equation inconsistency {inconsistency:.3e} exceeds {tol:.3e}"
        return SolveReport(STATUS_OBSTRUCTED, None, inconsistency, conditioning, kernel, note)
    g = support[0].with_columns(*canonical_columns(entries))
    residual, note = verify(g) if verify is not None else (inconsistency, "")
    if residual > tol:
        note = "post-verification failed" + (": " + note if note else "")
        return SolveReport(STATUS_OBSTRUCTED, None, residual, conditioning, kernel, note)
    return SolveReport(STATUS_NONUNIQUE if kernel else STATUS_UNIQUE, g, residual, conditioning, kernel, note)


def _sine_equation(t: float) -> Callable[[float, complex], Equation]:
    """(lam, r) -> the equation S_t g = r at frequency lam."""
    s = symbol_S(t)
    return lambda lam, r: (s(lam), _is_kernel(t, lam), r)


def two_snapshot_solve(f0: Field, f1: Field) -> SolveReport:
    """Velocity g from snapshots at times 0 and 1.

    Modes with radius in pi Z (0 excluded) lie in the kernel of S_1: data
    there either obstructs (nonzero right side) or is free (minimal-norm
    g = 0 returned, mode listed)."""
    rhs = subtract(f1, apply_multiplier(f0, symbol_Sprime(1.0)))
    eq1 = _sine_equation(1.0)

    def verify(g: Field) -> tuple[float, str]:
        return max_abs_amp(subtract(f1, evolve(CauchyData(f0, g), 1.0))), ""

    return diagonal_solve(
        (f0, f1),
        (rhs,),
        lambda xi, lam, v: ((eq1(lam, v),), 1.0),
        "data at kernel frequencies of S_1 has no preimage",
        verify,
    )


def three_snapshot_solve(
    f0: Field,
    f1: Field,
    falpha: Field,
    alpha: float | Fraction,
) -> SolveReport:
    """Velocity g from snapshots at times 0, 1, alpha.

    Exact rational alpha = p/q routes through the Bezout reconstruction on
    the rescaled integer times (0, p, q) with step 1/q, which handles the
    shared kernel exactly; its compatibility gate failing comes back as an
    Obstructed report.  Generic float alpha is solved mode by mode: the
    time-1 equation where sin(lam) is usable, the time-alpha equation
    otherwise, the unused equation cross-checked at 1e-9 (1 + conditioning).
    """
    if isinstance(alpha, Fraction):
        if alpha <= 0 or alpha == 1:
            raise InvalidTime(f"rational alpha must be positive and != 1, got {alpha}")
        try:
            return _bezout_solve(f0, falpha, f1, alpha.numerator, alpha.denominator, 1.0 / alpha.denominator)
        except IncompatibleData as exc:
            return SolveReport(
                STATUS_OBSTRUCTED,
                None,
                residual=exc.residual,
                conditioning=0.0,
                kernel_modes=(),
                note=str(exc),
            )
    alpha = float(alpha)
    if alpha in (0.0, 1.0):
        raise InvalidTime(f"alpha must differ from both snapshot times, got {alpha}")

    rhs1 = subtract(f1, apply_multiplier(f0, symbol_Sprime(1.0)))
    rhsa = subtract(falpha, apply_multiplier(f0, symbol_Sprime(alpha)))
    eq1, eqa = _sine_equation(1.0), _sine_equation(alpha)

    def row(xi: tuple[float, ...], lam: float, v: complex, w: complex) -> tuple[tuple[Equation, ...], float]:
        return (eq1(lam, v), eqa(lam, w)), 1.0

    return diagonal_solve((f0, f1, falpha), (rhs1, rhsa), row, "data at shared kernel frequencies has no preimage")


def rational_reconstruct(
    f0: Field, fp: Field, fq: Field, p: int, q: int
) -> SolveReport:
    """Velocity from integer-time snapshots 0, p, q with gcd(p, q) = 1.

    Gates on the Psi compatibility identity (IncompatibleData beyond 1e-9),
    then combines the two windows through a Bezout pair k p + l q = 1 and
    divides once by the symbol of S_1.  The report's residual is the
    post-check of re-evolving the solution to times p and q.
    """
    _validate_pq(p, q)
    return _bezout_solve(f0, fp, fq, p, q, 1.0)


def _bezout_solve(
    f0: Field,
    fa: Field,
    fb: Field,
    p: int,
    q: int,
    unit: float,
) -> SolveReport:
    """Solve for g from snapshots at times (0, p*unit, q*unit), gcd(p, q) = 1.

    With k p + l q = 1, the combination
        Psi_{k, p u} S'_{l q u} (fa - S'_{p u} f0) + Psi_{l, q u} S'_{k p u} (fb - S'_{q u} f0)
    equals S_u g identically, because sin(k p x) cos(l q x) + sin(l q x) cos(k p x)
    = sin(x) for x = u lam.  One division by the symbol of S_u finishes; its
    kernel (lam in pi Z / u) is the only non-uniqueness.
    """
    gate = _psi_gate_residual(f0, fa, fb, p, q, unit)
    if gate > RATIONAL_GATE_TOL:
        raise IncompatibleData(
            f"snapshot compatibility residual {gate:.3e} exceeds {RATIONAL_GATE_TOL:.1e}", gate
        )
    k, l = diophantine.bezout(p, q)
    va = subtract(fa, apply_multiplier(f0, symbol_Sprime(p * unit)))
    vb = subtract(fb, apply_multiplier(f0, symbol_Sprime(q * unit)))
    sym_a = symbol_product(symbol_Psi(k, p * unit), symbol_Sprime(l * q * unit))
    sym_b = symbol_product(symbol_Psi(l, q * unit), symbol_Sprime(k * p * unit))
    num = linear_combine([1.0, 1.0], [apply_multiplier(va, sym_a), apply_multiplier(vb, sym_b)])
    su = symbol_S(unit)

    def row(
        xi: tuple[float, ...], lam: float, a: complex, b: complex, c: complex
    ) -> tuple[tuple[Equation, ...], float]:
        if _is_kernel(unit, lam):
            # S_{pu} and S_{qu} vanish with S_u, so neither window sees g here
            return ((0.0, True, a), (0.0, True, b)), 1.0
        return ((su(lam), False, c),), abs(sym_a(lam)) + abs(sym_b(lam))

    def verify(g: Field) -> tuple[float, str]:
        data = CauchyData(f0, g)
        ra = max_abs_amp(subtract(fa, evolve(data, p * unit)))
        rb = max_abs_amp(subtract(fb, evolve(data, q * unit)))
        return max(ra, rb), f"bezout k={k}, l={l}; residual at t={p * unit:g}: {ra:.3e}, t={q * unit:g}: {rb:.3e}"

    return diagonal_solve(
        (f0, fa, fb), (va, vb, num), row, "kernel-mode data admits no wave through all three snapshots", verify
    )


# ---------------------------------------------------------------------------
# the small-denominator obstruction, exhibited


@dataclass(frozen=True)
class LiouvilleRow:
    k: int
    q: int
    data_sup: str  # sup norm of the k-th snapshot datum, q^(1-k)
    sin_abs: str  # |sin(pi delta_k)|, the small denominator
    amplitude: str  # pi / (sin * q^(k-1)), the velocity amplitude it forces
    amplitude_log10: float
    certified: bool  # exact arithmetic confirms amplitude > 1


@dataclass(frozen=True)
class LiouvilleDemoReport:
    alpha_label: str
    depth: int
    rows: tuple[LiouvilleRow, ...]

    @property
    def all_certified(self) -> bool:
        return all(r.certified for r in self.rows)


def liouville_obstruction_demo(k_max: int) -> LiouvilleDemoReport:
    """Velocity amplitudes forced by vanishing data along the convergents of
    the classical factorial series sum 10^(-j!).

    At frequency pi q_k the time-alpha equation divides by
    sin(pi q_k alpha) = +-sin(pi delta_k), and delta_k ~ q_k^(-k).  Even
    against data of sup norm q_k^(1-k) the recovered amplitude
    pi / (sin(pi delta_k) q_k^(k-1)) stays above 1, certified in exact
    arithmetic through sin x < x.  Display strings come from 30-digit
    arithmetic since the values leave double range around k = 5.
    """
    if not 1 <= k_max <= 25:
        raise ValueError(f"k_max must be in [1, 25], got {k_max}")
    depth = diophantine.FACTORIAL_DEPTH_CAP
    alpha = diophantine.liouville_truncation(10, (1,) * depth, depth)
    rows = []
    for k in range(1, k_max + 1):
        qk, _, dlo, dhi = diophantine.convergent_pair(alpha, k)
        certified = dhi * qk ** (k - 1) < 1
        with mpmath.workdps(30):
            delta = mpmath.mpf(dlo.numerator) / mpmath.mpf(dlo.denominator)
            sin_val = mpmath.sin(mpmath.pi * delta)
            amp = mpmath.pi / (sin_val * mpmath.mpf(qk) ** (k - 1))
            rows.append(
                LiouvilleRow(
                    k=k,
                    q=qk,
                    data_sup=mpmath.nstr(mpmath.mpf(qk) ** (1 - k), 8),
                    sin_abs=mpmath.nstr(sin_val, 8),
                    amplitude=mpmath.nstr(amp, 8),
                    amplitude_log10=float(mpmath.log10(amp)),
                    certified=bool(certified),
                )
            )
    return LiouvilleDemoReport(alpha.label, depth, tuple(rows))
