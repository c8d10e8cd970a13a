"""The shifted wave equation on the n-sphere, in spherical-harmonic coefficients.

Shifting the Laplacian by ((n-1)/2)^2 makes the frequency of degree l exactly
w = l + (n-1)/2, so propagators act on a degree-l coefficient by
cos(w t) and sin(w t)/w.  For n odd the w are integers (or the dynamics is
2 pi periodic and antipodally symmetric); for n even they are half-integers.
Snapshot solvability at time alpha = beta pi therefore hinges on how well
beta (n odd) or beta/2 (n even) is approximable by rationals, which is why
a time, here as everywhere (`wavesnap.propagators.sine_at`), is either a
float (generic time) or an exact Fraction beta meaning beta * pi
(arithmetically pinned time).

A sphere field is a `wavesnap.fields.Field` over the basis `Sphere(n)`:
an orthonormal Y_{l,m}, m = 1 .. dim_Hl(n, l), keyed by (l, m) with
frequency w = l + (n-1)/2, and m = 1 the zonal direction: Y_{l,1} =
sqrt(d_l) phi_l for the normalized Gegenbauer zonal polynomial phi_l.
Evolution, snapshots, the solvers of `wavesnap.snapshots` and the field
files of `wavesnap.fields` serve it as they serve flat fields; this module
adds what only the sphere has: zonal evaluation, the antipodal identity,
the degree cap of the solve, the margins and the classification of times.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .fields import Field, Sphere, dim_Hl, frequency, from_columns, load_field, save_field
from .propagators import as_radians, check_phase, exact_residue, kernel_threshold, residue_sines, sine_at, sine_floor
from .snapshots import (
    CauchyData,
    SolveReport,
    _check_finite,
    evolve,
    general_integer_snapshot,
    two_snapshot_solve,
)

if TYPE_CHECKING:
    from .diophantine import NumberClass

MARGIN_BLOCK = 8192  # degrees the margin screen scores per numpy pass
MARGIN_WINDOW = 1e-9  # relative; rows this close to the best score get the exact recheck


class RequiresOddDimension(ValueError):
    """The identity checked only holds on odd-dimensional spheres."""


class RequiresZonal(ValueError):
    """Pointwise evaluation is implemented for zonal fields only."""


def sphere_field(n: int, entries: Iterable[tuple[int, int, complex]]) -> Field:
    """Build a canonical sphere field from (l, m, amplitude) triples."""
    entries = list(entries)
    return from_columns(Sphere(n), [[l for l, _, _ in entries], [m for _, m, _ in entries]], [a for *_, a in entries])


# ---------------------------------------------------------------------------
# zonal evaluation


def _gegenbauer(n: int, top: int, c: float) -> list[float]:
    """C_0 .. C_top at c for nu = (n-1)/2, unnormalized, by the three-term recurrence; checks c, then n, top."""
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {c}")
    dim_Hl(n, top)  # validates n, top
    nu = 0.5 * (n - 1)
    out = [1.0, 2.0 * nu * c]
    for j in range(1, top):
        out.append((2.0 * (j + nu) * c * out[j] - (j + 2.0 * nu - 1.0) * out[j - 1]) / (j + 1))
    return out


def zonal_values(f: Field, cs: Sequence[float]) -> list[complex]:
    """Values of a zonal sphere field at the polar cosines `cs`, by one O(L)
    recurrence per point to its top degree L, with each key's
    amp sqrt(dim_Hl) and C_l(1) computed once."""
    if any(m != 1 for _, m in f.keys):
        raise RequiresZonal("field has coefficients outside the zonal line m = 1")
    n = f.basis.n
    terms = [(l, amp * math.sqrt(dim_Hl(n, l)), math.comb(l + n - 2, l)) for (l, _), amp in zip(f.keys, f.amps)]
    values = [0j] * len(cs)
    for i, c in enumerate(cs if terms else ()):
        C = _gegenbauer(n, terms[-1][0], c)
        for l, weight, norm in terms:
            values[i] += weight * (C[l] / norm)
    return values


# ---------------------------------------------------------------------------
# evolution and snapshots


def sphere_evolve(f0: Field, g: Field, t: float) -> Field:
    return evolve(CauchyData(f0, g), t)  # kept under this name for the benchmark


def sphere_snapshot(u0: Field, ualpha: Field, alpha: float | Fraction, m: int) -> Field:
    """Snapshot at time m alpha from the pair at times 0 and alpha != 0; a
    negative alpha reads the pair as (alpha, 0), the snapshot as step 1 - m."""
    alpha = as_radians(alpha)
    if alpha > 0:
        return general_integer_snapshot(u0, ualpha, 0.0, alpha, m)
    return general_integer_snapshot(ualpha, u0, alpha, 0.0, 1 - m)


def huygens_antipodal_check(
    f0: Field, g: Field, times: Sequence[float], c_count: int = 20
) -> float:
    """Max residual of u(-x, t + pi) = (-1)^((n-1)/2) u(x, t) over c_count >= 2
    zonal evaluation points and the given times.  Odd n only; this is the clean
    Huygens statement the shifted equation satisfies.  Each evolved field
    costs one O(L) recurrence per point, L its top degree."""
    data = CauchyData(f0, g)
    n = f0.basis.n
    if n % 2 == 0:
        raise RequiresOddDimension(f"antipodal identity needs odd n, got {n}")
    if any(m != 1 for _, m in f0.keys + g.keys):
        raise RequiresZonal("pointwise check runs on zonal data")
    if not times:
        raise ValueError("need at least one time")
    if c_count < 2:
        raise ValueError(f"c_count must be at least 2, got {c_count}")
    sign = -1.0 if ((n - 1) // 2) % 2 else 1.0
    cs = [math.cos(math.pi * j / (c_count - 1)) for j in range(c_count)]
    worst = 0.0
    for t in times:
        here, there = zonal_values(evolve(data, t), cs), zonal_values(evolve(data, t + math.pi), [-c for c in cs])
        worst = max([worst, *(abs(y - sign * x) for x, y in zip(here, there))])
    return worst


# ---------------------------------------------------------------------------
# the two-snapshot problem on the sphere


def sphere_two_snapshot_solve(
    f0: Field,
    falpha: Field,
    alpha: float | Fraction,
    max_degree: int = 256,
) -> SolveReport:
    """`two_snapshot_solve` on sphere data of degree at most max_degree:
    g_{l,m} = (falpha_{l,m} - cos(w alpha) f0_{l,m}) / (sin(w alpha)/w).

    Fraction alpha (meaning alpha pi) gets exact zero detection, so rational
    multiples of pi report their kernel exactly.  Data on a zero Schur
    constant either obstructs or is free, as in the flat case."""
    top = max([f.keys[-1][0] for f in (f0, falpha) if f.keys], default=0)
    if top > max_degree:
        raise ValueError(f"data degree {top} exceeds max_degree {max_degree}")
    return two_snapshot_solve(f0, falpha, alpha)


def surjectivity_margin(
    alpha: float | Fraction, n: int, max_degree: int, exponent: int
) -> tuple[float, bool]:
    """Best constant C with |sin(w alpha)/w| >= C (1+l)^(-exponent) up to
    max_degree, and whether it is positive.  An exact zero (rational
    multiples of pi with the divisibility hit) forces (0, False); a weight
    (1+l)^exponent beyond the float range raises OverflowError naming its
    degree, a non-finite alpha InvalidTime, and so does a float alpha with
    |alpha| (max_degree + (n-1)/2) >= 2^50 (`check_phase`) or an exact one
    at which a nonzero sine underflows to 0.0 (`residue_sines`, `sine_at`)."""
    from .diophantine import slow_decay_check

    _check_finite(alpha, "alpha")
    dim_Hl(n, 0)
    if not 1 <= max_degree <= 10**6:
        raise ValueError(f"max_degree must be in [1, 1e6], got {max_degree}")
    passes, c = slow_decay_check(_margin_rows(alpha, n, max_degree, exponent), exponent)
    return c, passes


def _margin_rows(alpha: float | Fraction, n: int, max_degree: int, exponent: int) -> Iterator[tuple[int, float]]:
    """The rows (l, |sin(w alpha)/w|) that decide `slow_decay_check`, in increasing l.

    numpy picks the rows, the scalar code decides.  Each block of degrees
    gets an approximate score |sin(w alpha)/w| (1+l)^exponent; only three
    kinds of row are yielded, each recomputed by `sine_at` (at the exact
    w = (2l + n - 1)/2 for exact alpha, which a float rounds once n >= 2^53):

    - rows scoring within MARGIN_WINDOW of the best score so far;
    - near-zero rows: 2q | (2l+n-1)p for exact alpha, or |sin| below twice
      the kernel threshold at the block's largest |w alpha| for float alpha
      (no row's is larger), so `sine_at` decides the zero;
    - rows whose weight nears the float range, so `slow_decay_check` raises
      OverflowError on the first row that overflows, as it would in a full scan.

    The screen reproduces `sine_at`'s arguments bit for bit and differs
    only in np.sin and the power, each a few ulp off at most; a row left out
    scores more than MARGIN_WINDOW above a yielded one, so it can be neither the
    minimum nor tie it, and the returned constant is the full scan's.

    At float alpha np.sin runs only on rows whose floor score (Jordan's
    `sine_floor` / w times the block's least weight, less 4 ulp; never above
    the score) is in that window or whose floor is below twice the kernel
    threshold, and on blocks whose weights near the float range.

    At exact alpha = p/q the residue (2l+n-1)p mod 4q, hence the sine and the
    zero flag, has period 2q in l: one that fits in MARGIN_BLOCK rounds the
    block down to whole periods (8192 -> 8180 degrees at q = 10), and later
    blocks reuse the first one's sines.  Such a later block [lo, hi] is
    skipped before any numpy work when no weight in it nears the float range
    and its floor score, m / w(hi) (1+lo)^exponent less the pow and rounding
    slack (m the first block's least |sine|), is above the window: a
    correctly rounded quotient or product never falls as its operands grow,
    so no row of the block scores below the floor, none could be yielded,
    and the best score stays.  At exponent 0 the floor stays under the first
    block's scores; a first block with an exact zero is never left, as
    `slow_decay_check` stops at that row.  A skip does not end the scan: a
    later block may reach the float range, and its overflow must raise."""
    import numpy as np

    if not isinstance(alpha, Fraction):
        check_phase(float(alpha), frequency(n, max_degree))  # the scan's largest |w alpha|
    periodic = isinstance(alpha, Fraction) and 2 * alpha.denominator <= MARGIN_BLOCK
    block = MARGIN_BLOCK - MARGIN_BLOCK % (2 * alpha.denominator) if periodic else MARGIN_BLOCK
    best = math.inf
    for lo in range(0, max_degree + 1, block):
        hi = min(lo + block, max_degree + 1) - 1
        # the block's least weight, less the pow and rounding slack; None once a weight nears the float range
        lift = (1.0 + lo) ** exponent * (1 - 2.0**-50) if exponent * math.log2(2.0 + hi) < 1022 else None
        if lo and periodic and lift is not None and least / (hi + 0.5 * (n - 1)) * lift > best * (1 + MARGIN_WINDOW):
            continue
        l = np.arange(lo, hi + 1)
        w = l + 0.5 * (n - 1)  # sine_at's w = frequency(n, l), bit for bit while n < 2^52
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(alpha, Fraction):
                if lo == 0 or not periodic:
                    w2 = 2 * (l if n < 2**62 else l.astype(object)) + (n - 1)  # sine_at's 2w, in int64 if it fits
                    sines, zeros = residue_sines(alpha, *exact_residue(alpha, w2))
                    least = float(np.abs(sines).min())
                x, near_zero = sines[: len(l)], zeros[: len(l)]
            else:
                y, tiny = w * float(alpha), 2 * kernel_threshold(abs(float(alpha)) * float(w[-1]))
                if lift is not None:  # no weight in the block nears the float range
                    floor = sine_floor(y)
                    keep = ~(floor / w * lift > best * (1 + MARGIN_WINDOW))
                    keep |= floor < tiny
                    l, w, y = l[keep], w[keep], y[keep]
                x = np.sin(y)
                near_zero = np.abs(x) < tiny
            weight = (1.0 + l) ** exponent
            score = np.abs(x) / w * weight
        edge = ~(weight < 2.0**1023)  # float(1+l)**exponent overflows from 2^1024 on
        usable = ~(near_zero | edge)
        if usable.any():
            best = min(best, float(score[usable].min()))
        pick = near_zero | edge | ~(score > best * (1 + MARGIN_WINDOW))  # nan scores get the recheck too
        for l in l[pick].tolist():
            w = Fraction(2 * l + n - 1, 2) if isinstance(alpha, Fraction) else frequency(n, l)  # exact for any n
            v, is_zero = sine_at(alpha, w)
            yield l, 0.0 if is_zero else abs(v)


# ---------------------------------------------------------------------------
# classification of snapshot times alpha = beta pi


VERDICT_SOLVABLE = "UniqueAndSolvable"
VERDICT_NOT_ALWAYS = "UniqueNotAlwaysSolvable"
VERDICT_NON_UNIQUE = "NonUnique"


@dataclass(frozen=True)
class Classification:
    verdict: str
    reason: str


def classify_alpha(beta: NumberClass, n: int) -> Classification:
    """Existence/uniqueness class of the two-snapshot problem at time beta pi
    on the n-sphere, decided from beta's symbolic number class alone.

    Odd n: frequencies are integers, so rational beta zeroes out infinitely
    many Schur constants (non-unique), a finite irrationality measure keeps
    them polynomially bounded below (solvable), and Liouville beta drives
    them to zero faster than any power (unique but not always solvable).

    Even n: frequencies are half-integers; with beta = p/q the constants
    involve sin(pi (2l + n - 1) p / (2q)), never zero when p is odd.  For
    irrational beta the decisive quantity is beta/2: solvability fails
    exactly when beta/2 is of odd type, so a certificate about beta/2 must
    ride along in `beta.half`.
    """
    from .diophantine import KIND_LIOUVILLE, KIND_MEASURE_BOUNDED, KIND_ODD_TYPE, KIND_RATIONAL, Unclassifiable

    dim_Hl(n, 0)  # validates n
    if beta.value <= 0:
        raise ValueError(f"beta must be positive, got {beta.value}")
    if n % 2 == 1:
        if beta.kind == KIND_RATIONAL:
            return Classification(
                VERDICT_NON_UNIQUE,
                f"integer frequencies: sin(w beta pi) = 0 whenever {beta.value.denominator} divides w",
            )
        if beta.kind == KIND_MEASURE_BOUNDED:
            return Classification(
                VERDICT_SOLVABLE,
                f"irrationality measure <= {beta.measure_bound:g} bounds the Schur constants below polynomially",
            )
        if beta.kind in (KIND_LIOUVILLE, KIND_ODD_TYPE):
            return Classification(
                VERDICT_NOT_ALWAYS,
                "Liouville beta: Schur constants decay faster than any power along the convergents",
            )
        raise Unclassifiable(f"unknown number kind {beta.kind!r}")
    # n even
    if beta.kind == KIND_RATIONAL:
        p = beta.value.numerator
        q2 = 2 * beta.value.denominator
        if p % 2 == 1:
            return Classification(
                VERDICT_SOLVABLE,
                f"odd numerator {p}: (2l+n-1) p is odd times odd, never divisible by {q2}, "
                "so the periodic Schur values stay off zero",
            )
        return Classification(
            VERDICT_NON_UNIQUE,
            f"even numerator {p}: degrees with (2l+n-1) p = 0 mod {q2} are free",
        )
    if beta.kind == KIND_MEASURE_BOUNDED:
        return Classification(
            VERDICT_SOLVABLE,
            "finite irrationality measure rules out odd-type behavior of beta/2",
        )
    half = beta.half
    if half is not None:
        if half.kind == KIND_ODD_TYPE:
            return Classification(
                VERDICT_NOT_ALWAYS,
                "beta/2 is an odd-type construction: odd-denominator margins vanish super-polynomially",
            )
        if half.kind == KIND_MEASURE_BOUNDED:
            return Classification(
                VERDICT_SOLVABLE, "beta/2 carries a finite irrationality measure, so it is not of odd type"
            )
        if half.kind == KIND_LIOUVILLE and half.base == 2 and all(c == 1 for c in half.coeffs):
            return Classification(
                VERDICT_SOLVABLE,
                "beta/2 = sum 2^(-j!): Liouville, yet its odd-denominator margins stay above q^(-3), "
                "so it is not of odd type and the half-integer Schur constants survive",
            )
    raise Unclassifiable(
        f"even n = {n} needs a certificate about beta/2 (odd type or not); none is attached to {beta}"
    )


# the benchmark's names for the one reader and writer of field files
load_sphere_field, save_sphere_field = load_field, save_field
