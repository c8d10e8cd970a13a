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
the margins and the classification of times.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .fields import Field, Sphere, dim_Hl, frequency, from_columns, load_field, save_field
from .propagators import RECHECK_WINDOW, check_phase, exact_residue, kernel_threshold, residue_sines, sine_at, sine_floor
from .snapshots import CauchyData, _check_finite, evolve, two_snapshot_solve

if TYPE_CHECKING:
    from .diophantine import NumberClass

MARGIN_BLOCK = 8192  # degrees the margin screen scores per numpy pass


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


def zonal_table(fields: Sequence[Field], cs: Sequence[float]) -> list[list[float]]:
    """C_0 .. C_L at each polar cosine in `cs` (`_gegenbauer`), L the top
    degree of the sphere `fields`: one recurrence per point, read by
    `zonal_values` for any field whose degrees are theirs.  Fields with no
    keys need no degree, so no point is checked."""
    tops = [f.keys[-1][0] for f in fields if f.keys]
    return [_gegenbauer(fields[0].basis.n, max(tops), c) if tops else [] for c in cs]


def zonal_values(f: Field, table: Sequence[Sequence[float]]) -> list[complex]:
    """Values of a zonal sphere field at the points of `table`, a `zonal_table`
    of fields holding f's degrees: sum amp sqrt(dim_Hl) C_l / C_l(1) per
    point, with each key's weight and C_l(1) computed once, so a point set
    costs one recurrence per point however many fields it evaluates."""
    if any(m != 1 for _, m in f.keys):
        raise RequiresZonal("field has coefficients outside the zonal line m = 1")
    n = f.basis.n
    terms = [(l, amp * math.sqrt(dim_Hl(n, l)), math.comb(l + n - 2, l)) for (l, _), amp in zip(f.keys, f.amps)]
    values = [0j] * len(table)
    for i, C in enumerate(table):
        for l, weight, norm in terms:
            values[i] += weight * (C[l] / norm)
    return values


# ---------------------------------------------------------------------------
# evolution and the antipodal identity


def sphere_evolve(f0: Field, g: Field, t: float) -> Field:
    return evolve(CauchyData(f0, g), t)  # kept under this name for the benchmark


sphere_two_snapshot_solve = two_snapshot_solve  # kept under this name for the benchmark


def huygens_antipodal_check(
    f0: Field, g: Field, times: Sequence[float], c_count: int = 20
) -> float:
    """Max residual of u(-x, t + pi) = (-1)^((n-1)/2) u(x, t) over c_count >= 2
    zonal evaluation points and the given times.  Odd n only; this is the clean
    Huygens statement the shifted equation satisfies.  The data's top degree
    L sets one O(L) recurrence per point and point set (`zonal_table`), so
    2 c_count recurrences in all, which every time reuses."""
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
    worst, tables = 0.0, None
    for t in times:
        here, there = evolve(data, t), evolve(data, t + math.pi)
        if tables is None:  # after the first evolve, so a bad time still raises before a bad point
            tables = zonal_table((f0, g), cs), zonal_table((f0, g), [-c for c in cs])
        values = zip(zonal_values(here, tables[0]), zonal_values(there, tables[1]))
        worst = max([worst, *(abs(y - sign * x) for x, y in values)])
    return worst


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

    - rows scoring within RECHECK_WINDOW of the best score so far;
    - near-zero rows: 2q | (2l+n-1)p for exact alpha, or |sin| below twice
      the kernel threshold at the block's largest |w alpha| for float alpha
      (no row's is larger), so `sine_at` decides the zero;
    - rows whose weight nears the float range, so `slow_decay_check` raises
      OverflowError on the first row that overflows, as it would in a full scan.

    The screen reproduces `sine_at`'s arguments bit for bit and differs
    only in np.sin and the power, each a few ulp off at most; a row left out
    scores more than RECHECK_WINDOW above a yielded one, so it can be neither the
    minimum nor tie it, and the returned constant is the full scan's.

    At float alpha np.sin runs only on rows whose floor score (Jordan's
    `sine_floor` / w times the block's least weight, less 4 ulp; never above
    the score) is in that window or whose floor is below twice the kernel
    threshold, and on blocks whose weights near the float range.  Each block
    after the first is bounded whole before it is scored, by a floor no row's
    `sine_floor` is below (`_convergent_floors`, at the block's largest w).
    Where that floor / w times the least weight is above the window and the
    floor is not below twice the kernel threshold, the screen would keep no
    row, so the block is skipped.  Convergents too short to bound it (a huge
    |alpha|, or alpha near a rational multiple of pi) give floor 0, and the
    block is scored.

    At exact alpha = p/q the sine and the zero flag have period 2q in l, and
    the weight (1+l)^exponent / w is monotone in l (its log's slope has the
    sign of (exponent-1) l + exponent rho - 1, rho = (n-1)/2), so a residue
    class scores least at its first or last degree: the screen scores the
    first and last period, and the three degrees around the first weight
    past the float range.  At odd n, w runs through the integers from rho,
    so when the degrees outrun the first period an exact zero there decides.
    At even n, neighbours in a class differ by ~q / l^2 relative, far above
    the score's rounding at l <= 1e6, so the floats keep the real order; at
    l ~ 1e7-1e8, n = 2, exponent 1 the gap is an ulp, so the cap stays."""
    import numpy as np

    end = max_degree + 1
    if isinstance(alpha, Fraction):
        first = min(2 * alpha.denominator, end)
        last = max(first, end - 2 * alpha.denominator)
        spans = [(0, first), (last, end)]
        if exponent * math.log2(2.0 + max_degree) >= 1022:  # pow's rounding leaves the first overflow within 1
            top = math.ceil(2.0 ** (1024 / exponent))  # 1 + l there: degrees top - 2 .. top
            spans.append((max(top - 2, first), min(top + 1, last)))
    else:
        check_phase(float(alpha), frequency(n, max_degree))  # the scan's largest |w alpha|
        spans = [(0, end)]
    exact, best, floors = isinstance(alpha, Fraction), math.inf, None
    for lo, stop in [(lo, stop) for start, stop in sorted(spans) for lo in range(start, stop, MARGIN_BLOCK)]:
        hi = min(lo + MARGIN_BLOCK, stop) - 1
        # the block's least weight, less the pow and rounding slack; None once a weight nears the float range
        lift = (1.0 + lo) ** exponent * (1 - 2.0**-50) if exponent * math.log2(2.0 + hi) < 1022 else None
        if not exact:
            w_top = frequency(n, hi)  # the block's largest w
            y_top = abs(float(alpha)) * w_top  # and its largest |w alpha|
            tiny = 2 * kernel_threshold(y_top)
            if lo and lift is not None:  # a block after the first, every row through the floor screen
                floors = _convergent_floors(float(alpha)) if floors is None else floors
                while floors and floors[-1][0] <= 2 * w_top:
                    floors.pop()  # w grows from block to block: a floor too short here is short for the rest
                # no row's sine_floor is below this (`_convergent_floors`), nor its floor score below bound / w_top lift
                bound = floors[-1][1] - (y_top + 4) * 2.0**-48 if floors else 0.0
                if bound >= tiny and bound / w_top * lift > best * (1 + RECHECK_WINDOW):
                    continue  # so the screen below would keep no row
        l = np.arange(lo, hi + 1)
        w = l + 0.5 * (n - 1)  # sine_at's w = frequency(n, l), bit for bit while n < 2^52
        with np.errstate(over="ignore", invalid="ignore"):
            if exact:
                w2 = 2 * (l if n < 2**62 else l.astype(object)) + (n - 1)  # sine_at's 2w, in int64 if it fits
                x, near_zero = residue_sines(alpha, *exact_residue(alpha, w2))
            else:
                y = w * float(alpha)
                if lift is not None:  # no weight in the block nears the float range
                    floor = sine_floor(y)
                    keep = ~(floor / w * lift > best * (1 + RECHECK_WINDOW))
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
        pick = near_zero | edge | ~(score > best * (1 + RECHECK_WINDOW))  # nan scores get the recheck too
        for l in l[pick].tolist():
            w = Fraction(2 * l + n - 1, 2) if exact else frequency(n, l)  # exact for any n
            v, is_zero = sine_at(alpha, w)
            yield l, 0.0 if is_zero else abs(v)


def _convergent_floors(alpha: float) -> list[tuple[int, float]]:
    """Floors on |sin(w alpha)| at k = 2w = 1, 2, ...: pairs (q_{j+1}, f_j),
    f_j = 2 / (q_j + q_{j+1}) (1 - 2^-50), one for each consecutive pair of
    convergent denominators shared by every gamma in [|alpha| / (2 PI_HI),
    |alpha| / (2 math.pi)] (`diophantine.shared_continued_fraction`), so by
    gamma = |alpha| / 2 pi; in decreasing q_{j+1}, leaving out q_{j+1} = 1,
    which bounds no k.

    dist(w alpha, pi Z) = pi ||k gamma||, and for 0 < k < q_{j+1}
    `diophantine.convergent_floor` (read at k = q_{j+1} - 1 >= q_j, where it
    is this j's) gives ||k gamma|| > 1 / (q_j + q_{j+1}), so Jordan's |sin|
    >= 2 / (q_j + q_{j+1}).  At the float y = w alpha, |y| <= y_top,
    `sine_floor` reads at least (1 - 2^-51) times that, less (y_top + 4)
    2^-49: its slack (|y| + 4) 2^-49, the rounding of y and its own, all
    scaled by 2 / pi.  So f_j - (y_top + 4) 2^-48, the 2^-50 and the doubled
    slack also covering the roundings of that expression, is below every
    such `sine_floor`."""
    from .diophantine import PI_HI, convergent_floor, shared_continued_fraction

    gamma = Fraction(abs(alpha)) / 2
    cf = shared_continued_fraction(gamma / PI_HI, gamma / Fraction(math.pi))
    qs = [q for q in cf.denominators if q > 1]
    floors = [convergent_floor(cf, r - 1) for r in qs]  # 1 / (q_j + r): 2 numerator / denominator rounds once
    return [(r, 2 * f.numerator / f.denominator * (1 - 2.0**-50)) for r, f in zip(qs, floors)][::-1]


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
