"""The shifted wave equation on the n-sphere, in spherical-harmonic coefficients.

Shifting the Laplacian by ((n-1)/2)^2 makes the frequency of degree l exactly
w = l + (n-1)/2, so propagators act on a degree-l coefficient by
cos(w t) and sin(w t)/w.  For n odd the w are integers (or the dynamics is
2 pi periodic and antipodally symmetric); for n even they are half-integers.
Snapshot solvability at time alpha = beta pi therefore hinges on how well
beta (n odd) or beta/2 (n even) is approximable by rationals, which is why
the solvers below accept `alpha` either as a float (generic time) or as an
exact Fraction beta meaning beta * pi (arithmetically pinned time).

A field is a sparse vector over a basis with a known frequency per key, as
in `wavesnap.fields`: here the basis is an orthonormal Y_{l,m},
m = 1 .. dim_Hl(n, l), keyed by (l, m) with frequency w = l + (n-1)/2, and
m = 1 the zonal direction: Y_{l,1} = sqrt(d_l) phi_l for the normalized
Gegenbauer zonal polynomial phi_l.  `SphereField` has the same interface as
`SpectralField`, so evolution, snapshots and the diagonal solver of
`wavesnap.snapshots` serve both.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .diophantine import (
    KIND_LIOUVILLE,
    KIND_MEASURE_BOUNDED,
    KIND_ODD_TYPE,
    KIND_RATIONAL,
    NumberClass,
    Unclassifiable,
    slow_decay_check,
)
from .fields import DimensionMismatch, max_abs_amp, subtract, write_text_atomic
from .snapshots import (
    KERNEL_SIN_TOL,
    CauchyData,
    Equation,
    SolveReport,
    diagonal_solve,
    evolve,
    general_integer_snapshot,
)


class ParamsMismatch(ValueError):
    """Operands disagree on the sphere dimension."""


class RequiresOddDimension(ValueError):
    """The identity checked only holds on odd-dimensional spheres."""


class RequiresZonal(ValueError):
    """Pointwise evaluation is implemented for zonal fields only."""


def dim_Hl(n: int, l: int) -> int:
    """Dimension of the degree-l harmonic space on the n-sphere."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if l == 0:
        return 1
    num = (2 * l + n - 1) * math.comb(l + n - 2, l)
    assert num % (n - 1) == 0
    return num // (n - 1)


def laplace_eigenvalue(n: int, l: int) -> int:
    """Eigenvalue of the (unshifted) Laplacian on degree-l harmonics."""
    dim_Hl(n, l)  # validates arguments
    return -l * (l + n - 1)


def frequency(n: int, l: int) -> float:
    """The shifted frequency w = l + (n-1)/2; integer iff n is odd."""
    return l + 0.5 * (n - 1)


@dataclass(frozen=True)
class SphereField:
    """Canonical coefficient list: entries (l, m, amp) sorted, merged,
    zero amplitudes dropped, 1 <= m <= dim_Hl(n, l)."""

    n: int
    coeffs: tuple[tuple[int, int, complex], ...]

    def amplitude_at(self, l: int, m: int) -> complex:
        for cl, cm, amp in self.coeffs:
            if cl == l and cm == m:
                return amp
        return 0j

    def items(self) -> list[tuple[tuple[int, int], complex]]:
        return [((l, m), amp) for l, m, amp in self.coeffs]

    def frequency(self, key: tuple[int, int]) -> float:
        return frequency(self.n, key[0])

    def with_items(self, entries: Iterable[tuple[tuple[int, int], complex]]) -> SphereField:
        return sphere_field(self.n, ((l, m, amp) for (l, m), amp in entries))

    def check_same_basis(self, other: object) -> None:
        if not isinstance(other, SphereField):
            raise DimensionMismatch(f"cannot mix a sphere field with a {type(other).__name__}")
        if other.n != self.n:
            raise ParamsMismatch(f"sphere dimensions differ: {self.n} vs {other.n}")

    @property
    def max_degree(self) -> int:
        return max((l for l, _, _ in self.coeffs), default=0)

    @property
    def is_zonal(self) -> bool:
        return all(m == 1 for _, m, _ in self.coeffs)


def sphere_field(n: int, entries: Iterable[tuple[int, int, complex]]) -> SphereField:
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    merged: dict[tuple[int, int], complex] = {}
    for l, m, amp in entries:
        l, m = int(l), int(m)
        d = dim_Hl(n, l)
        if not 1 <= m <= d:
            raise ValueError(f"order m={m} outside [1, {d}] for degree l={l}, n={n}")
        amp = complex(amp)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"non-finite amplitude {amp!r}")
        merged[(l, m)] = merged.get((l, m), 0j) + amp
    coeffs = tuple((l, m, amp) for (l, m), amp in sorted(merged.items()) if amp != 0)
    return SphereField(n, coeffs)


# ---------------------------------------------------------------------------
# zonal evaluation


def gegenbauer_phi(n: int, l: int, c: float) -> float:
    """Normalized zonal polynomial phi_l(c) = C_l^{(n-1)/2}(c) / C_l^{(n-1)/2}(1)
    on [-1, 1], via the three-term recurrence.  phi_l(1) = 1, |phi_l| <= 1."""
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {c}")
    dim_Hl(n, l)  # validates n, l
    if l == 0:
        return 1.0
    nu = 0.5 * (n - 1)
    prev, cur = 1.0, 2.0 * nu * c
    for j in range(1, l):
        prev, cur = cur, (2.0 * (j + nu) * c * cur - (j + 2.0 * nu - 1.0) * prev) / (j + 1)
    return cur / math.comb(l + n - 2, l)


def zonal_value(f: SphereField, c: float) -> complex:
    """Value of a zonal field at a point with polar cosine c."""
    if not f.is_zonal:
        raise RequiresZonal("field has coefficients outside the zonal line m = 1")
    total = 0j
    for l, _, amp in f.coeffs:
        total += amp * math.sqrt(dim_Hl(f.n, l)) * gegenbauer_phi(f.n, l, c)
    return total


# ---------------------------------------------------------------------------
# Schur constants of the propagators


def _alpha_to_float(alpha: float | Fraction) -> float:
    if isinstance(alpha, Fraction):
        return math.pi * (alpha.numerator / alpha.denominator)
    return float(alpha)


def schur_sin(n: int, l: int, alpha: float | Fraction) -> tuple[float, bool]:
    """(sin(w alpha)/w, exactly_zero) for w = l + (n-1)/2.

    A Fraction alpha means the time beta pi with beta = alpha exact; zeros
    are then decided by integer arithmetic: sin(w beta pi) = 0 iff
    2q divides (2l + n - 1) p.  For float alpha, |sin| < 1e-14 counts as
    zero, matching the kernel threshold of the flat solvers."""
    w2 = 2 * l + n - 1  # = 2w, always a positive integer
    w = 0.5 * w2
    if isinstance(alpha, Fraction):
        p, q = alpha.numerator, alpha.denominator
        r = (w2 * p) % (4 * q)  # sin(pi x) has period 2 in x = w2 p / (2 q)
        if r % (2 * q) == 0:
            return 0.0, True
        return math.sin(math.pi * (r / (2 * q))) / w, False
    x = math.sin(w * float(alpha))
    return x / w, abs(x) < KERNEL_SIN_TOL


def schur_cos(n: int, l: int, alpha: float | Fraction) -> float:
    """cos(w alpha) for w = l + (n-1)/2, with exact reduction for Fraction alpha."""
    w2 = 2 * l + n - 1
    if isinstance(alpha, Fraction):
        p, q = alpha.numerator, alpha.denominator
        r = (w2 * p) % (4 * q)
        return math.cos(math.pi * (r / (2 * q)))
    return math.cos(0.5 * w2 * float(alpha))


# ---------------------------------------------------------------------------
# evolution and snapshots


def sphere_evolve(f0: SphereField, g: SphereField, t: float) -> SphereField:
    return evolve(CauchyData(f0, g), t)  # kept under this name for the benchmark


def sphere_snapshot(u0: SphereField, ualpha: SphereField, alpha: float, m: int) -> SphereField:
    """Snapshot at time m alpha from the pair at times 0 and alpha != 0; a
    negative alpha reads the pair as (alpha, 0), the snapshot as step 1 - m."""
    alpha = float(alpha)
    if alpha > 0:
        return general_integer_snapshot(u0, ualpha, 0.0, alpha, m)
    return general_integer_snapshot(ualpha, u0, alpha, 0.0, 1 - m)


def huygens_antipodal_check(
    f0: SphereField, g: SphereField, times: Sequence[float], c_count: int = 20
) -> float:
    """Max residual of u(-x, t + pi) = (-1)^((n-1)/2) u(x, t) over zonal
    evaluation points and the given times.  Odd n only; this is the clean
    Huygens statement the shifted equation satisfies."""
    data = CauchyData(f0, g)
    n = f0.n
    if n % 2 == 0:
        raise RequiresOddDimension(f"antipodal identity needs odd n, got {n}")
    if not (f0.is_zonal and g.is_zonal):
        raise RequiresZonal("pointwise check runs on zonal data")
    if not times:
        raise ValueError("need at least one time")
    sign = -1.0 if ((n - 1) // 2) % 2 else 1.0
    cs = [math.cos(math.pi * j / (c_count - 1)) for j in range(c_count)]
    worst = 0.0
    for t in times:
        u_here = evolve(data, t)
        u_there = evolve(data, t + math.pi)
        for c in cs:
            r = abs(zonal_value(u_there, -c) - sign * zonal_value(u_here, c))
            worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# the two-snapshot problem on the sphere


def sphere_two_snapshot_solve(
    f0: SphereField,
    falpha: SphereField,
    alpha: float | Fraction,
    max_degree: int = 256,
) -> SolveReport:
    """Velocity g from u at times 0 and alpha, coefficient by coefficient:
    g_{l,m} = (falpha_{l,m} - cos(w alpha) f0_{l,m}) / (sin(w alpha)/w).

    Fraction alpha (meaning alpha pi) gets exact zero detection, so rational
    multiples of pi report their kernel exactly; float alpha uses the 1e-14
    sine threshold.  Data on a zero Schur constant either obstructs or is
    free, as in the flat case."""
    top = max(f0.max_degree, falpha.max_degree)
    if top > max_degree:
        raise ValueError(f"data degree {top} exceeds max_degree {max_degree}")
    n = f0.n

    def row(key: tuple[int, int], a: complex, b: complex) -> tuple[tuple[Equation], float]:
        s, is_zero = schur_sin(n, key[0], alpha)
        return ((s, is_zero, b - schur_cos(n, key[0], alpha) * a),), 1.0

    def verify(g: SphereField) -> tuple[float, str]:
        return max_abs_amp(subtract(falpha, evolve(CauchyData(f0, g), _alpha_to_float(alpha)))), ""

    return diagonal_solve((f0, falpha), (f0, falpha), row, "data on zero Schur constants has no preimage", verify)


def surjectivity_margin(
    alpha: float | Fraction, n: int, max_degree: int, exponent: int
) -> tuple[float, bool]:
    """Best constant C with |schur sin| >= C (1+l)^(-exponent) up to
    max_degree, and whether it is positive.  An exact zero (rational
    multiples of pi with the divisibility hit) forces (0, False)."""
    dim_Hl(n, 0)
    if not 1 <= max_degree <= 10**6:
        raise ValueError(f"max_degree must be in [1, 1e6], got {max_degree}")
    rows = []
    for l in range(max_degree + 1):
        v, is_zero = schur_sin(n, l, alpha)
        rows.append((l, 0.0 if is_zero else abs(v)))
    passes, c = slow_decay_check(rows, exponent)
    return c, passes


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


# ---------------------------------------------------------------------------
# serialization


def sphere_field_to_json(f: SphereField) -> dict:
    return {
        "n": f.n,
        "coeffs": [{"l": l, "m": m, "amp": [amp.real, amp.imag]} for l, m, amp in f.coeffs],
    }


def sphere_field_from_json(obj: dict) -> SphereField:
    try:
        n = int(obj["n"])
        entries = [
            (int(c["l"]), int(c["m"]), complex(float(c["amp"][0]), float(c["amp"][1])))
            for c in obj["coeffs"]
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed sphere field object: {exc}") from exc
    return sphere_field(n, entries)


def save_sphere_field(f: SphereField, path: str) -> None:
    write_text_atomic(path, json.dumps(sphere_field_to_json(f), indent=2) + "\n")


def load_sphere_field(path: str) -> SphereField:
    with open(path, encoding="utf-8") as fh:
        return sphere_field_from_json(json.load(fh))
