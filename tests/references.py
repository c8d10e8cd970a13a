"""Reference forms that the library's faster code is pinned against.

Each is the plain per-key, per-entry or per-row form of a rule the library
now runs a column at a time: the grid rows as fields, the union of several
fields' keys through one dict, the row-callback solve loop and the solvers
written on it (the Bezout solve on fields), the
entry-by-entry field loaders, the per-q odd-type scan, the per-row CSV
writer, the zonal sums with a recurrence restarted per degree, the
factorial-series convergents built afresh at each k, the joint sine
bound's sampled grid (streamed behind a Jordan screen, and with a sine at
every point, the grid the exact bracket's lower side is held below), the
surjectivity margin with a sine at every point, the
compatibility residual on fields, and the experiments' random draws
through `rng.uniform`.  Tests compare the library with these bit for bit.

The field operators that only tests use are here too: the difference of two
fields, the largest amplitude of a field, and a sphere field's amplitude at
one key and whether it is zonal.

It also keeps two sine enclosures that no library code calls, with their
tests: |sin(pi r)| for exact rational r, guard-banded, and exact rational
bounds on sin(pi delta) for small delta.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from wavesnap import diophantine, snapshots
from wavesnap.experiments import GUARD_SIN
from wavesnap.fields import (
    DimensionMismatch,
    Field,
    Flat,
    MultiplierSymbol,
    Sphere,
    _with_amps,
    apply_multiplier,
    field,
    linear_combine,
    union_columns,
)
from wavesnap.propagators import as_radians, cos_at, sine_at, symbol_Psi, symbol_S, symbol_Sprime
from wavesnap.snapshots import (
    CONSISTENCY_TOL,
    OBSTRUCTION_AMP_TOL,
    RATIONAL_GATE_TOL,
    STATUS_NONUNIQUE,
    STATUS_OBSTRUCTED,
    STATUS_UNIQUE,
    CauchyData,
    InvalidTime,
    SolveReport,
    _parts,
    _step,
    evolve,
    evolve_grid,
    snapshot_grid_columns,
)
from wavesnap.sphere import RequiresOddDimension, RequiresZonal, dim_Hl, frequency

# ---------------------------------------------------------------------------
# field operators for the tests


def subtract(a, b):
    return linear_combine([1.0, -1.0], [a, b])


def max_abs_amp(f):
    return max(map(abs, f.amps), default=0.0)


def is_zonal(f):
    """Whether every key of the sphere field f is on the zonal line m = 1."""
    return all(m == 1 for _, m in f.keys)


def sphere_amplitude(f, l, m):
    """The amplitude of the sphere field f at (l, m), 0j off its support."""
    i = bisect.bisect_left(f.keys, (l, m))
    return f.amps[i] if i < len(f.keys) and f.keys[i] == (l, m) else 0j


def compatibility_residual_on_fields(fa, fb, fc, a, b, c):
    """The residual of S_{c-b} fa + S_{a-c} fb + S_{b-a} fc, built as fields:
    each field through `apply_multiplier`, the three through `linear_combine`.
    A product that leaves the float range, its symbol value finite, raises
    OverflowError naming the symbol, the amplitude and the frequency."""
    for t in (a, b, c):
        snapshots._check_finite(t)

    def applied(f, t):
        symbol = symbol_S(t)
        try:
            return apply_multiplier(f, symbol)
        except ValueError:  # not SymbolUndefined: every value is finite
            lam, amp = next((lam, amp) for lam, amp in zip(f.freqs, f.amps) if not cmath.isfinite(symbol(lam) * amp))
            raise OverflowError(
                f"{symbol.label} times the amplitude {amp!r} at frequency {lam!r} leaves the float range"
            ) from None

    r = linear_combine([1.0, 1.0, 1.0], [applied(fa, c - b), applied(fb, a - c), applied(fc, b - a)])
    return max_abs_amp(r)


# ---------------------------------------------------------------------------
# the grids' rows as fields


def _grid_rows(like, grid):
    """The rows of a grid as fields of like's basis, each amplitude folded and
    dropped where zero as `_with_amps` does."""
    keys, freqs, re, im = grid
    return [_with_amps(like, keys, freqs, list(map(complex, r, i))) for r, i in zip(re.tolist(), im.tolist())]


def evolve_series(data, times):
    """u_t for each t in `times`: the rows of `evolve_grid` on a batch of one datum."""
    (keys,), (freqs,), re, im = evolve_grid([data], [list(times)])
    return _grid_rows(data.position, (keys, freqs, re, im))


def snapshot_grid(ua, ub, a, b, ms):
    """`general_integer_snapshot` at each m in `ms` as one grid over the union
    of the snapshots' keys, through `snapshot_grid_columns`."""
    s = _step(a, b)
    keys, freqs, (y, x) = union_columns((ub, ua))
    return (keys, freqs, *snapshot_grid_columns(s, freqs, _parts(x), _parts(y), ms))


def snapshot_series(ua, ub, a, b, ms):
    """u at each time a + m (b - a), m in `ms`: the rows of `snapshot_grid`."""
    return _grid_rows(ub, snapshot_grid(ua, ub, a, b, ms))


# ---------------------------------------------------------------------------
# entry-by-entry canonicalization and loading


def entry_columns(entries):
    """(key, frequency, amplitude) entries merged through a dict: equal keys
    sum in entry order from 0j, keys come out sorted, zero sums dropped."""
    merged, freq = {}, {}
    for key, lam, amp in entries:
        if not cmath.isfinite(amp):
            raise ValueError(f"non-finite amplitude {amp!r}")
        merged[key] = merged.get(key, 0j) + amp
        freq[key] = lam
    keys = tuple(key for key in sorted(merged) if merged[key] != 0)
    return keys, tuple(map(freq.__getitem__, keys)), tuple(map(merged.__getitem__, keys))


def _typed(v, kind, name):
    if type(v) not in ((int, float) if kind == "number" else (int,)):
        raise TypeError(f"{name} {v!r} is not a JSON {kind}")
    return v


def _clean_xi(dim, xi):
    if len(xi) != dim:
        raise DimensionMismatch(f"frequency {tuple(xi)} does not have dim {dim}")
    out = []
    for v in xi:
        v = float(_typed(v, "number", "xi component")) + 0.0
        if not math.isfinite(v):
            raise ValueError(f"non-finite frequency component {v!r}")
        out.append(v)
    return tuple(out)


def _amp(pair):
    amp = complex(float(_typed(pair[0], "number", "amp part")), float(_typed(pair[1], "number", "amp part")))
    if len(pair) != 2:
        raise TypeError(f"amp {pair!r} is not an [re, im] pair")
    return amp


def _flat(dim, rows):
    entries = [(m["xi"], _amp(m["amp"])) for m in rows]
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")

    def validated():
        for xi, amp in entries:
            key = _clean_xi(dim, xi)
            yield key, math.hypot(*key), complex(amp)

    return Field(Flat(dim), *entry_columns(validated()))


def _sphere(n, rows):
    entries = [(c["l"], c["m"], _amp(c["amp"])) for c in rows]
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")

    def validated():
        for l, m, amp in entries:
            l, m = _typed(l, "integer", "l"), _typed(m, "integer", "m")
            d = dim_Hl(n, l)
            if not 1 <= m <= d:
                raise ValueError(f"order m={m} outside [1, {d}] for degree l={l}, n={n}")
            yield (l, m), frequency(n, l), complex(amp)

    return Field(Sphere(n), *entry_columns(validated()))


def field_from_json_by_entry(obj):
    """`field_from_json`, reading the document one entry at a time."""
    try:
        if ("dim" in obj) == ("n" in obj):
            raise ValueError("a field document has exactly one of the members 'dim' and 'n'")
        if "dim" in obj:
            return _flat(_typed(obj["dim"], "integer", "dim"), obj["modes"])
        return _sphere(_typed(obj["n"], "integer", "n"), obj["coeffs"])
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed field document: {exc}") from exc


# ---------------------------------------------------------------------------
# the row-callback solve loop and the solvers on it


def union_support(fields):
    """The sorted union of the fields' keys and its frequency column, through one dict."""
    freq = {}
    for f in fields:
        freq.update(zip(f.keys, f.freqs))
    keys = tuple(sorted(freq))
    return keys, tuple(map(freq.__getitem__, keys))


def aligned(own_keys, values, keys):
    """`values`, given at `own_keys`, read at `keys` (a superset), 0j elsewhere."""
    return list(map(dict(zip(own_keys, values)).get, keys, itertools.repeat(0j)))


def row_diagonal_solve(support, rhs, row, kernel_note, verify=None):
    """Solve for g key by key over the union of the keys of `support`;
    `row(key, lam, *amps)` returns the key's (s, zero, r) equations and a gain.
    Each key's g comes from its nonzero equation with the largest |s|, the
    first on ties, and its conditioning is the gain over that |s|."""
    for f in support[1:]:
        support[0].check_same_basis(f)
    keys, freqs = union_support(support)
    entries, kernel, failures = [], [], []
    obstruction = conditioning = inconsistency = 0.0
    for key, lam, *amps in zip(keys, freqs, *(aligned(f.keys, f.amps, keys) for f in rhs)):
        eqs, gain = row(key, lam, *amps)
        live = [i for i, (_, zero, _) in enumerate(eqs) if not zero]
        if not live:
            kernel.append(key)
            obstruction = max(obstruction, *(abs(r) for _, _, r in eqs))
            continue
        i = max(live, key=lambda i: abs(eqs[i][0]))  # max keeps the first of equal |s|
        g = eqs[i][2] / eqs[i][0]
        cond = gain / abs(eqs[i][0])
        inc = max((abs(g * s - r) for j, (s, _, r) in enumerate(eqs) if j != i), default=0.0)
        key_tol = CONSISTENCY_TOL * (1.0 + cond)
        if inc > key_tol:
            failures.append(f"cross-equation inconsistency {inc:.3e} at key {key} exceeds {key_tol:.3e}")
        conditioning = max(conditioning, cond)
        inconsistency = max(inconsistency, inc)
        entries.append((key, lam, g))
    kernel = tuple(kernel)
    if obstruction > OBSTRUCTION_AMP_TOL:
        return SolveReport(STATUS_OBSTRUCTED, None, obstruction, conditioning, kernel, kernel_note)
    if failures:
        return SolveReport(STATUS_OBSTRUCTED, None, inconsistency, conditioning, kernel, failures[0])
    tol = CONSISTENCY_TOL * (1.0 + conditioning)
    keys, freqs, amps = entry_columns(entries)
    g = replace(support[0], keys=keys, freqs=freqs, amps=amps)
    residual, note = verify(g) if verify is not None else (inconsistency, "")
    if residual > tol:
        note = "post-verification failed" + (": " + note if note else "")
        return SolveReport(STATUS_OBSTRUCTED, None, residual, conditioning, kernel, note)
    return SolveReport(STATUS_NONUNIQUE if kernel else STATUS_UNIQUE, g, residual, conditioning, kernel, note)


def _equation(t, w, f0_amp, ft_amp):
    s, zero = sine_at(t, w)
    return s, zero, ft_amp - cos_at(t, w) * f0_amp


def two_snapshot_solve(f0, ft, t=1.0, kernel_note=None):
    if kernel_note is None:
        kernel_note = f"data at kernel frequencies of S_{as_radians(t):g} has no preimage"

    def verify(g):
        return max_abs_amp(subtract(ft, evolve(CauchyData(f0, g), t))), ""

    return row_diagonal_solve(
        (f0, ft), (f0, ft), lambda key, w, a, b: ((_equation(t, w, a, b),), 1.0), kernel_note, verify
    )


def sphere_two_snapshot_solve(f0, falpha, alpha):
    return two_snapshot_solve(f0, falpha, alpha, "data on zero Schur constants has no preimage")


def three_snapshot_solve(f0, f1, falpha, alpha):
    if isinstance(alpha, Fraction):
        if alpha <= 0 or alpha == 1:
            raise InvalidTime(f"rational alpha must be positive and != 1, got {alpha}")
        return bezout_solve(f0, falpha, f1, alpha.numerator, alpha.denominator, 1.0 / alpha.denominator)
    alpha = float(alpha)
    if alpha in (0.0, 1.0) or not math.isfinite(alpha):
        raise InvalidTime(f"alpha must be finite and differ from both snapshot times, got {alpha}")

    def row(key, w, a, b, c):
        return (_equation(1.0, w, a, b), _equation(alpha, w, a, c)), 1.0

    support = (f0, f1, falpha)
    return row_diagonal_solve(support, support, row, "data at shared kernel frequencies has no preimage")


def rational_reconstruct(f0, fp, fq, p, q):
    snapshots._validate_pq(p, q)
    return bezout_solve(f0, fp, fq, p, q, 1.0)


def symbol_product(a, b):
    return MultiplierSymbol(f"({a.label})*({b.label})", lambda lam: a.fn(lam) * b.fn(lam))


def psi_gate_residual(va, vb, p, q, unit):
    """Residual of Psi_{q,u} va - Psi_{p,u} vb on the windows va = fa - S'_{pu} f0
    and vb = fb - S'_{qu} f0, which vanishes on genuine snapshots at 0, pu, qu."""
    lhs = apply_multiplier(va, symbol_Psi(q, unit))
    rhs = apply_multiplier(vb, symbol_Psi(p, unit))
    return max_abs_amp(subtract(lhs, rhs))


def bezout_solve(f0, fa, fb, p, q, unit):
    va = subtract(fa, apply_multiplier(f0, symbol_Sprime(p * unit)))
    vb = subtract(fb, apply_multiplier(f0, symbol_Sprime(q * unit)))
    gate = psi_gate_residual(va, vb, p, q, unit)
    if gate > RATIONAL_GATE_TOL:
        note = f"snapshot compatibility residual {gate:.3e} exceeds {RATIONAL_GATE_TOL:.1e}"
        return SolveReport(STATUS_OBSTRUCTED, None, gate, 0.0, (), note)
    k, l = snapshots.bezout(p, q)
    sym_a = symbol_product(symbol_Psi(k, p * unit), symbol_Sprime(l * q * unit))
    sym_b = symbol_product(symbol_Psi(l, q * unit), symbol_Sprime(k * p * unit))
    num = linear_combine([1.0, 1.0], [apply_multiplier(va, sym_a), apply_multiplier(vb, sym_b)])

    def row(xi, lam, a, b, c):
        su, zero = sine_at(unit, lam)
        if zero:
            return ((0.0, True, a), (0.0, True, b)), 1.0
        return ((su, False, c),), abs(sym_a(lam)) + abs(sym_b(lam))

    def verify(g):
        data = CauchyData(f0, g)
        ra = max_abs_amp(subtract(fa, evolve(data, p * unit)))
        rb = max_abs_amp(subtract(fb, evolve(data, q * unit)))
        return max(ra, rb), f"bezout k={k}, l={l}; residual at t={p * unit:g}: {ra:.3e}, t={q * unit:g}: {rb:.3e}"

    return row_diagonal_solve(
        (f0, fa, fb), (va, vb, num), row, "kernel-mode data admits no wave through all three snapshots", verify
    )


# ---------------------------------------------------------------------------
# zonal evaluation, one recurrence per degree


def gegenbauer_phi(n, l, c):
    """phi_l(c), the recurrence run from degree 0 to l."""
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {c}")
    dim_Hl(n, l)
    if l == 0:
        return 1.0
    nu = 0.5 * (n - 1)
    prev, cur = 1.0, 2.0 * nu * c
    for j in range(1, l):
        prev, cur = cur, (2.0 * (j + nu) * c * cur - (j + 2.0 * nu - 1.0) * prev) / (j + 1)
    return cur / math.comb(l + n - 2, l)


def zonal_value(f, c):
    """sum amp sqrt(dim_Hl) phi_l(c) over the keys, each phi_l on its own."""
    if not is_zonal(f):
        raise RequiresZonal("field has coefficients outside the zonal line m = 1")
    total = 0j
    for (l, _), amp in zip(f.keys, f.amps):
        total += amp * math.sqrt(dim_Hl(f.basis.n, l)) * gegenbauer_phi(f.basis.n, l, c)
    return total


def huygens_antipodal_check(f0, g, times, c_count=20):
    """`sphere.huygens_antipodal_check` with one `zonal_value` per point and field."""
    data = CauchyData(f0, g)
    n = f0.basis.n
    if n % 2 == 0:
        raise RequiresOddDimension(f"antipodal identity needs odd n, got {n}")
    if not (is_zonal(f0) and is_zonal(g)):
        raise RequiresZonal("pointwise check runs on zonal data")
    if not times:
        raise ValueError("need at least one time")
    if c_count < 2:
        raise ValueError(f"c_count must be at least 2, got {c_count}")
    sign = -1.0 if ((n - 1) // 2) % 2 else 1.0
    cs = [math.cos(math.pi * j / (c_count - 1)) for j in range(c_count)]
    worst = 0.0
    for t in times:
        u_here = evolve(data, t)
        u_there = evolve(data, t + math.pi)
        for c in cs:
            worst = max(worst, abs(zonal_value(u_there, -c) - sign * zonal_value(u_here, c)))
    return worst


# ---------------------------------------------------------------------------
# the per-q odd-type scan and the per-row CSV writer


def odd_type_scan(big_n, d, t, qmax):
    """`diophantine._odd_type_scan` as one exact integer step per odd q."""
    scale = t // d
    min_ratio, worst_q, violations, count = math.inf, 0, [], 0
    for q in range(65, qmax + 1, 2):
        count += 1
        r = q * big_n % d
        num = (min(r, d - r) * scale - q) * q**3
        ratio = num / t
        if ratio < min_ratio:
            min_ratio, worst_q = ratio, q
        if num <= t:
            violations.append(q)
    return count, min_ratio, worst_q, tuple(violations)


def csv_body(columns, rows):
    """The header line and rows of `cli._emit_csv`, one `%` per row."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + "".join(line % tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# the exact scans with every value computed: per-k convergents, the full
# joint-bound grid and the full margin scan; and the joint bound's sampled
# grid streamed behind a Jordan screen

JOINT_SAMPLES = 200_000  # the joint sine bound's uniform grid, besides its points near the zeros
JOINT_BLOCK = 16_384  # grid points the joint bound's Jordan screen scores per numpy pass


def convergent_pair(x, k):
    """The first `Convergent` of `diophantine.convergent_chain(x, k)`, from its
    sums at each k, as before the chain."""
    if x.base is None or x.depth is None:
        raise ValueError("convergent_pair needs a factorial-series construction")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= x.depth:
        raise diophantine.PrecisionExhausted(
            f"residue at k={k} needs series depth > {k}, have {x.depth}; "
            f"deepening past {diophantine.FACTORIAL_DEPTH_CAP} is not supported"
        )
    b, err = x.base, x.err
    kf, top = math.factorial(k), math.factorial(x.depth)
    qk = b**kf
    pk = sum(c * b ** (kf - math.factorial(j)) for j, c in enumerate(x.coeffs[:k], start=1))
    tail = sum(c * b ** (top - math.factorial(j)) for j, c in enumerate(x.coeffs[k : x.depth], start=k + 1))
    if tail <= 0:
        raise diophantine.PrecisionExhausted(f"all stored digits beyond k={k} vanish; residue not certified positive")
    lo = tail * err.denominator
    return diophantine.Convergent(qk, pk, lo, lo + err.numerator * b**top, b ** (top - kf) * err.denominator)


def joint_sine_grid(alpha, exponent, x_max):
    """The points x of the joint sine bound's sampled grid in (0, x_max], and
    the score (|sin x| + |sin(alpha x)|) / x (1+x)^N at each, a sine at every
    point: JOINT_SAMPLES uniform points and nine near each zero of either sine."""
    import numpy as np

    a = float(alpha.value)
    xs = [np.linspace(x_max / JOINT_SAMPLES, x_max, JOINT_SAMPLES)]
    offsets = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.05, -0.05])
    for period in (math.pi, math.pi / a):
        k_max = int(x_max / period)
        if k_max >= 1:
            centers = np.arange(1, k_max + 1, dtype=float) * period
            xs.append((centers[:, None] + offsets[None, :]).ravel())
    x = np.concatenate(xs)
    x = x[(x > 0) & (x <= x_max)]
    with np.errstate(over="ignore"):  # a weight past the float range is inf, and sets no minimum
        return x, (np.abs(np.sin(x)) + np.abs(np.sin(a * x))) / x * (1.0 + x) ** exponent


def joint_sine_lower_bound(alpha, exponent, x_max):
    """C of `joint_sine_grid_check`, the least score of the whole grid (its
    argument checks left out)."""
    return float(joint_sine_grid(alpha, exponent, x_max)[1].min())


def joint_sine_grid_check(alpha, exponent, x_max):
    """A sampled joint sine bound beside `diophantine.joint_sine_lower_bound_check`'s
    exact bracket: (C, C > 0) with C = min over (0, x_max] of
    (|sin x| + |sin(alpha x)|) / x * (1+x)^exponent.

    Requires a certified irrationality measure: for rational or Liouville
    alpha no such positive constant exists, so those classes are rejected.
    The grid, JOINT_SAMPLES uniform points, is refined near the zeros of
    both sines, where the minimum must occur.  It is built and scored
    JOINT_BLOCK points at a time, so its memory does not grow with x_max.
    It has about x_max (1 + |alpha|) / pi zeros, nine points each, so the
    time does: x_max max(1, |alpha|) is capped at diophantine.JOINT_X_CAP, where it
    takes about 0.1 s.  Sines are taken only where the score's Jordan floor
    (`sine_floor` for each sine, less 4 ulp) is at most the least score so
    far, so C is the full grid's, a minimum over the same points.
    A grid on which every weight (1+x)^exponent leaves the float range has
    no finite score, and raises OverflowError.
    """
    if alpha.kind != diophantine.KIND_MEASURE_BOUNDED or alpha.measure_bound is None:
        raise ValueError(f"joint lower bound needs a certified irrationality measure, got kind={alpha.kind}")
    a = float(alpha.value)
    cap = diophantine.JOINT_X_CAP / max(1.0, abs(a))
    if not 0 < x_max <= cap:  # a NaN fails too
        raise ValueError(f"x_max must be in (0, {cap:g}] for alpha = {a:g}, got {x_max!r}")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    import numpy as np

    from wavesnap.propagators import sine_floor

    # the uniform family is np.linspace(start, x_max, JOINT_SAMPLES), element for element
    start = x_max / JOINT_SAMPLES
    delta = x_max - start
    step = delta / (JOINT_SAMPLES - 1)
    offsets = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.05, -0.05])
    per_block = JOINT_BLOCK // len(offsets)

    def blocks():  # the grid, at most JOINT_BLOCK points at a time
        for lo in range(0, JOINT_SAMPLES, JOINT_BLOCK):
            hi = min(lo + JOINT_BLOCK, JOINT_SAMPLES)
            i = np.arange(lo, hi, dtype=float)
            xb = (i / (JOINT_SAMPLES - 1) * delta if step == 0 else i * step) + start  # linspace's subnormal rule
            if hi == JOINT_SAMPLES:
                xb[-1] = x_max
            yield xb
        for period in (math.pi, math.pi / a):
            k_max = int(x_max / period)  # none below one period
            for lo in range(1, k_max + 1, per_block):
                centers = np.arange(lo, min(lo + per_block, k_max + 1), dtype=float) * period
                yield (centers[:, None] + offsets).ravel()

    def score(at):  # the minimum score over the points `at` of the block
        x_ = xb[at]
        return float(((np.abs(np.sin(x_)) + np.abs(np.sin(a * x_))) / x_ * weight[at]).min(initial=math.inf))

    c = math.inf
    for xb in blocks():
        xb = xb[(xb > 0) & (xb <= x_max)]
        if not len(xb):  # a subnormal x_max rounds whole blocks of the uniform family to 0
            continue
        # a weight past the float range is inf: its floor and score are inf, or nan where a floor or both
        # sines are 0, and neither lowers C (`floor <= c` is false at nan, and min(c, nan) keeps c)
        with np.errstate(over="ignore", invalid="ignore"):
            weight = (1.0 + xb) ** exponent
            floor = (sine_floor(xb) + sine_floor(a * xb)) / xb * weight * (1 - 2.0**-50)
        c = min(c, score(np.argmin(floor, keepdims=True)))  # the block's lowest floor first
        c = min(c, score(floor <= c))
    if c == math.inf:
        msg = f"the weight (1+x)^{exponent} leaves the float range at every grid point up to x = {x_max!r}"
        raise OverflowError(msg)
    return c, c > 0.0


def surjectivity_margin(alpha, n, max_degree, exponent):
    """`sphere.surjectivity_margin` as the full scan: every degree through
    `sine_at`, in increasing l."""

    def rows():
        for l in range(max_degree + 1):
            v, is_zero = sine_at(alpha, frequency(n, l))
            yield l, 0.0 if is_zero else abs(v)

    passes, c = diophantine.slow_decay_check(rows(), exponent)
    return c, passes


# ---------------------------------------------------------------------------
# the slowly-decreasing probe with each window's candidates built before its loop


def slowly_decreasing_probe(symbol, a_const, xi_max, samples):
    """The rows of `diophantine.slowly_decreasing_probe` on valid arguments, from a
    list of every candidate in each window (xi, the half-period points, the sweep)."""
    rows = []
    for i in range(samples):
        xi = xi_max * i / (samples - 1)
        window = a_const * math.log(2.0 + xi)
        threshold = (a_const + xi) ** (-a_const)
        cands = [xi]
        k_lo = math.ceil((xi - window) / math.pi - 0.5)
        k_hi = math.floor((xi + window) / math.pi - 0.5)
        cands.extend((k + 0.5) * math.pi for k in range(k_lo, k_hi + 1))
        cands.extend(xi - window + 2.0 * window * j / 32 for j in range(33))
        best_eta, best_val = None, 0.0
        for eta in cands:
            v = abs(symbol(abs(eta)))
            if v > best_val:
                best_eta, best_val = eta, v
            if v >= threshold:
                break
        rows.append(diophantine.SlowDecreaseRow(xi, threshold, best_eta if best_val >= threshold else None, best_val))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the experiments' random draws through rng.uniform and all()


def guarded_radius(rng, steps, lam_max):
    """`experiments._guarded_radius`: a uniform radius in [0.1, lam_max),
    drawn again while |sin(s lam)| < GUARD_SIN for a step s."""
    while True:
        lam = rng.uniform(0.1, lam_max)
        if all(abs(math.sin(s * lam)) >= GUARD_SIN for s in steps):
            return lam


def random_amp(rng):
    """`experiments._amp`: uniform real and imaginary parts in [-1, 1)."""
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def random_field(rng, dim, count, steps):
    """`experiments._random_field`: per mode a guarded radius, a Gaussian direction, an amplitude."""
    entries = []
    for _ in range(count):
        lam = guarded_radius(rng, steps, 4.0)
        direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.hypot(*direction)
        xi = tuple(lam * d / norm for d in direction)
        entries.append((xi, random_amp(rng)))
    return field(dim, entries)


# ---------------------------------------------------------------------------
# sine enclosures

PI_LO = Fraction(math.pi)  # below pi, and diophantine.PI_HI above it


@dataclass(frozen=True)
class SineInterval:
    """Enclosure of |sin(pi r)| for exact rational r."""

    lo: float
    hi: float


def exact_sine_abs(theta_over_pi):
    """|sin(pi r)| for exact rational r.

    Range reduction (mod 1, fold to [0, 1/2]) is exact on Fractions, so
    integers give the exact zero interval and half-integers exactly one.
    Only the final sine of an argument in [0, pi/2] is floating point, and
    it gets a guard band covering libm rounding plus the pi rounding in the
    argument.
    """
    r = Fraction(theta_over_pi) % 1
    if r > Fraction(1, 2):
        r = 1 - r
    if r == 0:
        return SineInterval(0.0, 0.0)
    if r == Fraction(1, 2):
        return SineInterval(1.0, 1.0)
    arg = math.pi * float(r)
    val = math.sin(arg)
    band = 1e-15 + 5e-16 * arg
    return SineInterval(max(0.0, val - band), min(1.0, val + band))


def sin_pi_enclosure(delta_lo, delta_hi):
    """Exact rational enclosure of sin(pi delta) for 0 <= delta <= 1e-3,
    where delta itself is only known to lie in [delta_lo, delta_hi].
    Uses x - x^3/6 <= sin x <= x on rational pi bounds."""
    delta_lo, delta_hi = Fraction(delta_lo), Fraction(delta_hi)
    if not 0 <= delta_lo <= delta_hi:
        raise ValueError("need 0 <= delta_lo <= delta_hi")
    if delta_hi > Fraction(1, 1000):
        raise ValueError("enclosure only supports delta <= 1e-3")
    hi = diophantine.PI_HI * delta_hi
    lo = PI_LO * delta_lo * (1 - (diophantine.PI_HI * delta_hi) ** 2 / 6)
    if lo < 0:
        lo = Fraction(0)
    return lo, hi
