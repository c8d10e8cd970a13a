"""Exact rational arithmetic for small-denominator questions.

Numbers whose fine arithmetic nature matters (rationals, quadratic
irrationals of measure 2, factorial-series Liouville constructions) travel
as `NumberClass` values, an exact `fractions.Fraction` with an exact error
bound, so that downstream classification never has to guess from a float.

Only results decided in exact integers are called certified: the odd-type
margins (`odd_type_verifier` rechecks each candidate q in integers), the
convergent bounds of a factorial series (`convergent_chain`: one big
product per k, and `doubled_liouville_bound` on its first) and,
through them, the `certified` flag of `snapshots.liouville_obstruction_demo`.
So is the joint sine bound's bracket (`joint_sine_lower_bound_check`): its
lower side from the best-approximation lemma (`convergent_floor`) and a
partial-quotient bound, its upper side from the convergents, both exact
`Fraction`s.  A small-denominator table detects its zero rows exactly, but
its nonzero sines are float64 sines.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .fields import MultiplierSymbol
from .propagators import RECHECK_WINDOW, PrecisionExhausted, exact_residue, residue_sines

if TYPE_CHECKING:
    import numpy as np

KIND_RATIONAL = "rational"
KIND_MEASURE_BOUNDED = "measure-bounded"
KIND_LIOUVILLE = "liouville"
KIND_ODD_TYPE = "odd-type-liouville"

FACTORIAL_DEPTH_CAP = 7  # 8! exponents already exceed 1e40000; deeper is pointless
JOINT_X_CAP = 1e6  # x_max max(1, |alpha|) in the joint sine bound: the range its upper side's witnesses come from
JOINT_WEIGHT_BITS = 2**16  # the joint sine bound's exact weights (1+x)^N, x <= x_max, stay below this many bits

PI_HI = Fraction(math.pi) + Fraction(1, 2**52)  # above pi: math.pi undershoots by about 1.22e-16


class InvalidCoefficient(ValueError):
    """A factorial-series digit outside the allowed range."""


class Unclassifiable(ValueError):
    """The symbolic number class carries no certificate that decides the case."""


# ---------------------------------------------------------------------------
# number classes


@dataclass(frozen=True)
class NumberClass:
    """A real number together with what is certified about it.

    `value` approximates the number with absolute error at most `err_bound`
    (None means the value is exact).  `kind` states the arithmetic nature:

      rational           exact fraction
      measure-bounded    irrational with irrationality measure <= measure_bound
      liouville          factorial-series construction sum c_j base^(-j!)
      odd-type-liouville ternary factorial series, odd-denominator margins

    `quotient_bound` is A where every partial quotient a_i, i >= 1, of |x| is
    at most A (None: no such bound is certified).
    For factorial series, `base`, `coeffs` and `depth` record the truncated
    construction.  `half` optionally carries the class of value/2, which is
    what the even-dimensional sphere classification consumes.
    """

    kind: str
    value: Fraction
    err_bound: Fraction | None = None
    measure_bound: float | None = None
    quotient_bound: int | None = None
    base: int | None = None
    coeffs: tuple[int, ...] = ()
    depth: int | None = None
    half: NumberClass | None = None
    label: str = ""

    @property
    def err(self) -> Fraction:
        return Fraction(0) if self.err_bound is None else self.err_bound

    def __str__(self) -> str:
        return self.label or f"{self.kind}:{self.value}"


def rational_number(x: Fraction | int | str) -> NumberClass:
    value = Fraction(x)
    return NumberClass(KIND_RATIONAL, value, label=str(value))


def _convergents(quotients: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The convergents (p_k, q_k) of [a_0; a_1, ...]: p_k = a_k p_{k-1} + p_{k-2},
    and the same for q, from p_{-1}/q_{-1} = 1/0 and p_{-2}/q_{-2} = 0/1."""
    p2, p1, q2, q1 = 0, 1, 1, 0
    for a in quotients:
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        yield p1, q1


def _quadratic_class(a0: int, a: int, depth: int, label: str) -> NumberClass:
    """The quadratic irrational [a0; a, a, ...] at convergent `depth`.
    Convergents p/q of a continued fraction satisfy |x - p/q| < 1/q^2, and
    quadratic irrationals have irrationality measure exactly 2."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    *_, (p, q) = _convergents([a0] + [a] * depth)
    return NumberClass(
        KIND_MEASURE_BOUNDED,
        Fraction(p, q),
        err_bound=Fraction(1, q * q),
        measure_bound=2.0,
        quotient_bound=a,
        label=label,
    )


def sqrt2_class(depth: int = 40) -> NumberClass:
    """sqrt(2) via its continued fraction [1; 2, 2, ...]."""
    return _quadratic_class(1, 2, depth, "sqrt2")


def golden_class(depth: int = 45) -> NumberClass:
    """The golden ratio via [1; 1, 1, ...] (ratios of Fibonacci numbers)."""
    return _quadratic_class(1, 1, depth, "golden")


def liouville_truncation(base: int, coeffs: Sequence[int] | None, depth: int) -> NumberClass:
    """Truncation of sum_j c_j base^(-j!) at j = depth.

    Digits c_j lie in {1, ..., base-1}; base 3 additionally admits 0, which is
    the ternary rule whose odd-denominator margins stay provably large.  No
    coeffs means every digit is 1, formed only once depth is within the cap.
    The discarded tail is below base^(-(depth+1)!+1), stored as the exact error.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > FACTORIAL_DEPTH_CAP:
        raise PrecisionExhausted(f"factorial depth {depth} exceeds cap {FACTORIAL_DEPTH_CAP}")
    coeffs = (1,) * depth if coeffs is None else coeffs
    if len(coeffs) < depth:
        raise InvalidCoefficient(f"need {depth} digits, got {len(coeffs)}")
    lo = 0 if base == 3 else 1
    digits = tuple(int(c) for c in coeffs[:depth])
    for c in digits:
        if not lo <= c <= base - 1:
            raise InvalidCoefficient(f"digit {c} outside [{lo}, {base - 1}] for base {base}")
    value = sum(Fraction(c, base ** math.factorial(j)) for j, c in enumerate(digits, start=1))
    tail = Fraction(1, base ** (math.factorial(depth + 1) - 1))
    kind = KIND_ODD_TYPE if base == 3 else KIND_LIOUVILLE
    return NumberClass(
        kind,
        value,
        err_bound=tail,
        base=base,
        coeffs=digits,
        depth=depth,
        label=f"liouville(base={base}, depth={depth})",
    )


def doubled(half: NumberClass) -> NumberClass:
    """The class of 2x given the class of x, keeping x as provenance."""
    if half.kind == KIND_RATIONAL:
        kind = KIND_RATIONAL
    elif half.kind in (KIND_LIOUVILLE, KIND_ODD_TYPE):
        kind = KIND_LIOUVILLE  # doubling preserves Liouville, not the series shape
    else:
        kind = KIND_MEASURE_BOUNDED
    return NumberClass(
        kind,
        2 * half.value,
        err_bound=None if half.err_bound is None else 2 * half.err_bound,
        measure_bound=half.measure_bound,
        half=half,
        label=f"2*({half})",
    )


# ---------------------------------------------------------------------------
# continued fractions


@dataclass(frozen=True)
class ContinuedFraction:
    partial_quotients: tuple[int, ...]
    convergents: tuple[Fraction, ...]
    denominators: tuple[int, ...]  # of the convergents, nondecreasing


def _quotients(x: Fraction) -> Iterator[int]:
    """The partial quotients of x, by Euclid's algorithm on its numerator and
    denominator: a = floor(p / q), then p / q becomes q / (p - a q), until the
    remainder is 0."""
    p, q = x.numerator, x.denominator
    while q:
        a, r = divmod(p, q)
        yield a
        p, q = q, r


def _expansion(quots: Sequence[int]) -> ContinuedFraction:
    pairs = list(_convergents(quots))
    return ContinuedFraction(tuple(quots), tuple(Fraction(p, q) for p, q in pairs), tuple(q for _, q in pairs))


def continued_fraction(x: Fraction | int, max_terms: int) -> ContinuedFraction:
    """Partial quotients and convergents of x, at most `max_terms` of them.
    Rational input terminates exactly."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    return _expansion([a for _, a in zip(range(max_terms), _quotients(Fraction(x)))])  # any int max_terms


def shared_continued_fraction(x: Fraction, y: Fraction) -> ContinuedFraction:
    """The partial quotients, and their convergents, that every number between
    x and y shares: the common prefix of `continued_fraction` of x and of y,
    up to the first quotient where they differ or the last of an expansion
    that ends.  The numbers whose expansion starts with a given prefix form
    an interval, so a number between two that share a prefix shares it too."""
    pairs = itertools.takewhile(lambda ab: ab[0] == ab[1], zip(_quotients(x), _quotients(y)))
    return _expansion([a for a, _ in pairs])


def convergent_floor(cf: ContinuedFraction, k: int) -> Fraction | None:
    """The best-approximation lemma (Khinchin, Continued Fractions, Thms 16-17;
    Hardy & Wright, ch. X): for every gamma whose expansion starts with the
    partial quotients of `cf`, and 0 < k < q_{j+1}, ||k gamma|| >= |q_j gamma
    - p_j| > 1 / (q_j + q_{j+1}).  Returns that floor at the least such j,
    the largest, or None for k past the prefix's last denominator."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    qs = cf.denominators
    j = bisect.bisect_right(qs, k, 1)  # the least j >= 1 with q_j > k
    return Fraction(1, qs[j - 1] + qs[j]) if j < len(qs) else None


@dataclass(frozen=True)
class MuEstimate:
    index: int
    q: int
    mu: float


def irrationality_exponent_probe(x: NumberClass, depth: int) -> tuple[MuEstimate, ...]:
    """Certified lower bounds mu_k with |x - p_k/q_k| <= q_k^(-mu_k), read off
    the convergents of x.value.

    The bound uses gap + err, so it holds for the true number behind x, not
    just the stored approximation.  Convergents whose gap is not resolved by
    the certified error raise PrecisionExhausted.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    cf = continued_fraction(x.value, depth + 2)
    out: list[MuEstimate] = []
    for k, conv in enumerate(cf.convergents):
        if len(out) >= depth:
            break
        if conv == x.value:
            break  # reached the value itself; later gaps are all zero
        q = conv.denominator
        if q < 2:
            continue
        gap = abs(x.value - conv)
        if gap <= 2 * x.err:  # gap > 0, so an exact x (err 0) never raises
            raise PrecisionExhausted(
                f"gap at q={q} is {float(gap):.3e}, within the certified error {float(x.err):.3e}"
            )
        total = gap + x.err
        # mu = -log(total)/log(q) on exact integers, safe far beyond float range
        mu = (math.log(total.denominator) - math.log(total.numerator)) / math.log(q)
        out.append(MuEstimate(k, q, mu))
    return tuple(out)


class Convergent(NamedTuple):
    """The canonical convergent p / q = p_k / q_k of a factorial series,
    q = base^(k!), and exact bounds lo / den <= delta <= hi / den on the
    fractional residue delta = q x - p of the untruncated number:
    delta_lo = sum_{j > k} c_j base^(k! - j!) > 0 and delta_hi = delta_lo +
    q err.  The bounds share one denominator, den = base^(depth! - k!) times
    the denominator of err, so they are built and compared in integers,
    never reduced by a gcd."""

    q: int
    p: int
    lo: int
    hi: int
    den: int


def depth_exhausted(k: int, depth: int) -> PrecisionExhausted:
    """The error for a convergent at k >= depth, which a series truncated at
    `depth` cannot certify."""
    return PrecisionExhausted(
        f"residue at k={k} needs series depth > {k}, have {depth}; "
        f"deepening past {FACTORIAL_DEPTH_CAP} is not supported"
    )


def convergent_chain(x: NumberClass, k: int) -> Iterator[Convergent]:
    """The `Convergent` of the factorial series x at j = k, k-1, ..., 1: the
    first from the sums, each next by den_{j-1} = den_j base^(j! - (j-1)!)
    and lo_{j-1} = lo_j + c_j den_j (hi alike).  k >= depth, or a tail
    vanishing at k, raises PrecisionExhausted before anything is yielded."""
    if x.base is None or x.depth is None:
        raise ValueError("convergent_chain needs a factorial-series construction")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= x.depth:
        raise depth_exhausted(k, x.depth)
    b, err = x.base, x.err
    kf, top = math.factorial(k), math.factorial(x.depth)
    pk = sum(c * b ** (kf - math.factorial(j)) for j, c in enumerate(x.coeffs[:k], start=1))
    tail = sum(c * b ** (top - math.factorial(j)) for j, c in enumerate(x.coeffs[k : x.depth], start=k + 1))
    if tail <= 0:
        raise PrecisionExhausted(f"all stored digits beyond k={k} vanish; residue not certified positive")
    lo = tail * err.denominator
    hi, den = lo + err.numerator * b**top, b ** (top - kf) * err.denominator
    for j in range(k, 0, -1):
        yield Convergent(b**kf, pk, lo, hi, den)
        c, step, kf = x.coeffs[j - 1], kf - kf // j, kf // j  # c_j, j! - (j-1)!, (j-1)!
        pk, lo, hi, den = pk // b**step, lo + c * den, hi + c * den, den * b**step  # c_j < b^step


# ---------------------------------------------------------------------------
# small-denominator tables


@dataclass(frozen=True, eq=False)
class SmallDenominatorTable:
    """Columns of degrees l and values |sin(pi (l + shift) beta)|, with exact zero detection.

    `degrees` is an int64 and `values` a float64 numpy array (numpy's sin,
    math.sin bit for bit), both read-only, so tables compare by identity;
    `rows` pairs them as Python ints and floats.  `fitted_exponent` is a
    least-squares decay exponent of the lower envelope over dyadic blocks
    (inf when an exact zero appears)."""

    beta_label: str
    shift: Fraction
    degrees: np.ndarray
    values: np.ndarray
    zero_rows: tuple[int, ...]
    fitted_exponent: float | None

    @property
    def rows(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.degrees.tolist(), self.values.tolist()))


def small_denominator_sequence(beta: NumberClass, shift: Fraction | int, count: int) -> SmallDenominatorTable:
    """Tabulate |sin(pi (l + shift) beta)| for l up to `count`.

    shift is 0 (whole-frequency sequences) or 1/2 (the half-integer spectrum
    of even-dimensional spheres).  For shift 0 the trivial l = 0 row is
    skipped.  Raises PrecisionExhausted when beta's certified error, scaled
    by pi (count + shift), could move any row by more than 1e-12.

    Each row reduces (l + shift) beta exactly to the residue r / 2q of
    `exact_residue`, folds r into [0, q] and takes np.sin of pi r / 2q
    (`residue_sines`); the row is an exact zero iff r = 0, and a nonzero
    sine that underflows to 0.0 raises InvalidTime.
    """
    import numpy as np

    shift = Fraction(shift)
    if shift.denominator not in (1, 2) or not 0 <= shift < 1:
        raise ValueError(f"shift must be 0 or 1/2, got {shift}")
    if not 1 <= count <= 10**6:
        raise ValueError(f"count must be in [1, 1e6], got {count}")
    if PI_HI * (count + shift) * beta.err > Fraction(1, 10**12):
        raise PrecisionExhausted(
            f"certified error {float(beta.err):.3e} cannot support {count} rows at 1e-12 resolution"
        )
    start = 1 if shift == 0 else 0
    l = np.arange(start, count + 1, dtype=np.int64)
    r, q2 = exact_residue(beta.value, 2 * l + int(2 * shift))
    r = np.minimum(r % q2, -r % q2)  # |sin(pi r / 2q)| has period 2q and mirrors about q
    values, zeros = residue_sines(beta.value, r, q2)
    l.setflags(write=False)
    values.setflags(write=False)
    zeros = tuple(l[zeros].tolist())
    return SmallDenominatorTable(
        beta_label=str(beta),
        shift=shift,
        degrees=l,
        values=values,
        zero_rows=zeros,
        fitted_exponent=math.inf if zeros else _envelope_exponent(values[1 - start :]),
    )


def _envelope_exponent(values) -> float | None:
    """Least-squares decay exponent of the minima of `values`, a float64 array
    of the rows l = 1, 2, ... in order, over the dyadic blocks [2^j, 2^(j+1))."""
    import numpy as np

    if len(values) < 2:
        return None
    mins = np.minimum.reduceat(values, 2 ** np.arange(len(values).bit_length()) - 1).tolist()
    xs = [j * math.log(2.0) for j in range(len(mins))]
    ys = [math.log(v) for v in mins]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return -sxy / sxx


def slow_decay_check(rows: Iterable[tuple[int, float]], exponent: int) -> tuple[bool, float]:
    """Whether the rows admit a bound value >= C (1+l)^(-exponent) with C > 0.
    Returns (passes, C) where C is the best constant; an exact zero row
    forces (False, 0).  The rows are read once, so a generator serves; the
    first whose weight (1+l)^exponent leaves the float range raises
    OverflowError naming its l."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    best = math.inf
    l = None
    for l, v in rows:
        if v == 0.0:
            return False, 0.0
        try:
            y = v * float(1 + l) ** exponent
        except OverflowError:
            raise OverflowError(f"the weight (1+l)^{exponent} leaves the float range at degree l = {l}") from None
        if y < best:
            best = y
    if l is None:
        raise ValueError("no rows")
    return best > 0.0, best


# ---------------------------------------------------------------------------
# joint lower bounds and slow decrease


@dataclass(frozen=True)
class JointBound:
    """inf over x > 0 of (|sin x| + |sin(alpha x)|) (1+x)^N / x is in [lower,
    upper], both exact: `lower` certified (0 where `certificate` says "none"),
    `upper` the score's bound at x = witness pi, or at x -> 0+ (witness None)."""

    lower: Fraction
    upper: Fraction
    witness: int | None
    certificate: str

    @property
    def passes(self) -> bool:
        return self.lower > 0

    @property
    def c(self) -> float:  # lower, rounded down
        f = float(self.lower)
        return math.nextafter(f, -math.inf) if f > self.lower else f

    @property
    def c_upper(self) -> float:  # upper, rounded up
        f = float(self.upper)
        return math.nextafter(f, math.inf) if f < self.upper else f


def joint_sine_lower_bound_check(alpha: NumberClass, exponent: int, x_max: float) -> JointBound:
    """The `JointBound` of alpha at N = exponent, from its continued fraction.

    Lower side, with A = alpha.quotient_bound and M = max(1, |alpha|): on
    (0, pi/2] Jordan's |sin x| >= 2x/pi gives 2/pi.  For x > pi/2 take
    k = round(x/pi) >= 1, so |x - k pi| <= pi/2: Jordan on both sines gives
    |sin x| + |sin(alpha x)| >= 2 ||k alpha|| / M, and `convergent_floor`
    with q_j <= k, q_{j+1} <= (A+1) q_j gives ||k alpha|| > 1/((A+2) k).  At
    N >= 2, (1+x)^N / x grows from x = 1 on, and with y = (k - 1/2) pi,
    (1+y)^N / (k y) >= pi (1+y)^(N-2) >= pi (1 + pi/2)^(N-2).  So x > pi/2
    scores at least 2 pi (1 + pi/2)^(N-2) / ((A+2) M), a power formed a
    factor at a time and only until it passes 2/pi.  With no A there is no
    certificate, nor at N < 2, where no C > 0 exists: by Dirichlet's
    theorem ||k alpha|| < 1/k infinitely often.

    Upper side: the x -> 0+ limit 1 + |alpha|, and at x = q pi for each
    convergent p/q of alpha.value with q pi <= x_max, sin x = 0 and
    |sin(alpha x)| <= pi |q alpha - p|.  pi enters through Fraction(math.pi)
    < pi < PI_HI, and alpha through value and err.

    Rational and Liouville classes are rejected, x_max max(1, |alpha|) is
    capped at JOINT_X_CAP, and an exponent whose exact weight (1+x)^N up to
    x_max would pass JOINT_WEIGHT_BITS bits raises OverflowError first.
    """
    if alpha.kind != KIND_MEASURE_BOUNDED or alpha.measure_bound is None:
        raise ValueError(f"joint lower bound needs a certified irrationality measure, got kind={alpha.kind}")
    a = float(alpha.value)
    cap = JOINT_X_CAP / max(1.0, abs(a))
    if not 0 < x_max <= cap:  # a NaN fails too
        raise ValueError(f"x_max must be in (0, {cap:g}] for alpha = {a:g}, got {x_max!r}")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    bits = exponent * (1 + int(x_max)).bit_length()
    if bits > JOINT_WEIGHT_BITS:
        raise OverflowError(f"the exact weight (1+x)^{exponent} up to x = {x_max!r} needs up to {bits} bits, "
                            f"past the cap of {JOINT_WEIGHT_BITS}")
    v, err, pi_lo = abs(alpha.value), alpha.err, Fraction(math.pi)
    if exponent < 2:
        lower, certificate = Fraction(0), f"none: exponent {exponent} < 2"
    elif alpha.quotient_bound is None:
        lower, certificate = Fraction(0), "none: no partial-quotient bound"
    else:
        lower = 2 / PI_HI
        beyond = 2 * pi_lo / ((alpha.quotient_bound + 2) * max(1, v + err))
        for _ in range(exponent - 2):
            if beyond >= lower:
                break
            beyond *= 1 + pi_lo / 2
        lower = min(lower, beyond)
        certificate = f"partial quotients <= {alpha.quotient_bound}"
    upper, witness = 1 + v + err, None
    for p, q in _convergents(_quotients(v)):
        if q * PI_HI > x_max:
            break
        at_q = PI_HI * (abs(q * v - p) + q * err) * (1 + q * PI_HI) ** exponent / (q * pi_lo)
        if at_q < upper:
            upper, witness = at_q, q
    return JointBound(lower, upper, witness, certificate)


@dataclass(frozen=True)
class SlowDecreaseRow:
    xi: float
    threshold: float
    eta: float | None
    value: float

    @property
    def ok(self) -> bool:
        return self.eta is not None


def slowly_decreasing_probe(
    symbol: MultiplierSymbol, a_const: float, xi_max: float, samples: int = 512
) -> tuple[SlowDecreaseRow, ...]:
    """For each sampled xi, search the window |eta - xi| <= A log(2 + xi) for
    a point with |symbol(|eta|)| >= (A + xi)^(-A).

    Candidates are xi itself, every half-period point (k + 1/2) pi in the
    window (where |sin| peaks), and a uniform sweep of the window.  One row
    per sample, recording the witness or the failure.  A non-finite A, a
    sampled xi that is not finite, or a threshold that underflows to 0 at
    the last xi (every window would pass) raises ValueError.  A positive
    threshold keeps A log(A + xi) below 745, so no window holds more than
    about a thousand candidates.
    """
    if a_const <= 0 or xi_max <= 0 or samples < 2:
        raise ValueError("need A > 0, xi_max > 0, samples >= 2")
    if not math.isfinite(a_const):
        raise ValueError(f"A must be finite, got {a_const!r}")
    last = xi_max * (samples - 1) / (samples - 1)  # the largest sampled xi
    if not math.isfinite(last):
        raise ValueError(f"sampled xi {last!r} is not finite")
    if (a_const + last) ** (-a_const) == 0.0:
        raise ValueError(f"the threshold (A + xi)^(-A) underflows to 0 at xi = {last!r}")
    rows: list[SlowDecreaseRow] = []
    for i in range(samples):
        xi = xi_max * i / (samples - 1)
        window = a_const * math.log(2.0 + xi)
        threshold = (a_const + xi) ** (-a_const)
        k_lo = math.ceil((xi - window) / math.pi - 0.5)
        k_hi = math.floor((xi + window) / math.pi - 0.5)
        cands = itertools.chain(  # built as the loop reads them: it usually stops at the first
            (xi,),
            ((k + 0.5) * math.pi for k in range(k_lo, k_hi + 1)),
            (xi - window + 2.0 * window * j / 32 for j in range(33)),
        )
        best_eta, best_val = None, 0.0
        for eta in cands:
            v = abs(symbol(abs(eta)))
            if v > best_val:
                best_eta, best_val = eta, v
            if v >= threshold:  # the best so far was below it, so v just took its place
                break
        rows.append(SlowDecreaseRow(xi, threshold, best_eta if best_val >= threshold else None, best_val))
    return tuple(rows)


# ---------------------------------------------------------------------------
# odd-denominator margins


@dataclass(frozen=True)
class OddTypeReport:
    """Scan of the odd-denominator margins q |beta - round| over q in
    (64, qmax].  `min_ratio` is the smallest certified margin * q^3; the
    construction is of odd type exactly when it stays above 1."""

    qmax: int
    depth: int
    tail: float
    count: int
    min_ratio: float
    worst_q: int
    violations: tuple[int, ...]

    @property
    def passes(self) -> bool:
        return not self.violations and self.min_ratio > 1.0


def odd_type_verifier(qmax: int) -> OddTypeReport:
    """Certify |q beta - nearest| > q^(-3) for every odd q in (64, qmax],
    beta = sum 2^(-j!).

    The truncation depth is the smallest one whose tail satisfies
    qmax * tail <= (1/2) qmax^(-3); every comparison then has slack for the
    discarded terms, so a pass certifies the untruncated number.
    """
    if not 65 <= qmax <= 10**5:
        raise ValueError(f"qmax must be in [65, 1e5], got {qmax}")
    fits = (j for j in range(1, FACTORIAL_DEPTH_CAP + 1) if 2 * qmax**4 <= 2 ** (math.factorial(j + 1) - 1))
    depth = next(fits, None)
    if depth is None:
        raise PrecisionExhausted(f"no truncation within depth cap certifies qmax={qmax}")
    beta = liouville_truncation(2, None, depth)
    assert beta.err.numerator == 1 and beta.err.denominator % beta.value.denominator == 0
    scan = _odd_type_scan(beta.value.numerator, beta.value.denominator, beta.err.denominator, qmax)
    return OddTypeReport(qmax, depth, float(beta.err), *scan)


def _odd_type_scan(big_n: int, d: int, t: int, qmax: int) -> tuple[int, float, int, tuple[int, ...]]:
    """(count, min_ratio, worst_q, violations) over odd q in [65, qmax] for
    beta = N/d and tail 1/t, d | t.  q's certified margin (|q beta - nearest|
    - q/t) q^3 is num / t, num = (m t/d - q) q^3 with m = min(r, d - r) and
    r = q N mod d; q violates where num <= t.

    numpy picks the rows, exact integers decide them.  r, m and q^3 are exact
    in int64 (Python ints past 2^63); the float score m q^3/d is a few ulp
    from m q^3/d, which exceeds num / t by q^4/t <= qmax^4/t.  Rows scoring at
    most (1 + RECHECK_WINDOW) max(best, 1) + 2 qmax^4/t get the recheck, in
    ascending q with its strict `<`.  Any other row's num / t exceeds 1 and
    exceeds the best-scoring row's by a relative RECHECK_WINDOW/2 (or is
    positive where that is <= 0), so it is no violation and its float ratio
    can neither be the minimum nor tie it: the result is the full loop's."""
    import numpy as np

    q = np.arange(65, qmax + 1, 2)
    if qmax * max(d, qmax * qmax) >= 2**63:
        q = q.astype(object)
    r = q * (big_n % d) % d
    score = np.minimum(r, d - r).astype(float) * (q * q * q).astype(float) / d
    cut = (1 + RECHECK_WINDOW) * max(float(score.min(initial=math.inf)), 1.0) + 2 * qmax**4 / t
    min_ratio, worst_q, violations = math.inf, 0, []
    rows = q[score <= cut].tolist()  # ascending, as Python ints
    for q in rows:
        r = q * big_n % d
        num = (min(r, d - r) * (t // d) - q) * q**3
        ratio = num / t  # int / int rounds correctly, as Fraction.__float__ does
        if ratio < min_ratio:
            min_ratio, worst_q = ratio, q
        if num <= t:
            violations.append(q)
    return len(score), min_ratio, worst_q, tuple(violations)


@dataclass(frozen=True)
class DoubledFractionWitness:
    """Witness that 2 beta is Liouville: |2 beta - p/q| <= q^(-N) with the
    doubled fraction p/q = 2 p1 / (2 q1)."""

    exponent: int
    p: int
    q: int
    gap_lo: Fraction
    gap_hi: Fraction
    bound: Fraction

    @property
    def ok(self) -> bool:
        return Fraction(0) < self.gap_lo and self.gap_hi <= self.bound


def doubled_liouville_bound(x: NumberClass, exponent: int) -> DoubledFractionWitness:
    """For a factorial-series x and target exponent N, produce the doubled
    convergent 2 p_k / 2 q_k (k = 2N) witnessing |2x - p/q| <= q^(-N)."""
    if x.base is None or x.depth is None:
        raise ValueError("doubled bound needs a factorial-series construction")
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    k = 2 * exponent
    qk, pk, lo, hi, den = next(convergent_chain(x, k))
    # |2x - 2 pk / (2 qk)| = 2 delta / qk, delta in [lo / den, hi / den]
    gap_lo = Fraction(2 * lo, qk * den)
    gap_hi = Fraction(2 * hi, qk * den)
    bound = Fraction(1, (2 * qk) ** exponent)
    return DoubledFractionWitness(exponent, 2 * pk, 2 * qk, gap_lo, gap_hi, bound)
