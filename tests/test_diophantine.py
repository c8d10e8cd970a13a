import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from wavesnap import diophantine as dio

import references as ref


# -- continued fractions -----------------------------------------------------


def test_cfrac_known_expansion():
    cf = dio.continued_fraction(Fraction(415, 93), 10)
    assert list(cf.partial_quotients) == [4, 2, 6, 7]
    assert cf.convergents[-1] == Fraction(415, 93)


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6))
def test_cfrac_determinant_identity(x):
    cf = dio.continued_fraction(x, 60)
    cs = cf.convergents
    for k in range(1, len(cs)):
        p, q = cs[k].numerator, cs[k].denominator
        p0, q0 = cs[k - 1].numerator, cs[k - 1].denominator
        assert p * q0 - p0 * q == (-1) ** (k - 1)


def convergents_by_loop(quotients):
    """Reference: the last convergent (p, q) of the quotients, as a plain loop."""
    p2, p1, q2, q1 = 0, 1, 1, 0
    for a in quotients:
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
    return p1, q1


def cfrac_by_loop(x, max_terms):
    """Reference: `continued_fraction` as one loop that extracts quotients and
    convergents together."""
    r = Fraction(x)
    quots, convs = [], []
    p2, p1, q2, q1 = 0, 1, 1, 0
    while len(quots) < max_terms:
        a = r.numerator // r.denominator
        quots.append(a)
        p2, p1 = p1, a * p1 + p2
        q2, q1 = q1, a * q1 + q2
        convs.append(Fraction(p1, q1))
        rem = r - a
        if rem == 0:
            break
        r = 1 / rem
    return tuple(quots), tuple(convs)


@pytest.mark.parametrize("depth", [1, 2, 7, 40, 45, 120])
def test_convergent_recurrence_matches_loops(depth):
    for make, rest in ((dio.sqrt2_class, 2), (dio.golden_class, 1)):
        p, q = convergents_by_loop([1] + [rest] * depth)
        x = make(depth)
        assert (x.value, x.err_bound) == (Fraction(p, q), Fraction(1, q * q))
    for value in (Fraction(415, 93), Fraction(-355, 113), Fraction(7), dio.sqrt2_class(60).value):
        cf = dio.continued_fraction(value, depth)
        assert (cf.partial_quotients, cf.convergents) == cfrac_by_loop(value, depth)


def common_prefix(x, y):
    """Reference: the quotients the two full expansions share, up to the first that differs."""
    a, b = dio.continued_fraction(x, 10**4).partial_quotients, dio.continued_fraction(y, 10**4).partial_quotients
    n = next((i for i, (s, t) in enumerate(zip(a, b)) if s != t), min(len(a), len(b)))
    return a[:n]


@example(Fraction(1, 2), Fraction(45, 100))  # [0; 2] ends where [0; 2, 4, 2] goes on: both share [0; 2]
@example(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**9))  # [0; 3] against [0; 2, 1, ...]: only 0
@example(Fraction(415, 93), Fraction(415, 93))  # equal ends: the whole expansion
@example(dio.PI_HI / 2, Fraction(math.pi) / 2)  # gamma at alpha = pi, either side of pi / 2
@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=10**12),
    st.fractions(min_value=Fraction(-1, 10**6), max_value=Fraction(1, 10**6), max_denominator=10**9),
)
def test_shared_continued_fraction_is_the_common_prefix(x, step):
    y = x + step
    cf = dio.shared_continued_fraction(x, y)
    assert cf.partial_quotients == common_prefix(x, y)
    full = dio.continued_fraction(x, 10**4)
    assert cf.convergents == full.convergents[: len(cf.partial_quotients)]
    # a number between the two shares the prefix: the numbers that share one form an interval
    mid = dio.continued_fraction((x + y) / 2, 10**4).partial_quotients
    assert mid[: len(cf.partial_quotients)] == cf.partial_quotients


def test_cfrac_golden_is_fibonacci():
    cf = dio.continued_fraction(dio.golden_class().value, 12)
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    got = [c.denominator for c in cf.convergents[:8]]
    assert got == fib


# -- exact sine: the enclosures in references.py -----------------------------


def test_exact_sine_special_points():
    assert ref.exact_sine_abs(Fraction(0)) == ref.SineInterval(0.0, 0.0)
    assert ref.exact_sine_abs(Fraction(7)).hi == 0.0
    half = ref.exact_sine_abs(Fraction(1, 2))
    assert half.lo == half.hi == 1.0
    third = ref.exact_sine_abs(Fraction(1, 6))
    assert third.lo <= 0.5 <= third.hi


@settings(max_examples=300)
@given(st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=10**4))
def test_exact_sine_encloses_high_precision(r):
    iv = ref.exact_sine_abs(r)
    with mpmath.workdps(40):
        true = abs(mpmath.sin(mpmath.pi * mpmath.mpf(r.numerator) / r.denominator))
    assert iv.lo - 1e-30 <= float(true) <= iv.hi + 1e-30
    assert iv.hi - iv.lo <= 1e-13


@given(st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=999))
def test_exact_sine_periodic_and_even(r):
    assert ref.exact_sine_abs(r) == ref.exact_sine_abs(r + 2)
    assert ref.exact_sine_abs(r) == ref.exact_sine_abs(-r)


def test_sin_pi_enclosure_brackets_truth():
    lo, hi = Fraction(1, 10**7), Fraction(1, 10**7) + Fraction(1, 10**12)
    a, b = ref.sin_pi_enclosure(lo, hi)
    with mpmath.workdps(40):
        true = mpmath.sin(mpmath.pi * mpmath.mpf(1) / 10**7)
    assert float(a) <= float(true) <= float(b)
    with pytest.raises(ValueError):
        ref.sin_pi_enclosure(Fraction(1, 2), Fraction(3, 4))  # only near zero


def nearest_integer(x):
    """Nearest integer, ties to even."""
    x = Fraction(x)
    n = x.numerator // x.denominator
    rem = x - n
    if rem > Fraction(1, 2):
        return n + 1
    if rem < Fraction(1, 2):
        return n
    return n if n % 2 == 0 else n + 1


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10**6))
def test_nearest_integer_is_nearest(x):
    n = nearest_integer(x)
    assert abs(x - n) <= Fraction(1, 2)


# -- number classes ----------------------------------------------------------


def test_rational_class():
    x = dio.rational_number(Fraction(2, 3))
    assert x.kind == "rational"
    assert x.err_bound is None


def test_sqrt2_class_brackets_root():
    x = dio.sqrt2_class()
    assert x.kind == "measure-bounded"
    assert x.measure_bound == 2.0
    v, e = x.value, x.err_bound
    assert (v - e) ** 2 <= 2 <= (v + e) ** 2


def test_golden_class_satisfies_equation():
    x = dio.golden_class()
    # phi^2 = phi + 1 up to the stated error
    v, e = x.value, x.err_bound
    assert abs(v * v - v - 1) <= 4 * e


def test_liouville_truncation_exact_value():
    x = dio.liouville_truncation(10, (1, 1, 1), 3)
    assert x.value == Fraction(110001, 10**6)
    assert x.err_bound == Fraction(1, 10**23)  # tail of the factorial series
    assert x.kind == "liouville"


def test_odd_type_class_kind():
    x = dio.liouville_truncation(3, (1,) * 4, 4)
    assert x.kind == "odd-type-liouville"
    assert x.base == 3


def test_binary_factorial_class():
    x = dio.liouville_truncation(2, (1,) * 4, 4)
    assert x.kind == "liouville"
    assert x.value == Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 2**6) + Fraction(1, 2**24)


def test_doubled_kind_mapping():
    assert dio.doubled(dio.liouville_truncation(3, (1,) * 3, 3)).kind == "liouville"
    assert dio.doubled(dio.rational_number(Fraction(1, 3))).value == Fraction(2, 3)
    d = dio.doubled(dio.sqrt2_class())
    assert d.kind == "measure-bounded"
    assert d.half is not None and d.half.kind == "measure-bounded"


def test_liouville_coefficient_validation():
    with pytest.raises(dio.InvalidCoefficient):
        dio.liouville_truncation(10, (0, 1, 1), 3)  # leading digit must be nonzero
    with pytest.raises(dio.InvalidCoefficient):
        dio.liouville_truncation(10, (10, 1, 1), 3)
    with pytest.raises(ValueError):
        dio.liouville_truncation(1, (1,), 1)  # base too small


def test_factorial_depth_cap():
    with pytest.raises((dio.InvalidCoefficient, dio.PrecisionExhausted, ValueError)):
        dio.liouville_truncation(10, (1,) * 8, 8)


def test_convergent_pair_of_factorial_series():
    x = dio.liouville_truncation(10, (1, 1, 1), 3)
    q, p, lo, hi, den = next(dio.convergent_chain(x, 2))
    lo, hi = Fraction(lo, den), Fraction(hi, den)
    assert (q, p) == (100, 11)
    assert 0 < lo <= hi
    # delta = q_k x - p_k up to the tail
    assert abs(Fraction(100) * x.value - 11) >= lo - x.err_bound * 100
    with pytest.raises(dio.PrecisionExhausted):
        next(dio.convergent_chain(x, 3))


@pytest.mark.parametrize(
    "base, digits", [(10, (1,) * 7), (2, (1,) * 5), (3, (2, 0, 1, 0, 2)), (7, (6, 3, 1, 5, 2))]
)
def test_convergent_pair_bounds_equal_the_fraction_sums(base, digits):
    # the bounds share one power-of-base denominator and equal the Fraction sums
    depth = len(digits)
    x = dio.liouville_truncation(base, digits, depth)
    for k in range(1, depth):
        q, p, lo, hi, den = next(dio.convergent_chain(x, k))
        delta_lo = sum(
            Fraction(c, base ** (math.factorial(j) - math.factorial(k))) for j, c in enumerate(digits[k:], start=k + 1)
        )
        assert (Fraction(lo, den), Fraction(hi, den)) == (delta_lo, delta_lo + q * x.err_bound)
        assert den == base ** (math.factorial(depth + 1) - 1 + math.factorial(depth) - math.factorial(k))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, dio.PrecisionExhausted) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "base, digits",
    [(10, (1,) * 7), (10, (9, 1, 3, 7, 2, 5, 8)), (2, (1,) * 7), (3, (2, 0, 1, 0, 2, 0, 1)), (3, (1, 2, 0, 0, 0, 0, 0))],
)
def test_convergent_chain_matches_the_per_k_reference(base, digits):
    # each element of the chain from k is the convergent built afresh at its j;
    # k >= depth, or a tail of zeros (base 3 admits 0) at k, raises before anything is yielded
    for depth in range(1, 8):
        x = dio.liouville_truncation(base, digits, depth)
        for k in range(1, depth + 1):
            first = _outcome(ref.convergent_pair, x, k)
            assert _outcome(lambda: next(dio.convergent_chain(x, k))) == first, (depth, k)
            if isinstance(first, dio.Convergent):
                assert list(dio.convergent_chain(x, k)) == [ref.convergent_pair(x, j) for j in range(k, 0, -1)]
            else:
                assert _outcome(lambda: list(dio.convergent_chain(x, k))) == first, (depth, k)


# -- irrationality probes ----------------------------------------------------


def test_probe_mu_golden_tends_to_two():
    rows = dio.irrationality_exponent_probe(dio.golden_class(), 14)
    assert rows, "expected convergent rows"
    assert abs(rows[-1].mu - 2.0) < 0.2


def test_probe_mu_rational_is_empty():
    assert dio.irrationality_exponent_probe(dio.rational_number(Fraction(3, 2)), 6) == ()


def test_probe_mu_liouville_grows():
    rows = dio.irrationality_exponent_probe(dio.liouville_truncation(10, (1,) * 5, 5), 8)
    by_q = {r.q: r.mu for r in rows}
    assert abs(by_q[100] - 3.0) < 0.05  # mu ~ k+1 at q = 10^{k!}
    assert abs(by_q[10**6] - 4.0) < 0.05


# -- small denominators ------------------------------------------------------


def test_smallden_rational_has_periodic_zeros():
    t = dio.small_denominator_sequence(dio.rational_number(Fraction(2, 3)), 0, 30)
    assert set(t.zero_rows) == {3, 6, 9, 12, 15, 18, 21, 24, 27, 30}
    passes, c = dio.slow_decay_check(t.rows, 2)
    assert not passes and c == 0.0


def test_smallden_golden_stays_positive():
    t = dio.small_denominator_sequence(dio.golden_class(), 0, 2000)
    assert not t.zero_rows
    assert all(v > 0 for _, v in t.rows)
    passes, c = dio.slow_decay_check(t.rows, 2)
    assert passes and c > 0
    # lower envelope of |sin(pi l phi)| decays like 1/l for a bounded-type number
    assert 0.5 <= t.fitted_exponent <= 1.5


def test_smallden_half_shift_bounded_below():
    # beta = 1/3: l + 1/2 never hits a multiple of 3, and |sin| >= 1/2
    t = dio.small_denominator_sequence(dio.rational_number(Fraction(1, 3)), Fraction(1, 2), 50)
    assert not t.zero_rows
    assert min(v for _, v in t.rows) >= 0.5 - 1e-12


def test_smallden_liouville_exact_zero_at_factorial_denominator():
    x = dio.liouville_truncation(10, (1, 1, 1), 3)
    t = dio.small_denominator_sequence(x, 0, 10**6)
    assert 10**6 in t.zero_rows  # q_3 = 10^6 kills the truncated series exactly
    for m in range(1, 6):
        passes, _ = dio.slow_decay_check(zip(t.degrees, t.values), m)
        assert not passes


def smallden_by_loop(beta, shift, count):
    """Reference for the array code: the table's rows, zero rows and envelope
    exponent, computed one row at a time."""
    num, den = beta.numerator * shift.denominator, beta.denominator * shift.denominator
    base_num = beta.numerator * shift.numerator
    rows, zeros = [], []
    for l in range(1 if shift == 0 else 0, count + 1):
        r = (l * num + base_num) % den
        if 2 * r > den:
            r = den - r
        if r == 0:
            rows.append((l, 0.0))
            zeros.append(l)
            continue
        rows.append((l, math.sin(math.pi * (r / den))))
    if zeros:
        return rows, zeros, math.inf
    blocks = {}
    for l, v in rows:
        if l >= 1:
            j = l.bit_length() - 1
            blocks[j] = min(blocks.get(j, math.inf), v)
    if len(blocks) < 2:
        return rows, zeros, None
    xs = [j * math.log(2.0) for j in sorted(blocks)]
    ys = [math.log(blocks[j]) for j in sorted(blocks)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return rows, zeros, -sxy / sxx


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=-(10**20), max_value=10**20).filter(bool),
    q=st.one_of(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=10**18)),
    shift=st.sampled_from((Fraction(0), Fraction(1, 2))),
    count=st.integers(min_value=1, max_value=300),
)
@example(p=2, q=3, shift=Fraction(1, 2), count=40)  # exact zeros at l = 1, 4, 7, ...
@example(p=-7, q=12, shift=Fraction(0), count=100)
@example(p=123456789123, q=10**13 + 7, shift=Fraction(1, 2), count=300)  # int64 residues
@example(p=-(10**17) - 3, q=10**18 - 1, shift=Fraction(0), count=200)  # Python ints: 4q > 2^53
@example(p=3, q=2**51 - 1, shift=Fraction(1, 2), count=1000)  # Python ints: 2w 4q >= 2^63
# a golden-ratio convergent at the dyadic block edges of fitted_exponent: l up to 1023 ends on a
# full block [512, 1024), and 1024 and 1025 are one and two rows into the next
@example(p=165580141, q=102334155, shift=Fraction(0), count=1023)
@example(p=165580141, q=102334155, shift=Fraction(0), count=1024)
@example(p=165580141, q=102334155, shift=Fraction(0), count=1025)
@example(p=165580141, q=102334155, shift=Fraction(1, 2), count=1023)
@example(p=165580141, q=102334155, shift=Fraction(1, 2), count=1024)
@example(p=165580141, q=102334155, shift=Fraction(1, 2), count=1025)
def test_smallden_matches_per_row_loop(p, q, shift, count):
    beta = Fraction(p, q)
    t = dio.small_denominator_sequence(dio.rational_number(beta), shift, count)
    rows, zeros, exponent = smallden_by_loop(beta, shift, count)
    assert t.zero_rows == tuple(zeros)
    assert [(l, v.hex()) for l, v in t.rows] == [(l, v.hex()) for l, v in rows]
    assert all(type(l) is int and type(v) is float for l, v in t.rows)
    assert t.fitted_exponent == exponent


def test_smallden_columns_are_read_only():
    for beta, zero in ((Fraction(2, 3), True), (Fraction(165580141, 102334155), False)):
        t = dio.small_denominator_sequence(dio.rational_number(beta), 0, 30)
        assert (t.degrees.dtype, t.values.dtype) == ("int64", "float64")
        for column in (t.degrees, t.values):
            with pytest.raises(ValueError):
                column[0] = 0
        assert (0.0 in t.values) is zero and len(t.rows) == 30
    assert t != dio.small_denominator_sequence(dio.rational_number(beta), 0, 30)  # identity, not an array truth value


def test_smallden_row_values_match_float_sine():
    x = dio.rational_number(Fraction(5, 7))
    t = dio.small_denominator_sequence(x, 0, 20)
    for l, v in t.rows:
        want = abs(math.sin(math.pi * l * 5 / 7))
        assert abs(v - want) < 1e-9


# -- joint bound and probes --------------------------------------------------


def test_jointbound_requires_measure_bounded():
    for check in (dio.joint_sine_lower_bound_check, ref.joint_sine_grid_check):
        with pytest.raises(ValueError):
            check(dio.liouville_truncation(10, (1,) * 4, 4), 3, 100.0)


def test_jointbound_rejects_a_nonfinite_or_oversized_x_max():
    # checked before anything is built: no grid of x_max / pi points, no numpy warning
    root2, doubled_root2 = dio.sqrt2_class(), dio.doubled(dio.doubled(dio.sqrt2_class()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, x_max in ((root2, math.inf), (root2, math.nan), (root2, -1.0), (root2, 0.0), (root2, 1e300),
                             (root2, dio.JOINT_X_CAP / math.sqrt(2.0) * 1.01), (doubled_root2, dio.JOINT_X_CAP / 5)):
            for check in (dio.joint_sine_lower_bound_check, ref.joint_sine_grid_check):
                with pytest.raises(ValueError, match="x_max must be in"):
                    check(alpha, 3, x_max)


def test_jointbound_without_a_finite_weight_raises():
    # the sampled grid: every (1+x)^N is inf, no score is finite, and C = inf read as a pass
    with pytest.raises(OverflowError, match=r"\(1\+x\)\^100000000 leaves the float range at every grid point"):
        ref.joint_sine_grid_check(dio.sqrt2_class(), 10**8, 10.0)
    # the bracket: its exact weights would take 4e8 bits, and no power is formed
    with pytest.raises(OverflowError, match=r"\(1\+x\)\^100000000 up to x = 10.0 needs up to 400000000 bits"):
        dio.joint_sine_lower_bound_check(dio.sqrt2_class(), 10**8, 10.0)
    with pytest.raises(OverflowError, match="past the cap of 65536"):
        dio.joint_sine_lower_bound_check(dio.sqrt2_class(), 10**400, 1e-300)
    b = dio.joint_sine_lower_bound_check(dio.sqrt2_class(), 2**16, 0.5)  # at the cap
    assert b.lower == 2 / dio.PI_HI and b.witness is None


def test_jointbound_sqrt2_positive():
    b = dio.joint_sine_lower_bound_check(dio.sqrt2_class(), 3, 500.0)
    for c, passes in (ref.joint_sine_grid_check(dio.sqrt2_class(), 3, 500.0), (b.c, b.passes)):
        assert passes and c > 0


@pytest.mark.parametrize("spec", ["sqrt2", "golden", "doubled:golden"])
def test_jointbound_matches_the_full_grid(spec):
    # the sampled grid's Jordan screen takes sines only where the minimum can be, one block of the grid at a
    # time: C is the full grid's, bit for bit
    from wavesnap.cli import number_class

    alpha = number_class(spec)
    a = abs(float(alpha.value))
    periods = (math.pi, math.pi / a)
    centers = ref.JOINT_BLOCK // 9  # the zeros a refined block holds, nine points each
    # at 1e4 each family fills a block and ends in a partial one (the uniform family always does)
    cases = [(exponent, x_max) for exponent in (0, 1, 2, 3, 5) for x_max in (1.0, 10.0, 1e3, 1e4)]
    cases += [(3, 2 * centers * period + 1e-9) for period in periods]  # a family that ends on a block edge
    cases += [
        (3, sum(periods) / 2),  # between the two periods: one refined family is empty
        (3, min(periods) / 2),  # below both: each is
        (0, 0.8826035386091325),  # linspace's last point is x_max, not start + (JOINT_SAMPLES - 1) step
        (0, 1e-319),  # a step that underflows to 0, where linspace divides i by JOINT_SAMPLES - 1 first
        (3, 5e-324),  # and its first blocks all round to 0, so they are empty
        (100, 1e4),  # (1+x)^100 leaves the float range past x ~ 1208, in the second uniform block
        (3, dio.JOINT_X_CAP / max(1.0, a)),  # the cap
    ]
    for exponent, x_max in cases:
        c, passes = ref.joint_sine_grid_check(alpha, exponent, x_max)
        want = ref.joint_sine_lower_bound(alpha, exponent, x_max)
        assert (c.hex(), passes) == (want.hex(), want > 0), (exponent, x_max)
        b = dio.joint_sine_lower_bound_check(alpha, exponent, x_max)
        assert b.c <= b.lower <= b.upper <= b.c_upper and b.c <= c, (exponent, x_max)


def test_joint_bound_streams():
    alpha = dio.sqrt2_class()
    tracemalloc.start()
    try:
        c, passes = ref.joint_sine_grid_check(alpha, 3, dio.JOINT_X_CAP / math.sqrt(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passes and c > 0
    assert peak < 2_000_000  # the whole grid, ~6e6 points, took ~130 MB


MP_ALPHA = {"sqrt2": lambda: mpmath.sqrt(2), "golden": lambda: (1 + mpmath.sqrt(5)) / 2}


def check_joint_bracket(alpha, true_alpha, exponent, x_max):
    """The bracket of `joint_sine_lower_bound_check` holds: lower <= the full sampled grid's least score,
    lower <= upper, and upper >= the score at its witness x = q pi, or >= the x -> 0+ limit 1 + |alpha|,
    evaluated at 50 digits with the true alpha."""
    b = dio.joint_sine_lower_bound_check(alpha, exponent, x_max)
    x, scores = ref.joint_sine_grid(alpha, exponent, x_max)
    i = int(scores.argmin())
    assert b.lower <= scores[i], f"the grid's score {scores[i]!r} at x = {x[i]!r} undercuts lower {float(b.lower)!r}"
    assert b.lower <= b.upper, (b.lower, b.upper)
    with mpmath.workdps(50):
        if b.witness is None:
            at = 1 + abs(true_alpha)
        else:
            xq = b.witness * mpmath.pi
            at = (abs(mpmath.sin(xq)) + abs(mpmath.sin(true_alpha * xq))) * (1 + xq) ** exponent / xq
        assert at <= mpmath.mpf(b.upper.numerator) / b.upper.denominator, (b.witness, at, b.upper)
    assert b.c <= b.lower and b.upper <= b.c_upper
    return b


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["sqrt2", "golden"]), st.integers(25, 60), st.sampled_from([0, 1, 2, 3, 5]),
       st.floats(1.0, 1e4))
@example("sqrt2", 40, 3, 1e4)  # the benchmark's call
@example("golden", 45, 1, 1e4)  # exponent 1: the upper side witnessed at a convergent
def test_joint_bracket_holds(name, depth, exponent, x_max):
    alpha = dio.sqrt2_class(depth) if name == "sqrt2" else dio.golden_class(depth)
    with mpmath.workdps(50):
        true_alpha = MP_ALPHA[name]()
    b = check_joint_bracket(alpha, true_alpha, exponent, x_max)
    assert b.passes == (exponent >= 2)
    if exponent < 2 and x_max > 3 * math.pi:  # a convergent witness beats the x -> 0+ limit
        assert b.witness is not None


def test_joint_bracket_catches_a_false_quotient_bound():
    # 3/2 claiming every partial quotient <= 1: the lemma's floor is false for it, the lower side reads 2/pi,
    # and the sampled grid's points near x = 2 pi, where both sines vanish, score far below that
    liar = dio.NumberClass(dio.KIND_MEASURE_BOUNDED, Fraction(3, 2), measure_bound=2, quotient_bound=1)
    with pytest.raises(AssertionError, match="undercuts lower"):
        check_joint_bracket(liar, mpmath.mpf(3) / 2, 2, 10.0)
    b = dio.joint_sine_lower_bound_check(liar, 2, 10.0)
    x, scores = ref.joint_sine_grid(liar, 2, 10.0)
    near = abs(x - 2 * math.pi) < 0.1
    assert near.any() and float(scores[near].min()) < b.lower == 2 / dio.PI_HI
    assert (b.upper, b.witness) == (0, 2)  # the upper side sees it too: the score is 0 at x = 2 pi


def test_convergent_floor_is_the_lemma():
    cf = dio.continued_fraction(dio.sqrt2_class().value, 8)  # q = 1, 2, 5, 12, 29, 70, 169, 408
    assert [dio.convergent_floor(cf, k) for k in (1, 2, 4, 5, 11, 12, 407)] == [
        Fraction(1, 3), Fraction(1, 7), Fraction(1, 7), Fraction(1, 17), Fraction(1, 17), Fraction(1, 41),
        Fraction(1, 169 + 408)]
    assert dio.convergent_floor(cf, 408) is None
    golden = dio.continued_fraction(dio.golden_class().value, 5)  # q = 1, 1, 2, 3, 5: q_0 = q_1 bounds no k
    assert [dio.convergent_floor(golden, k) for k in (1, 2, 4, 5)] == [Fraction(1, 3), Fraction(1, 5),
                                                                       Fraction(1, 8), None]
    assert dio.convergent_floor(dio.continued_fraction(Fraction(7), 3), 1) is None  # one convergent: no pair
    with pytest.raises(ValueError, match="k must be >= 1"):
        dio.convergent_floor(cf, 0)
    # the floor holds for sqrt2 itself at every k below the prefix's end
    with mpmath.workdps(40):
        root2 = mpmath.sqrt(2)
        for k in range(1, 408):
            dist = abs(k * root2 - mpmath.nint(k * root2))
            floor = dio.convergent_floor(cf, k)
            assert dist > mpmath.mpf(floor.numerator) / floor.denominator, k


def test_number_classes_carry_their_quotient_bound():
    assert (dio.golden_class().quotient_bound, dio.sqrt2_class(7).quotient_bound) == (1, 2)
    relabelled = dio.NumberClass(dio.KIND_MEASURE_BOUNDED, Fraction(3, 2), measure_bound=2)
    for x in (dio.doubled(dio.golden_class()), dio.rational_number(Fraction(3, 2)),
              dio.liouville_truncation(2, None, 4), relabelled):
        assert x.quotient_bound is None


def test_slowly_decreasing_sine_passes():
    from wavesnap.propagators import symbol_S

    rows = dio.slowly_decreasing_probe(symbol_S(1.0), 4.0, 200.0, samples=64)
    assert all(r.ok for r in rows)


@pytest.mark.parametrize("a_const, xi_max, samples", [(4.0, 20.0, 512), (4.0, 1e3, 512), (0.5, 1e3, 64), (9.0, 50.0, 16)])
def test_slowly_decreasing_probe_matches_the_eager_candidates(a_const, xi_max, samples):
    # the candidates are built as the loop reads them; every row is the one the full list gives
    from wavesnap.fields import symbol_constant
    from wavesnap.propagators import symbol_S, symbol_Sprime

    for symbol in (symbol_S(1.0), symbol_Sprime(1.0), symbol_constant(0.0), symbol_S(0.01)):
        rows = dio.slowly_decreasing_probe(symbol, a_const, xi_max, samples=samples)
        assert rows == ref.slowly_decreasing_probe(symbol, a_const, xi_max, samples)


def test_slowly_decreasing_zero_fails():
    from wavesnap.fields import symbol_constant

    rows = dio.slowly_decreasing_probe(symbol_constant(0.0), 4.0, 50.0, samples=16)
    assert not all(r.ok for r in rows)
    assert len([r.xi for r in rows if not r.ok]) == len(rows)


def test_doubled_liouville_bound_certifies():
    w = dio.doubled_liouville_bound(dio.liouville_truncation(2, (1,) * 7, 7), 3)
    assert w.ok
    assert w.p % 2 == 0 and w.q % 2 == 0
    assert w.gap_hi < w.bound


# -- odd-type scan -----------------------------------------------------------


def test_odd_type_verifier_small_scan():
    rep = dio.odd_type_verifier(1000)
    assert rep.passes
    assert rep.count == 468  # odd q in (64, 1000]
    assert rep.worst_q == 81
    assert rep.min_ratio > 1e3
    assert rep.violations == ()


def _odd_type_reference(qmax):
    """The Fraction scan odd_type_verifier replaced: margins via nearest_integer."""
    depth = next(
        j for j in range(1, dio.FACTORIAL_DEPTH_CAP + 1)
        if qmax * Fraction(1, 2 ** (math.factorial(j + 1) - 1)) * 2 * qmax**3 <= 1
    )
    beta = dio.liouville_truncation(2, (1,) * depth, depth)
    tail = beta.err
    min_ratio, worst_q, violations, count = math.inf, 0, [], 0
    for q in range(65, qmax + 1, 2):
        count += 1
        x = q * beta.value
        lo = abs(x - nearest_integer(x)) - q * tail
        ratio = float(lo * q**3)
        if ratio < min_ratio:
            min_ratio, worst_q = ratio, q
        if lo * q**3 <= 1:
            violations.append(q)
    return dio.OddTypeReport(qmax, depth, float(tail), count, min_ratio, worst_q, tuple(violations))


@settings(max_examples=25, deadline=None)
@given(st.integers(65, 4000))
@example(10**4)
def test_odd_type_verifier_matches_fraction_scan(qmax):
    assert dio.odd_type_verifier(qmax) == _odd_type_reference(qmax)


D24, T119 = 2**24, 2**119  # beta's denominator and 1/tail at every allowed qmax
J = 11220525585634377725


@settings(max_examples=20, deadline=None)
@given(st.integers(65, 10**5))
@example(65)
@example(66)
@example(10**5)
def test_odd_type_screen_matches_the_per_q_loop(qmax):
    beta = dio.liouville_truncation(2, (1,) * 4, 4).value
    assert beta.denominator == D24
    assert dio._odd_type_scan(beta.numerator, D24, T119, qmax) == ref.odd_type_scan(beta.numerator, D24, T119, qmax)


@pytest.mark.parametrize(
    "big_n, d, t, qmax",
    [
        # mislabelled dyadics: a margin below q^-3 at q = 81, and at its odd multiples
        (round(D24 / 81), D24, T119, 10**5),
        (round(2**40 / 81), 2**40, 2**130, 2000),
        (round(2**62 / 81), 2**62, 2**200, 2000),
        (round(D24 / 81) + 1, D24, T119, 4000),
        (round(3 * D24 / 243), D24, T119, 2000),
        # m = 0 at every q, and at the multiples of 81
        (0, D24, T119, 3000),
        (1, 81, 81 * 2**100, 3000),
        (5, 81, 81 * 2**40, 1000),
        # q = 65 (m = 135) and q = 195 (m = 5) tie for the least m q^3/d; -q^4/t
        # parts their ratios by nothing, about an ulp, or far more
        *((199, 400, 400 * 2**k, 195) for k in (100, 58, 57, 56, 10)),
        # the same pair a rounding apart in the wrong order: m q^3/d is least at
        # q = 65, its float score at q = 195, and their float ratios tie
        (199 * J + 1, 400 * J, 400 * J * 2**200, 195),
        # qmax d at 2^63 and beyond: Python ints instead of int64
        (2**61 + 12345, 2**62, 2**200, 500),
        (3**40, 2**56, 2**120, 1001),
    ],
)
def test_odd_type_screen_negative_controls(big_n, d, t, qmax):
    got = dio._odd_type_scan(big_n, d, t, qmax)
    assert got == ref.odd_type_scan(big_n, d, t, qmax)
    assert got[0] == (qmax - 65) // 2 + 1


def test_odd_type_screen_finds_the_planted_violations():
    count, min_ratio, worst_q, violations = dio._odd_type_scan(round(D24 / 81), D24, T119, 10**5)
    assert worst_q == 81 and min_ratio < 1.0
    assert 81 in violations
    _, _, worst_q, violations = dio._odd_type_scan(round(2**40 / 81), 2**40, 2**130, 2000)
    assert worst_q == 81 and violations == tuple(81 * k for k in range(1, 20, 2))
    _, _, worst_q, violations = dio._odd_type_scan(0, D24, T119, 1000)
    assert worst_q == 999 and violations == tuple(range(65, 1001, 2))  # -q^4/t is least at the top


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2**40), st.integers(0, 2**80), st.integers(0, 130), st.integers(60, 3000))
def test_odd_type_screen_matches_on_random_dyadic_data(d, big_n, k, qmax):
    assert dio._odd_type_scan(big_n, d, d * 2**k, qmax) == ref.odd_type_scan(big_n, d, d * 2**k, qmax)


def test_odd_type_margin_definition():
    # at the worst q the reported ratio is |q beta - nearest| * q^3 up to the tail
    rep = dio.odd_type_verifier(1000)
    beta = dio.liouville_truncation(2, (1,) * rep.depth, rep.depth).value
    q = rep.worst_q
    margin = abs(q * beta - nearest_integer(q * beta))
    assert rep.min_ratio <= float(margin * q**3)
    assert rep.min_ratio >= float((margin - q * rep.tail) * q**3)
