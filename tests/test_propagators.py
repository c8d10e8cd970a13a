import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from wavesnap import propagators
from wavesnap.propagators import (
    PHASE_LIMIT,
    SERIES_SWITCH,
    InvalidTime,
    as_radians,
    chebyshev_U,
    cos_at,
    cos_column,
    fundamental_identities_check,
    kernel_threshold,
    psi_at,
    psi_column,
    psi_grid,
    sine_at,
    sine_at_column,
    sine_floor,
    sine_over,
    sine_over_column,
    sine_over_grid,
    symbol_Psi,
    symbol_S,
    symbol_Sprime,
)


def mp_S(t, lam):
    if lam == 0:
        return float(t)
    with mpmath.workdps(40):
        return float(mpmath.sin(mpmath.mpf(t) * lam) / lam)


def mp_Psi(m, s, lam):
    with mpmath.workdps(40):
        x = mpmath.mpf(s) * lam
        if mpmath.sin(x) == 0:
            return float(m * mpmath.cos(x) ** (m - 1))
        return float(mpmath.sin(m * x) / mpmath.sin(x))


def test_S_known_values():
    s = symbol_S(1.0)
    assert s(0.0) == 1.0
    assert abs(s(math.pi / 2) - 2.0 / math.pi) < 1e-15
    assert abs(symbol_S(2.5)(0.0) - 2.5) < 1e-15


def test_S_series_branch_matches_high_precision():
    # arguments straddling the 1e-6 series switch
    for t in (1.0, 0.3, 7.0):
        for lam in (1e-9, 1e-7, 9.9e-7, 1.1e-6, 1e-5):
            got = symbol_S(t)(lam)
            want = mp_S(t, lam)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(t)), (t, lam)


def test_Sprime_is_plain_cosine():
    assert symbol_Sprime(0.7)(2.0) == math.cos(1.4)


def test_chebyshev_U_extension():
    # U_{-1} = 0 and U_{-m-2} = -U_m
    assert chebyshev_U(-1, 0.3) == 0.0
    for m in range(0, 6):
        for x in (-0.9, 0.0, 0.4, 1.0):
            assert abs(chebyshev_U(-m - 2, x) + chebyshev_U(m, x)) < 1e-12


def test_chebyshev_U_against_trig_form():
    for m in range(-5, 12):
        for theta in (0.3, 1.0, 2.5):
            want = math.sin(m * theta + theta) / math.sin(theta)
            assert abs(chebyshev_U(m, math.cos(theta)) - want) < 1e-11 * (1 + m * m)


def mp_U(m, x):
    """U_m(x) at 40 digits, by its trigonometric form."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if abs(x) == 1:
            return (m + 1) * x**m
        theta = mpmath.acos(x)
        return mpmath.sin((m + 1) * theta) / mpmath.sin(theta)


def test_chebyshev_U_at_large_index_matches_mpmath():
    # O(log m) doubling at every index; x at and near +-1 (cos u at a kernel
    # radius, where Psi takes this branch) and inside
    xs = [1.0, -1.0, math.cos(1e-7), math.cos(math.pi - 9e-7), math.cos(3 * math.pi + 4e-7), 0.3, -0.77]
    for m in (1024, 1025, 4097, 10**5, 10**9, 10**15, 10**23):
        for x in xs:
            got = chebyshev_U(m, x)
            assert abs(got - float(mp_U(m, x))) <= 1e-11 * (m + 1), (m, x)
            assert chebyshev_U(-m - 2, x) == -got


def test_chebyshev_U_at_plus_minus_one_is_exact():
    # U_m(+-1) = (+-1)^m (m + 1), exactly at every index, and an overflow,
    # not nan, past the float range
    for m in (0, 1, 2, 1023, 1024, 1025, 1026, 10**6, 2**52):
        assert chebyshev_U(m, 1.0) == float(m + 1)
        assert chebyshev_U(m, -1.0) == (-1.0) ** (m % 2) * float(m + 1)
    for x in (1.0, -1.0):
        with pytest.raises(OverflowError):
            chebyshev_U(10**400, x)
        with pytest.raises(OverflowError):
            chebyshev_U(-(10**400), x)


def test_chebyshev_U_near_plus_minus_one_is_accurate_at_every_index():
    # x = cos u with u within SIN_SWITCH of k pi, where Psi takes this branch:
    # within 1e-14 relative of U_m at that float x for every m up to 1,100
    for k in range(4):
        for d in (-9.9e-7, -3e-7, -2e-8, 6e-8, 4e-7, 9.9e-7):
            x = math.cos(k * math.pi + d)
            with mpmath.workdps(40):
                theta = mpmath.acos(mpmath.mpf(x))
                sin_theta = mpmath.sin(theta)
                for m in range(1101):
                    want = float(mpmath.sin((m + 1) * theta) / sin_theta)  # mp_U, with theta taken once
                    assert abs(chebyshev_U(m, x) - want) <= 1e-14 * max(abs(want), 1.0), (m, k, d)


def test_Psi_at_sine_zero_uses_chebyshev():
    # sin(pi) vanishes to double precision; value must be U_{m-1}(cos pi)
    psi = symbol_Psi(3, 1.0)
    assert abs(psi(math.pi) - 3.0) < 1e-9
    assert abs(symbol_Psi(2, 1.0)(math.pi) + 2.0) < 1e-9


def test_Psi_m_zero_and_one():
    assert symbol_Psi(0, 1.0)(1.3) == 0.0
    assert symbol_Psi(1, 1.0)(1.3) == 1.0


def test_Psi_negative_m_is_odd():
    psi_p = symbol_Psi(4, 0.7)
    psi_n = symbol_Psi(-4, 0.7)
    for lam in (0.5, 1.7, 3.0):
        assert abs(psi_p(lam) + psi_n(lam)) < 1e-13


def test_Psi_rejects_zero_scale():
    with pytest.raises(InvalidTime, match=re.escape("Psi_{m,s} requires s != 0")):
        symbol_Psi(2, 0.0)


@settings(max_examples=200)
@given(
    m=st.integers(min_value=-30, max_value=30),
    k=st.integers(min_value=1, max_value=12),
    d=st.floats(min_value=1e-6, max_value=1e-2),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_branch_agreement_near_resonance(m, k, d, sign):
    # Inside the thin window above the switch the ratio branch runs; it must
    # agree with the Chebyshev value to the cancellation-limited tolerance.
    lam = k * math.pi + sign * math.asin(d)
    got = symbol_Psi(m, 1.0)(lam)
    cheb = chebyshev_U(m - 1, math.cos(lam))
    assert abs(got - cheb) <= 1e-8 * (1 + m * m)


@given(
    m=st.integers(min_value=-12, max_value=12),
    s=st.floats(min_value=0.1, max_value=3.0),
    lam=st.floats(min_value=0.0, max_value=20.0),
)
def test_Psi_matches_high_precision(m, s, lam):
    got = symbol_Psi(m, s)(lam)
    want = mp_Psi(m, s, lam)
    assert abs(got - want) <= 1e-7 * (1 + m * m)


IDENTITY_TOL = 1e-10  # the identity experiment's tolerance


def test_identity_report_on_sound_grid():
    grid = [0.1 + 0.37 * k for k in range(200)]
    grid = [lam for lam in grid if abs(math.sin(lam)) > 5e-3]
    residuals = fundamental_identities_check(math.sqrt(2.0), grid)
    assert max(residuals.values()) <= IDENTITY_TOL, residuals
    assert set(residuals) == {"snapshot_recurrence", "sine_recurrence", "time_shift"}


def test_identity_check_rejects_a_nonfinite_time():
    # a NaN time once scored NaN shift residuals, which max() skipped, and passed
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError):
            fundamental_identities_check(t, [0.5, 1.0])


def test_identity_report_flags_nothing_at_zero():
    # lam = 0 sits on every branch boundary and must still satisfy the identities
    assert max(fundamental_identities_check(0.5, [0.0]).values()) <= IDENTITY_TOL


def per_point_identities(t, lam_grid):
    """A test-local copy of the identity check that evaluates every symbol
    value where it is used, point by point."""
    psis = {m: symbol_Psi(m, 1.0) for m in range(-10, 13)}
    sins = {m: symbol_S(float(m)) for m in range(-10, 13)}
    s_t, s_t1, cos_t, s_1 = symbol_S(t), symbol_S(t - 1.0), symbol_Sprime(t), symbol_S(1.0)
    r_psi = r_s = r_shift = 0.0
    for lam in lam_grid:
        two_cos = 2.0 * math.cos(lam)
        for m in range(-10, 11):
            r_psi = max(r_psi, abs(psis[m + 2](lam) + psis[m](lam) - two_cos * psis[m + 1](lam)))
            r_s = max(r_s, abs(sins[m + 2](lam) + sins[m](lam) - two_cos * sins[m + 1](lam)))
        r_shift = max(r_shift, abs(s_t(lam) * math.cos(lam) - cos_t(lam) * s_1(lam) - s_t1(lam)))
    return {"snapshot_recurrence": r_psi, "sine_recurrence": r_s, "time_shift": r_shift}


# radii on both sides of the branch switches: |m lam| < 1e-6 for the series
# branch of S_m, |sin(lam)| < 1e-6 for the Chebyshev branch of Psi_m
BRANCH_RADII = [0.0, 1e-9, 5e-8, 9.9e-7, 1.01e-6]
BRANCH_RADII += [math.pi - 5e-7, math.pi + 2e-6, 2 * math.pi + 1e-7, 7 * math.pi - 9e-7]


@settings(max_examples=60)
@given(
    t=st.floats(min_value=-5.0, max_value=5.0),
    grid=st.lists(st.sampled_from(BRANCH_RADII) | st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
)
def test_identity_check_matches_per_point_evaluation(t, grid):
    for lam_grid in (grid, [0.0] + grid, BRANCH_RADII):
        assert fundamental_identities_check(t, lam_grid) == per_point_identities(t, lam_grid)


def test_float_time_zeros_are_nonzero_multiples_of_pi():
    # S_0 = 0: at t = 0 every frequency is a zero, w = 0 included
    assert sine_at(0.0, 0.0) == (0.0, True)
    assert sine_at(0.0, 2.5) == (0.0, True)
    # elsewhere a small w t is never a zero: sin(w t)/w continues to t
    assert sine_at(1.0, 0.0) == (1.0, False)
    assert sine_at(1.0, 1e-15) == (1.0, False)
    assert sine_at(-2.0, 1e-15) == (-2.0, False)
    assert sine_at(1.0, math.pi)[1]
    assert sine_at(-1.0, 1e3 * math.pi)[1]


def test_float_times_past_the_phase_limit_raise():
    # from |t w| = 2^50 on the kernel threshold is 1, so every frequency would be a zero:
    # sine_at called sin(1e300 w) = -0.82 a kernel zero at w = 1
    assert kernel_threshold(PHASE_LIMIT) == 1.0 > abs(math.sin(1e300))
    for t, w in ((1e300, 1.0), (-1e300, 2.5), (PHASE_LIMIT, 1.0), (1.0, PHASE_LIMIT), (math.inf, 1.0)):
        with pytest.raises(InvalidTime, match=re.escape(f"time {t!r} resolves no phase at frequency {w!r}:")):
            sine_at(t, w)
        with pytest.raises(InvalidTime, match=re.escape(f"time {t!r} resolves no phase at frequency {w!r}:")):
            sine_at_column(t, [0.0, w, w / 4])
    below = math.nextafter(PHASE_LIMIT, 0.0)
    assert sine_at(below, 1.0)[0] == math.sin(below)
    assert sine_at_column(1.0, [below, 3.0])[0] == [math.sin(below) / below, math.sin(3.0) / 3.0]
    # an exact time has no such limit, and neither has the value alone
    assert sine_at(Fraction(1, 3), 10**30) == (math.sin(math.pi * (10**30 % 6 / 3)) / 10**30, False)
    assert sine_over_column(1e300, [1.0]) == [math.sin(1e300)]


def test_time_kinds_reach_their_branch():
    # a Fraction subclass is an exact time beta pi, an int a time in radians
    class Beta(Fraction):
        pass

    assert sine_at(Beta(1), 1.0) == sine_at(Fraction(1), 1.0) == (0.0, True)
    assert cos_at(Beta(1, 3), 1.5) == cos_at(Fraction(1, 3), 1.5) == math.cos(math.pi / 2)
    assert sine_at(3, 1.25) == sine_at(3.0, 1.25) == (math.sin(3.75) / 1.25, False)
    assert cos_at(3, 1.25) == math.cos(3.75)


# -- array forms: every element is the scalar rule's, bit for bit ---------------

# radii at zero, inside and around both 1e-6 windows, and at kernel radii k pi
# where sin(u) is ~1e-16 and Psi takes its Chebyshev branch
GRID_RADII = [0.0, 5e-324, 1e-12, 3e-7, 9.9e-7, 1e-6, 1.01e-6, 2e-6, 0.5, 1.0, 2.75, 41.3]
GRID_RADII += [k * math.pi for k in (1, 2, 3, 7, 1000)]
GRID_RADII += [math.pi - 5e-7, math.pi + 9e-7, 2 * math.pi + 2e-6, 7 * math.pi - 1.1e-6]
FRACTION_TIMES = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)]


def _floor_excesses(*floors):
    """For each floor, the probe points y where floor(y) exceeds |sin y|
    (mpmath, 200 bits): a few ulp around the float multiples of pi and of
    pi/2 at k from 1 to ~1e15, and spread points at each scale, with their
    negatives."""
    import numpy as np

    ks = [k * 7919 % 10**j + 1 for j in range(1, 16) for k in range(1, 16)]
    centers = [c for k in ks for c in (k * math.pi, (k + 0.5) * math.pi)]
    ys = [c + j * math.ulp(c) for c in centers for j in range(-3, 4)]
    ys += [m * 10.0**e for e in range(-3, 16) for m in (1.2345, 3.3, 7.1)]
    ys += [0.0, 5e-324, 1e-300, 0.5, math.pi / 2, 2.0**50, 1e16, 1e300]
    y = np.array(ys + [-v for v in ys])
    with mpmath.workprec(200):
        sines = [abs(mpmath.sin(mpmath.mpf(v))) for v in y.tolist()]
    return [[v for v, f, s in zip(y.tolist(), floor(y).tolist(), sines) if f > s] for floor in floors]


def test_sine_floor_is_below_the_sine():
    import numpy as np

    # with negative controls: Jordan's bound on the float distance with no slack, and twice the floor
    bare = lambda y: np.minimum(np.abs(y - np.rint(y / math.pi) * math.pi), math.pi / 2) * (2 / math.pi)
    ok, no_slack, doubled = _floor_excesses(sine_floor, bare, lambda y: 2 * sine_floor(y))
    assert ok == [] and no_slack and doubled
    # and it is a useful floor: near 1 at the peaks, 0 only near the zeros and past 2^50
    with np.errstate(invalid="ignore"):
        got = sine_floor(np.array([math.pi / 2, 1e6 + math.pi / 2 - 1e6 % math.pi, 0.25, 2.0**50, math.inf, math.nan]))
    assert got[0] > 1 - 1e-14 and got[1] > 1 - 1e-8 and 0.15 < got[2] < math.sin(0.25)
    assert got[3] == 0.0 and np.isnan(got[4:]).all()


def test_float_time_sine_at_is_sine_over_and_the_kernel_test():
    # sine_at computes sin(w t) once; its pair is sine_over's value and the kernel rule, bit for bit
    for t in (0.0, 1.0, -2.5, 3e-7, 1e3):
        for w in GRID_RADII:
            u = t * w
            zero = t == 0.0 or (abs(u) >= 1.0 and abs(math.sin(u)) < kernel_threshold(u))
            assert sine_at(t, w) == (sine_over(t, w), zero)


def hex_rows(values):
    return [[float(v).hex() for v in row] for row in values]


def test_sine_over_grid_is_the_scalar_rule(monkeypatch):
    import numpy as np

    # t = 0 and lam = 0 sit in the series window, as do t lam below 1e-6; the grid writes the
    # series itself, so no element calls the scalar rule
    monkeypatch.setattr(propagators, "sine_over", lambda t, lam: pytest.fail("a scalar sine_over call"))
    ts = [0.0, -0.0, 1e-7, 0.5, 1.0, -1.0, 3.0, -20.0, 1e5] + [as_radians(b) for b in FRACTION_TIMES]
    got = sine_over_grid(ts, GRID_RADII)
    assert got.shape == (len(ts), len(GRID_RADII))
    assert hex_rows(got) == hex_rows([[sine_over(t, lam) for lam in GRID_RADII] for t in ts])
    # t lam just below, at and just above +-SERIES_SWITCH, -0.0 for t and for lam, and a subnormal t lam
    edge = [math.nextafter(SERIES_SWITCH, 0.0), SERIES_SWITCH, math.nextafter(SERIES_SWITCH, 1.0)]
    lams = [-0.0, 0.0, 1e-300, *edge, *(-x for x in edge)]
    ts = [-0.0, 0.0, 1.0, -1.0, 1e-10, -1e-10, 5e-324, math.nextafter(1.0, 2.0)]
    assert 0.0 < abs(1e-10 * 1e-300) < 2.0**-1022
    assert hex_rows(sine_over_grid(ts, lams)) == hex_rows([[sine_over(t, lam) for lam in lams] for t in ts])
    # a 2-D grid, one time per element
    per_element = np.array([[ts[(i + j) % len(ts)] for j in range(len(lams))] for i in range(len(ts))])
    want = [[sine_over(t, lam) for t, lam in zip(row, lams)] for row in per_element.tolist()]
    assert hex_rows(sine_over_grid(per_element, lams)) == hex_rows(want)


def test_sine_over_grid_takes_one_time_per_element():
    import numpy as np

    # the t = 0 row and the lam = 0 column take the series fix-up at their own time
    ts = np.array([0.0, -0.0, 1e-7, 0.5, -1.0, 3.0, -20.0, 1e5] + [as_radians(b) for b in FRACTION_TIMES])
    one_d = sine_over_grid(ts, GRID_RADII)
    assert GRID_RADII[0] == 0.0
    # a time per element that is constant along each row is the 1-D call, row by row
    rows = np.repeat(ts.reshape(-1, 1), len(GRID_RADII), axis=1)
    assert hex_rows(sine_over_grid(rows, GRID_RADII)) == hex_rows(one_d)
    assert hex_rows(sine_over_grid(ts.reshape(-1, 1), GRID_RADII)) == hex_rows(one_d)
    # each column its own times: column j is the 1-D call over that column's times at its lam
    mixed = np.stack([np.roll(ts, j) for j in range(len(GRID_RADII))], axis=1)
    got = sine_over_grid(mixed, GRID_RADII)
    assert got.shape == mixed.shape
    for j, lam in enumerate(GRID_RADII):
        assert hex_rows(got[:, j:j + 1]) == hex_rows(sine_over_grid(mixed[:, j], [lam]))
        assert [v.hex() for v in got[:, j].tolist()] == [sine_over(t, lam).hex() for t in mixed[:, j].tolist()]


def test_psi_grid_is_the_scalar_rule():
    # negative and large indices; u = s lam for a few steps s, the kernel radii included
    ms = [-12, -3, -2, -1, 0, 1, 2, 3, 5, 40]
    for s in (1.0, 0.35, 2.0):
        us = [s * lam for lam in GRID_RADII] + [-1.3, -math.pi]
        got = psi_grid(ms, us)
        want = [[psi_at(m, u, math.sin(u)) for u in us] for m in ms]
        assert hex_rows(got) == hex_rows(want)
    # the Chebyshev window is where the scalar rule says it is
    assert abs(math.sin(math.pi)) < 1e-6 and psi_grid([3], [math.pi])[0, 0] == chebyshev_U(2, math.cos(math.pi))


def test_grid_forms_mark_where_the_scalar_rule_raises():
    # an infinite u: math.sin raises, the grids hold nan and never warn
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(sine_over_grid([math.inf], [2.0])[0, 0])
        assert math.isnan(psi_grid([2], [math.inf])[0, 0])
        assert sine_over_grid([], [1.0]).shape == (0, 1) and psi_grid([], [1.0]).shape == (0, 1)
    with pytest.raises(OverflowError):
        psi_grid([10**400], [1.0])  # m * u reads m as a float


# -- column forms: every element is the scalar rule's, bit for bit --------------

# kernel radii k pi with |u| >= 16 at t = 1, where the 4-ulp threshold decides
# the zero: at 1000 pi and beyond |sin u| lies above KERNEL_SIN_TOL, and from
# 1e10 pi on above SERIES_SWITCH too
KERNEL_RADII = [k * math.pi for k in (6, 50, 333, 10**4, 10**6, 10**10, 10**12)]
COLUMN_RADII = GRID_RADII + KERNEL_RADII + [SERIES_SWITCH * (1 - 1e-9)]
COLUMN_TIMES = [0.0, -0.0, 1.0, -2.5, 3e-7, 1e-300, 0.35, 1e3, 3]
HALF_INTEGERS = [0.5, 1.0, 1.5, 3.0, 7.5, 2.0**52 + 0.5, Fraction(2**60 + 1, 2)]


def by_element(rule, *columns):
    """Each element of the scalar rule over the columns, floats as hex, or the exception type it raised."""
    try:
        return [hex_or_same(rule(*args)) for args in zip(*columns)]
    except Exception as exc:
        return type(exc)


def column_form(fn, *args):
    """A column rule's output as `by_element` writes the scalar rule's."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc)
    return [hex_or_same(v) for v in (zip(*out) if isinstance(out, tuple) else out)]


def hex_or_same(v):
    if isinstance(v, tuple):
        return tuple(map(hex_or_same, v))
    return v.hex() if isinstance(v, float) else v


def check_columns(t, ws, ms=()):
    ts = [t] * len(ws)
    assert column_form(sine_at_column, t, ws) == by_element(sine_at, ts, ws), (t, ws)
    assert column_form(cos_column, t, ws) == by_element(cos_at, ts, ws), (t, ws)
    if isinstance(t, Fraction):
        return  # sine_over and psi_at take a time in radians
    assert column_form(sine_over_column, float(t), ws) == by_element(sine_over, [float(t)] * len(ws), ws)
    us = [float(t) * w for w in ws]
    if not all(map(math.isfinite, us)):
        return  # the columns that take sin(u) from their caller, where it exists
    sins = [math.sin(u) for u in us]
    assert column_form(sine_at_column, t, ws, sins) == by_element(sine_at, ts, ws)
    assert column_form(sine_over_column, float(t), ws, sins) == by_element(sine_over, [float(t)] * len(ws), ws)
    for m in ms:
        assert column_form(psi_column, m, us, sins) == by_element(psi_at, [m] * len(us), us, sins), (m, t)


def test_column_rules_are_the_scalar_rules():
    # lam = 0 and t = 0, t lam on both sides of SERIES_SWITCH and |sin u| on
    # both sides of SIN_SWITCH, kernel radii at |u| >= 16 next to small ones
    ms = [-12, -3, -1, 0, 1, 2, 3, 40, 1031, 10**12]
    for t in COLUMN_TIMES:
        for ws in (COLUMN_RADII, COLUMN_RADII[::-1], COLUMN_RADII[1:], COLUMN_RADII[8:], []):
            check_columns(t, ws, ms)
    assert sine_at_column(1.0, [1000 * math.pi])[1] == [True] and abs(math.sin(1000 * math.pi)) > 1e-14
    assert sine_at_column(1.0, [0.5, 1e10 * math.pi])[1] == [False, True] and abs(math.sin(1e10 * math.pi)) > 1e-6
    # Fraction times: exact zeros at half-integer frequencies, and a frequency they reject
    for beta in FRACTION_TIMES + [Fraction(0), Fraction(2, 3)]:
        check_columns(beta, HALF_INTEGERS)
        check_columns(beta, [1.5, math.sqrt(2.0)])


def test_column_rules_raise_what_the_scalar_rules_raise():
    # an infinite t lam, a Psi index beyond the float range (after window
    # elements that the Chebyshev branch takes), a division by a zero sine
    for ws in ([10.0], [0.0, 1e-300, 10.0], [10.0, 0.0]):
        check_columns(1e308, ws)
    assert column_form(sine_at_column, 1e308, [10.0]) is InvalidTime  # a ValueError: |t w| is past 2^50
    us = [0.0, math.pi, 1.0]
    sins = [math.sin(u) for u in us]
    assert column_form(psi_column, 10**400, us, sins) is OverflowError
    assert by_element(psi_at, [10**400] * 3, us, sins) is OverflowError
    assert column_form(psi_column, 2, [math.inf, 1.0], [0.5, math.sin(1.0)]) is ValueError
    assert column_form(psi_column, 3, [0.0, 1.0], [0.0, math.sin(1.0)]) == by_element(
        psi_at, [3, 3], [0.0, 1.0], [0.0, math.sin(1.0)]
    )


@settings(max_examples=150, deadline=None)
@given(
    t=st.sampled_from([0.0, 1.0, 1.0 / 3.0, math.sqrt(2.0)]) | st.floats(min_value=-1e3, max_value=1e3),
    ws=st.lists(st.sampled_from(COLUMN_RADII) | st.floats(min_value=0.0, max_value=1e4), max_size=25),
    m=st.integers(min_value=-50, max_value=50) | st.integers(min_value=-(10**30), max_value=10**30),
)
def test_column_rules_match_the_scalar_rules_anywhere(t, ws, m):
    check_columns(t, ws, [m])


def test_identity_check_rejects_an_overflowing_product():
    # t lam = inf, where math.sin raised before the check ran on arrays
    with pytest.raises(ValueError):
        fundamental_identities_check(1e300, [0.5, 1e10])
