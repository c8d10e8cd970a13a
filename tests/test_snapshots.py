import cmath
import dataclasses
import decimal
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from wavesnap import diophantine, fields, snapshots as snap, sphere as sph
from wavesnap.fields import MultiplierSymbol, apply_multiplier, field, linear_combine
from wavesnap.propagators import sine_at, symbol_Psi, symbol_Sprime
from wavesnap.snapshots import CauchyData, evolve

import references as ref
from references import max_abs_amp, subtract


def kernel_modes(f, t):
    """Keys of f annihilated by S_t: those where `sine_at` finds a zero."""
    return tuple(key for key, lam in zip(f.keys, f.freqs) if sine_at(t, lam)[1])


def wave(dim, entries_u0, entries_g):
    return CauchyData(field(dim, entries_u0), field(dim, entries_g))


def test_evolve_at_zero_is_position():
    data = wave(1, [((2.0,), 1 + 1j)], [((2.0,), 0.5)])
    assert evolve(data, 0.0) == data.position


def test_evolve_single_mode_closed_form():
    lam = 1.7
    data = wave(1, [((lam,), 1.0)], [((lam,), 1.0)])
    for t in (0.3, 1.0, 2.9):
        got = evolve(data, t).amplitude_at((lam,))
        want = math.cos(t * lam) + math.sin(t * lam) / lam
        assert abs(got - want) < 1e-15


def test_evolve_zero_frequency_moves_linearly():
    # on the lam = 0 mode the equation degenerates to u'' = 0
    data = wave(2, [((0.0, 0.0), 1.0)], [((0.0, 0.0), 2.0)])
    assert abs(evolve(data, 3.0).amplitude_at((0.0, 0.0)) - 7.0) < 1e-15


def test_a_cauchy_pair_forms_its_key_union_once(monkeypatch):
    # evolve reads the pair's cached union: one union_columns call for five times; the cache is no
    # part of the pair's eq, hash or repr
    calls = []
    union_columns = snap.union_columns
    monkeypatch.setattr(snap, "union_columns", lambda *args: calls.append(args) or union_columns(*args))
    modes = [((0.6, 0.8), 1.0), ((1.5, -2.0), 0.5j)], [((0.6, 0.8), 0.5), ((-2.2, 0.1), 1.0 + 0.25j)]
    data, times = wave(2, *modes), (0.0, 0.3, 1.0, -2.5, 7.0)
    got = [repr(evolve(data, t)) for t in times]
    assert len(calls) == 1
    assert got == [repr(evolve(wave(2, *modes), t)) for t in times] and len(calls) == 1 + len(times)
    twin = wave(2, *modes)
    assert data == twin and hash(data) == hash(twin) and repr(data) == repr(twin)


def wave_residual(data, t, h):
    """Max-amplitude residual of the centered second time difference of the
    evolved field against its Laplacian."""
    laplacian = MultiplierSymbol("-lam^2", lambda lam: -(lam * lam))
    up, u0, um = evolve(data, t + h), evolve(data, t), evolve(data, t - h)
    lap = apply_multiplier(u0, laplacian)
    return max_abs_amp(linear_combine([1.0 / (h * h), -2.0 / (h * h), 1.0 / (h * h), -1.0], [up, u0, um, lap]))


def test_wave_residual_second_order_in_h():
    data = wave(2, [((1.0, 1.5), 1.0), ((0.5, -0.2), 1j)], [((1.0, 1.5), 0.3), ((0.5, -0.2), -0.8)])
    r1 = wave_residual(data, 0.7, 0.1)
    r2 = wave_residual(data, 0.7, 0.05)
    assert r1 > 0
    assert 3.5 < r1 / r2 < 4.5  # centered difference converges at order 2


def test_integer_snapshot_endpoints_exact():
    data = wave(1, [((1.1,), 1.0)], [((1.1,), -2j)])
    for a, b in ((0.0, 1.0), (0.3, 1.15)):
        ua, ub = evolve(data, a), evolve(data, b)
        assert snap.general_integer_snapshot(ua, ub, a, b, 0) == ua
        assert snap.general_integer_snapshot(ua, ub, a, b, 1) == ub


def test_general_snapshot_validates_times():
    f = field(1, [((1.0,), 1.0)])
    with pytest.raises(snap.InvalidTime, match="need a != b, got a = b = 1.0"):
        snap.general_integer_snapshot(f, f, 1.0, 1.0, 2)
    # a > b was "need a < b, got a=2.0, b=1.0"; the pair is read in either order
    g = field(1, [((1.0,), 0.5j)])
    assert snap.general_integer_snapshot(f, g, 2.0, 1.0, 2) == snap.general_integer_snapshot(g, f, 1.0, 2.0, -1)


@st.composite
def snapshot_pairs(draw):
    """Two fields over one basis: flat of dimension 1-3, or a sphere of n 2-5."""
    amp = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        entry = st.tuples(st.tuples(*[st.floats(-20.0, 20.0)] * dim), amp)
        return tuple(field(dim, draw(st.lists(entry, max_size=6, unique_by=lambda e: e[0]))) for _ in range(2))
    n = draw(st.integers(2, 5))
    lm = st.integers(0, 30).flatmap(lambda l: st.tuples(st.just(l), st.integers(1, sph.dim_Hl(n, l))))
    entry = st.tuples(lm, amp).map(lambda e: (*e[0], e[1]))
    return tuple(sph.sphere_field(n, draw(st.lists(entry, max_size=6, unique_by=lambda e: e[:2]))) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(snapshot_pairs(), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.integers(-25, 25))
def test_snapshot_reads_its_pair_in_either_order(pair, a, b, m):
    # u at a + m (b - a) is u at b + (1 - m)(a - b): the step changes sign, and Psi_{m,s} is even in s
    ua, ub = pair
    if a == b:
        with pytest.raises(snap.InvalidTime, match=re.escape(f"need a != b, got a = b = {a}")):
            snap.general_integer_snapshot(ua, ub, a, b, m)
        return
    assert snap.general_integer_snapshot(ua, ub, a, b, m) == snap.general_integer_snapshot(ub, ua, b, a, 1 - m)


def test_cauchy_data_checks_dimensions():
    with pytest.raises(Exception):
        CauchyData(field(1, [((1.0,), 1.0)]), field(2, [((1.0, 0.0), 1.0)]))


# -- two snapshots -----------------------------------------------------------


def test_two_snapshot_unique_recovery():
    lam = math.pi / 2
    data = wave(1, [((lam,), 1.0)], [((lam,), 2 - 1j)])
    rep = snap.two_snapshot_solve(evolve(data, 0.0), evolve(data, 1.0))
    assert rep.status == snap.STATUS_UNIQUE
    assert abs(rep.solution.amplitude_at((lam,)) - (2 - 1j)) < 1e-12


def test_two_snapshot_kernel_mode_free_when_consistent():
    # velocity at radius pi is invisible at integer times
    lam = math.pi
    data = wave(1, [((lam,), 1.0)], [((lam,), 5.0)])
    rep = snap.two_snapshot_solve(evolve(data, 0.0), evolve(data, 1.0))
    assert rep.status == snap.STATUS_NONUNIQUE
    assert rep.kernel_modes == ((lam,),)
    assert rep.solution.amplitude_at((lam,)) == 0  # free part set to zero


def test_two_snapshot_tiny_frequency_is_determined():
    # at |w t| = 1e-15, sin(w t)/w is t itself, far from zero: not a kernel mode
    data = wave(1, [((1e-15,), 1.0), ((2.5,), 0.5)], [((1e-15,), 0.3), ((2.5,), 1j)])
    rep = snap.two_snapshot_solve(evolve(data, 0.0), evolve(data, 1.0))
    assert rep.status == snap.STATUS_UNIQUE
    assert abs(rep.solution.amplitude_at((1e-15,)) - 0.3) < 1e-12
    assert abs(rep.solution.amplitude_at((2.5,)) - 1j) < 1e-12


def test_two_snapshot_at_time_zero_frees_every_mode():
    # S_0 = 0 annihilates every frequency, the zero frequency included
    data = wave(2, [((0.0, 0.0), 1.0), ((1.0, 0.3), 2j)], [((0.0, 0.0), 0.5), ((1.0, 0.3), 1.0)])
    f0 = evolve(data, 0.0)
    rep = snap.two_snapshot_solve(f0, f0, 0.0)
    assert rep.status == snap.STATUS_NONUNIQUE
    assert rep.kernel_modes == f0.keys
    moved = snap.two_snapshot_solve(f0, evolve(data, 0.5), 0.0)
    assert moved.status == snap.STATUS_OBSTRUCTED


def test_two_snapshot_kernel_at_time_half():
    # at t = 1/2 the kernel of S_t sits at radius 2 pi, not pi
    data = wave(
        1,
        [((2 * math.pi,), 1.0), ((math.pi,), 1j), ((2.5,), 0.5)],
        [((2 * math.pi,), 5.0), ((math.pi,), -2.0), ((2.5,), 1j)],
    )
    rep = snap.two_snapshot_solve(evolve(data, 0.0), evolve(data, 0.5), 0.5)
    assert rep.status == snap.STATUS_NONUNIQUE
    assert rep.kernel_modes == ((2 * math.pi,),)
    assert rep.solution.amplitude_at((2 * math.pi,)) == 0
    for lam, g in ((math.pi, -2.0), (2.5, 1j)):
        assert abs(rep.solution.amplitude_at((lam,)) - g) < 1e-9 * (1 + rep.conditioning)


def test_two_snapshot_obstructed_by_inconsistent_kernel_data():
    lam = math.pi
    u0 = field(1, [((lam,), 1.0)])
    f1 = field(1, [((lam,), -0.9)])  # cos(pi) u0 = -u0; anything else is unreachable
    rep = snap.two_snapshot_solve(u0, f1)
    assert rep.status == snap.STATUS_OBSTRUCTED


@pytest.mark.parametrize("k", [1e3, 1e5])
def test_kernel_found_at_large_radius(k):
    # at radius k pi, sin(t lam) is off zero by the rounding of t lam (about
    # 3e-13 at 1e3 pi and 3e-11 at 1e5 pi), far above an absolute 1e-14
    lam = k * math.pi
    data = wave(1, [((lam,), 1.0), ((2.5,), 0.5)], [((lam,), 0.3 - 0.2j), ((2.5,), 1j)])
    f0, f1 = evolve(data, 0.0), evolve(data, 1.0)
    reports = [
        snap.two_snapshot_solve(f0, f1),
        snap.three_snapshot_solve(f0, f1, evolve(data, 2.0), 2.0),  # float alpha: both sines vanish
    ]
    for rep in reports:
        assert rep.status == snap.STATUS_NONUNIQUE
        assert rep.kernel_modes == ((lam,),)
        assert rep.conditioning < 10.0
        assert abs(rep.solution.amplitude_at((2.5,)) - 1j) < 1e-9 * (1 + rep.conditioning)
    assert kernel_modes(f0, 1.0) == ((lam,),)


def test_kernel_modes_lists_sine_zeros():
    f = field(1, [((math.pi,), 1.0), ((1.0,), 1.0), ((2.0 * math.pi,), 1.0)])
    assert kernel_modes(f, 1.0) == ((math.pi,), (2.0 * math.pi,))


# -- compatibility -----------------------------------------------------------


def test_compatibility_vanishes_on_genuine_waves():
    data = wave(2, [((1.0, 0.3), 1.0), ((0.4, 0.4), 1j)], [((1.0, 0.3), -0.5), ((0.4, 0.4), 2.0)])
    for a, b, c in ((0.0, 1.0, 0.618), (-0.4, 0.9, 2.2)):
        r = snap.compatibility_residual_general(evolve(data, a), evolve(data, b), evolve(data, c), a, b, c)
        assert r < 1e-13


def test_compatibility_detects_perturbation():
    data = wave(1, [((1.0,), 1.0)], [((1.0,), 1.0)])
    for a, b, c in ((0.0, 1.0, 0.618), (0.25, 1.5, 0.618)):
        fc = linear_combine([1.0, 1.0], [evolve(data, c), field(1, [((1.0,), 1e-3)])])
        r = snap.compatibility_residual_general(evolve(data, a), evolve(data, b), fc, a, b, c)
        assert r > 1e-4


def test_compatibility_symmetric_under_role_swap():
    # the general form at (a,b,c) negates under swapping a and b; the residual
    # is a sup norm, so both orderings must agree to the last bit
    data = wave(1, [((0.9,), 1.0)], [((0.9,), 1j)])
    fa, fb, fc = evolve(data, 0.2), evolve(data, 1.2), evolve(data, 0.85)
    r1 = snap.compatibility_residual_general(fa, fb, fc, 0.2, 1.2, 0.85)
    r2 = snap.compatibility_residual_general(fb, fa, fc, 1.2, 0.2, 0.85)
    assert r1 == pytest.approx(r2, abs=1e-16)


def rational_compatibility_residual(f0, fp, fq, p, q):
    """Residual of Psi_q (fp - S'_p f0) = Psi_p (fq - S'_q f0) for integer
    snapshot times 0, p, q."""
    vp = subtract(fp, apply_multiplier(f0, symbol_Sprime(p)))
    vq = subtract(fq, apply_multiplier(f0, symbol_Sprime(q)))
    return max_abs_amp(subtract(apply_multiplier(vp, symbol_Psi(q, 1.0)), apply_multiplier(vq, symbol_Psi(p, 1.0))))


def test_integer_compatibility_forms_consistent():
    # the (0,1,2) identity is the (0,p,q) identity composed with S_1; on
    # genuine data both vanish, on perturbed data they flag together
    data = wave(1, [((0.8,), 1.0)], [((0.8,), -1.0)])
    f0, f1, f2 = evolve(data, 0.0), evolve(data, 1.0), evolve(data, 2.0)
    assert rational_compatibility_residual(f0, f1, f2, 1, 2) < 1e-13
    bad = linear_combine([1.0, 1.0], [f2, field(1, [((0.8,), 0.01)])])
    assert rational_compatibility_residual(f0, f1, bad, 1, 2) > 1e-3


# -- three snapshots ---------------------------------------------------------


def test_three_snapshot_sees_through_integer_kernel():
    # radius 2pi is invisible at integer times but alpha = 1/3 resolves it
    lam = 2.0 * math.pi
    data = wave(1, [((lam,), 1.0), ((1.0,), 1.0)], [((lam,), 3 + 1j), ((1.0,), -1.0)])
    alpha = 1.0 / 3.0
    rep = snap.three_snapshot_solve(evolve(data, 0.0), evolve(data, 1.0), evolve(data, alpha), alpha)
    assert rep.status == snap.STATUS_UNIQUE
    assert abs(rep.solution.amplitude_at((lam,)) - (3 + 1j)) < 1e-9 * (1 + rep.conditioning)


def test_three_snapshot_rational_kernel_reported():
    # alpha = 2/3: radius 3pi is invisible at 0, 1, and 2/3 alike
    lam = 3.0 * math.pi
    data = wave(1, [((lam,), 1.0), ((1.0,), 1.0)], [((lam,), 1.0), ((1.0,), 1.0)])
    rep = snap.three_snapshot_solve(
        evolve(data, 0.0), evolve(data, 1.0), evolve(data, 2.0 / 3.0), Fraction(2, 3)
    )
    assert rep.status == snap.STATUS_NONUNIQUE
    assert ((lam,)) in rep.kernel_modes
    assert abs(rep.solution.amplitude_at((1.0,)) - 1.0) < 1e-10


def test_three_snapshot_obstructed_on_fabricated_data():
    u0 = field(1, [((1.0,), 1.0)])
    f1 = field(1, [((1.0,), 0.3)])
    falpha = field(1, [((1.0,), 0.9)])
    rep = snap.three_snapshot_solve(u0, f1, falpha, 0.7)
    assert rep.status == snap.STATUS_OBSTRUCTED
    assert rep.solution is None


def test_three_snapshot_holds_each_mode_to_its_own_conditioning():
    # a third snapshot off by 1e-3 at one well-conditioned mode obstructs, and
    # one near-kernel mode elsewhere (sin(lam) ~ 2e-12) must not hide it
    alpha = math.sqrt(2.0)
    plain = [((0.7,), 1.0), ((1.9,), 0.5j), ((3.4,), -0.8)]
    lam = 2 * math.pi * (1 - 3e-13)
    near = ((lam,), 0.3)
    for modes in (plain, plain + [near]):
        data = wave(1, modes, [(k, 0.2 - 0.1j * i) for i, (k, _) in enumerate(modes)])
        fa = perturbed(evolve(data, alpha), (1.9,), 1e-3)
        rep = snap.three_snapshot_solve(data.position, evolve(data, 1.0), fa, alpha)
        assert rep.status == snap.STATUS_OBSTRUCTED and rep.solution is None
        assert "at key (1.9,)" in rep.note
        assert rep.residual == pytest.approx(1e-3)
    # the near-kernel mode is solved from its time-alpha equation, so it no longer sets the
    # conditioning at lam / |sin(lam)| ~ 3e12 (the first-equation rule's reading)
    assert rep.conditioning == pytest.approx(lam / abs(math.sin(alpha * lam)))
    assert rep.conditioning < 20.0


ORACLE_K = 4  # worst ratios read 0.70 (three-solve) and 0.19 (two-solve) over thousands of draws


def oracle_snapshots(lam, alpha, u0, g):
    """The one-mode wave (u0, g) at radius lam at times 0, 1 and alpha, each
    amplitude taken at 50 digits and rounded once, and the problem's own
    condition numbers lam / max |sin(t lam)|, at 50 digits: over t in
    (1, alpha) for three snapshots, at t = 1 for two."""
    with mpmath.workdps(50):
        w = mpmath.mpf(lam)
        cs = [(mpmath.cos(t * w), mpmath.sin(t * w)) for t in (mpmath.mpf(1), mpmath.mpf(alpha))]
        amps = [complex(c * mpmath.mpc(u0) + s / w * mpmath.mpc(g)) for c, s in cs]
        (_, s1), (_, sa) = cs
        kappas = float(w / max(abs(s1), abs(sa))), float(w / abs(s1))
    return [field(1, [((lam,), a)]) for a in (u0, *amps)], kappas


def oracle_ratio(rep, key, g, kappa, phase):
    """|g_float - g| at `key` over the forward-error scale 2^-53 kappa (1 + max |t lam|) (1 + |g|)."""
    return abs(rep.solution.amplitude_at(key) - g) / (2.0**-53 * kappa * (1.0 + phase) * (1.0 + abs(g)))


def assert_held_to_kappa(rep, key, g, kappa, phase):
    if rep.status == snap.STATUS_OBSTRUCTED:
        return
    assert oracle_ratio(rep, key, g, kappa, phase) <= ORACLE_K, (rep, key, kappa)
    assert rep.conditioning >= kappa / ORACLE_K, (rep, key, kappa)  # pessimistic at most, never optimistic


AMPS = st.builds(cmath.rect, st.floats(0.1, 1.0), st.floats(-math.pi, math.pi))


# a radius within 1e-14 to 1e-4 (relative) of k pi or of k pi / alpha, k <= 4, and its Cauchy data
NEAR_KERNEL = st.tuples(
    st.integers(1, 4), st.booleans(), st.floats(-14.0, -4.0), st.sampled_from((-1.0, 1.0)), AMPS, AMPS
)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.just(math.sqrt(2.0)), st.floats(1.2, 1.8, exclude_min=True, exclude_max=True)),
    st.lists(NEAR_KERNEL, min_size=1, max_size=6),
)
def test_float_solves_hold_to_the_problems_condition_number(alpha, draws):
    # each draw a one-mode solve, so each report's conditioning is its own mode's; the phase
    # factor 1 + max |t lam| covers the rounding of t lam itself
    for k, over_alpha, digits, sign, u0, g in draws:
        lam = k * math.pi / (alpha if over_alpha else 1.0) * (1.0 + sign * 10.0**digits)
        (f0, f1, fa), (kappa3, kappa2) = oracle_snapshots(lam, alpha, u0, g)
        assert_held_to_kappa(snap.three_snapshot_solve(f0, f1, fa, alpha), (lam,), g, kappa3, alpha * lam)
        if not over_alpha:
            assert_held_to_kappa(snap.two_snapshot_solve(f0, f1), (lam,), g, kappa2, lam)


# one sphere key (l, 1) on S^n and a time within 1e-14 to 1e-4 (relative) of k pi / w, k <= 6, and its Cauchy data
NEAR_SPHERE_KERNEL = st.tuples(
    st.integers(2, 5), st.integers(0, 60), st.integers(1, 6), st.floats(-14.0, -4.0), st.sampled_from((-1.0, 1.0)),
    AMPS, AMPS,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(NEAR_SPHERE_KERNEL, min_size=1, max_size=6))
def test_sphere_two_solve_holds_to_the_problems_condition_number(draws):
    # the float two-snapshot solve at time alpha on one-key sphere data, against the time-alpha
    # amplitude and kappa = w / |sin(alpha w)| at 50 digits
    for n, l, k, digits, sign, u0, g in draws:
        w = l + (n - 1) / 2
        alpha = k * math.pi / w * (1.0 + sign * 10.0**digits)
        with mpmath.workdps(50):
            phase = mpmath.mpf(alpha) * w
            amp = complex(mpmath.cos(phase) * mpmath.mpc(u0) + mpmath.sin(phase) / w * mpmath.mpc(g))
            kappa = float(w / abs(mpmath.sin(phase)))
        f0, fa = sph.sphere_field(n, [(l, 1, u0)]), sph.sphere_field(n, [(l, 1, amp)])
        assert_held_to_kappa(snap.two_snapshot_solve(f0, fa, alpha), (l, 1), g, kappa, alpha * w)


def test_the_time_one_equation_alone_fails_the_three_snapshot_oracle():
    # the oracle's negative control: at lam = pi + 1e-13 the time-1 equation divides by
    # sin(lam) ~ 1e-13, the old first-equation rule's choice, and misses the bound ~2e11-fold
    alpha, lam, u0, g = math.sqrt(2.0), math.pi + 1e-13, 0.6 - 0.3j, 0.8 + 0.1j
    (f0, f1, fa), (kappa, _) = oracle_snapshots(lam, alpha, u0, g)
    assert kappa < 4.0
    alone = snap.two_snapshot_solve(f0, f1)
    assert alone.status == snap.STATUS_UNIQUE
    assert oracle_ratio(alone, (lam,), g, kappa, alpha * lam) > 1e9
    rep = snap.three_snapshot_solve(f0, f1, fa, alpha)
    assert rep.status == snap.STATUS_UNIQUE
    assert_held_to_kappa(rep, (lam,), g, kappa, alpha * lam)


def test_three_snapshot_rejects_degenerate_alpha():
    f = field(1, [((1.0,), 1.0)])
    # a non-finite alpha made the time-alpha equation NaN, which max() dropped: Unique whatever falpha held
    for alpha in (0.0, 1.0, Fraction(1), math.nan, math.inf, -math.inf):
        with pytest.raises(snap.InvalidTime):
            snap.three_snapshot_solve(f, f, f, alpha)


def test_solves_reject_times_that_resolve_no_phase():
    # at |t w| >= 2^50 the kernel threshold reaches 1: both modes came back as kernel modes of an
    # Obstructed solve, though sin(1e300 w) is -0.82 and 0.29 there
    f = field(1, [((1.0,), 1.0), ((2.5,), 0.5)])
    ft = evolve(CauchyData(f, f), 1e300)  # a value needs no kernel decision
    with pytest.raises(snap.InvalidTime, match=re.escape("time 1e+300 resolves no phase at frequency 2.5")):
        snap.two_snapshot_solve(f, ft, 1e300)
    with pytest.raises(snap.InvalidTime, match="resolves no phase"):
        snap.three_snapshot_solve(f, f, f, 2.0**49)  # sin(alpha w) at w = 2.5 is a kernel decision
    assert snap.two_snapshot_solve(f, evolve(CauchyData(f, f), 1e14), 1e14).kernel_modes == ()


def test_three_snapshot_float_and_fraction_paths_agree():
    data = wave(1, [((0.7,), 1.0), ((2.3,), 1j)], [((0.7,), 2.0), ((2.3,), -1.0)])
    f0, f1 = evolve(data, 0.0), evolve(data, 1.0)
    falpha = evolve(data, 0.4)
    g_float = snap.three_snapshot_solve(f0, f1, falpha, 0.4).solution
    g_frac = snap.three_snapshot_solve(f0, f1, falpha, Fraction(2, 5)).solution
    assert max_abs_amp(subtract(g_float, g_frac)) < 1e-10


def test_three_snapshot_solves_name_f0s_dimension_first():
    # the float, Bezout and (p, q) paths read one mismatch text, f0's dimension first
    one, two = field(1, [((1.0,), 1.0)]), field(2, [((1.0, 0.0), 1.0)])
    solves = (
        lambda fa, fb: snap.three_snapshot_solve(one, fa, fb, 0.4),
        lambda fa, fb: snap.three_snapshot_solve(one, fa, fb, Fraction(2, 3)),
        lambda fa, fb: snap.rational_reconstruct(one, fa, fb, 2, 3),
    )
    for solve in solves:
        for fa, fb in ((two, one), (one, two)):
            with pytest.raises(fields.DimensionMismatch, match="^mixed dimensions 1 and 2$"):
                solve(fa, fb)


# -- rational reconstruction -------------------------------------------------


def test_rational_reconstruct_roundtrip():
    data = wave(2, [((1.0, 0.5), 1.0), ((0.3, 0.1), 1j)], [((1.0, 0.5), -2.0), ((0.3, 0.1), 0.5 + 0.5j)])
    f0 = evolve(data, 0.0)
    rep = snap.rational_reconstruct(f0, evolve(data, 2.0), evolve(data, 3.0), 2, 3)
    assert rep.status == snap.STATUS_UNIQUE
    assert max_abs_amp(subtract(rep.solution, data.velocity)) < 1e-9 * (1 + rep.conditioning)
    assert rep.residual <= 1e-9


def test_rational_reconstruct_validates_pair():
    f = field(1, [((1.0,), 1.0)])
    for p, q, msg in ((2, 4, "need coprime times"), (3, 3, "need distinct times"), (0, 3, "need positive integer")):
        with pytest.raises(snap.InvalidTime, match=msg):
            snap.rational_reconstruct(f, f, f, p, q)


def test_rational_reconstruct_rejects_non_wave_data():
    data = wave(1, [((0.9,), 1.0)], [((0.9,), 1.0)])
    f0 = evolve(data, 0.0)
    fp = linear_combine([1.0, 1.0], [evolve(data, 2.0), field(1, [((0.9,), 0.5)])])
    rep = snap.rational_reconstruct(f0, fp, evolve(data, 3.0), 2, 3)
    assert rep.status == snap.STATUS_OBSTRUCTED and rep.solution is None
    assert rep.residual > snap.RATIONAL_GATE_TOL
    assert rep.note == f"snapshot compatibility residual {rep.residual:.3e} exceeds 1.0e-09"


# -- bezout ------------------------------------------------------------------


def test_bezout_table():
    assert snap.bezout(2, 3) == (-1, 1)
    assert snap.bezout(1, 2) == (1, 0)
    assert snap.bezout(5, 7) == (3, -2)
    assert snap.bezout(3, 1) == (0, 1)
    assert snap.bezout(1, 1) == (0, 1)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_bezout_identity_and_size(p, q):
    if math.gcd(p, q) != 1:
        with pytest.raises(snap.InvalidTime, match=rf"^gcd\({p}, {q}\) != 1$"):
            snap.bezout(p, q)
        return
    k, l = snap.bezout(p, q)
    assert k * p + l * q == 1
    if q > 1:
        assert abs(k) <= q  # representative chosen small


def test_bezout_gate_failure_is_one_obstructed_report():
    # the Bezout gate fails the same way through both solvers: snapshots at
    # integer times (0, p, q) and at the rescaled times (0, p/q, 1)
    data = wave(2, [((1.0, 0.5), 1.0), ((0.3, 0.1), 1j)], [((1.0, 0.5), -2.0), ((0.3, 0.1), 0.5 + 0.5j)])
    f0, bump = evolve(data, 0.0), field(2, [((0.3, 0.1), 1e-3)])
    for p, q in ((2, 3), (3, 5)):
        fp, fq, f1, fa = (evolve(data, t) for t in (float(p), float(q), 1.0, p / q))
        bad_p, bad_a = (linear_combine([1.0, 1.0], [f, bump]) for f in (fp, fa))
        for genuine, gp, ga in ((True, fp, fa), (False, bad_p, bad_a)):
            reports = snap.rational_reconstruct(f0, gp, fq, p, q), snap.three_snapshot_solve(f0, f1, ga, Fraction(p, q))
            for rep in reports:
                assert isinstance(rep, snap.SolveReport), (p, q, genuine)
                if genuine:  # the negative control
                    assert rep.status != snap.STATUS_OBSTRUCTED and rep.solution is not None, (p, q)
                    continue
                assert rep.status == snap.STATUS_OBSTRUCTED and rep.solution is None, (p, q)
                assert rep.residual > snap.RATIONAL_GATE_TOL, (p, q)
                assert (rep.conditioning, rep.kernel_modes) == (0.0, ()), (p, q)
                assert rep.note == f"snapshot compatibility residual {rep.residual:.3e} exceeds 1.0e-09", (p, q)


def test_rational_reconstruct_kernel_at_pi_modes():
    # velocity at radius pi cannot be seen from any integer time
    lam = math.pi
    data = wave(1, [((lam,), 1.0), ((1.3,), 1.0)], [((lam,), 1.0), ((1.3,), -1.0)])
    f0 = evolve(data, 0.0)
    rep = snap.rational_reconstruct(f0, evolve(data, 2.0), evolve(data, 3.0), 2, 3)
    assert rep.status == snap.STATUS_NONUNIQUE
    assert rep.kernel_modes == ((lam,),)
    assert abs(rep.solution.amplitude_at((1.3,)) + 1.0) < 1e-10


def test_rational_reconstruct_obstructed_kernel_data():
    # data proportional to (Psi_2, Psi_3) at radius pi passes the identity
    # gate yet has no preimage: the kernel amplitude cannot be produced
    lam = math.pi
    u0 = field(1, [((lam,), 1.0)])
    fp = field(1, [((lam,), 0.0)])  # cos(2 pi) u0 + Psi_2(pi) * 0.5 = 1 - 1
    fq = field(1, [((lam,), 0.5)])  # cos(3 pi) u0 + Psi_3(pi) * 0.5 = -1 + 1.5
    rep = snap.rational_reconstruct(u0, fp, fq, 2, 3)
    assert rep.status == snap.STATUS_OBSTRUCTED


# -- the Liouville demonstration ---------------------------------------------


def test_liouville_demo_rows():
    rows = snap.liouville_obstruction_demo(3)
    assert [r.k for r in rows] == [1, 2, 3]
    assert [r.q for r in rows] == [10, 100, 10**6]
    assert all(r.certified for r in rows)
    logs = [r.amplitude_log10 for r in rows]
    assert logs == sorted(logs) and logs[-1] > 5  # super-polynomial growth


def test_liouville_demo_certified_through_six():
    rows = snap.liouville_obstruction_demo(6)
    assert all(r.certified for r in rows)
    assert rows[-1].amplitude_log10 > 700


def test_liouville_demo_bounds():
    with pytest.raises(ValueError):
        snap.liouville_obstruction_demo(0)
    with pytest.raises(diophantine.PrecisionExhausted):
        snap.liouville_obstruction_demo(7)


def reference_liouville_rows(k_max):
    """The demo's rows computed in ascending k, one row after another, each
    from the convergent built afresh at its k and delta from its bounds in
    lowest terms."""
    depth = diophantine.FACTORIAL_DEPTH_CAP
    alpha = diophantine.liouville_truncation(10, (1,) * depth, depth)
    rows = []
    for k in range(1, k_max + 1):
        qk, _, lo, hi, den = ref.convergent_pair(alpha, k)
        dlo, dhi = Fraction(lo, den), Fraction(hi, den)  # in lowest terms
        with mpmath.workdps(30):
            delta = mpmath.mpf(dlo.numerator) / mpmath.mpf(dlo.denominator)
            sin_val = mpmath.sin(mpmath.pi * delta)
            amp = mpmath.pi / (sin_val * mpmath.mpf(qk) ** (k - 1))
            rows.append(
                snap.LiouvilleRow(
                    k=k,
                    q=qk,
                    sin_abs=mpmath.nstr(sin_val, 8),
                    amplitude=mpmath.nstr(amp, 8),
                    amplitude_log10=float(mpmath.log10(amp)),
                    certified=bool(dhi * qk ** (k - 1) < 1),
                )
            )
    return tuple(rows)


def test_liouville_demo_deepest_row_first(monkeypatch):
    # one chain from k_max down; its convergents are counted as the demo draws them
    calls, drawn = [], []
    convergent_chain = diophantine.convergent_chain

    def counted(x, k):
        calls.append(k)
        for c in convergent_chain(x, k):
            drawn.append(c.q)
            yield c

    monkeypatch.setattr(diophantine, "convergent_chain", counted)
    with pytest.raises(diophantine.PrecisionExhausted):
        snap.liouville_obstruction_demo(7)
    assert (calls, drawn) == ([], [])  # k_max = 7 is refused before the series, let alone a chain, is built
    calls.clear()
    rows = snap.liouville_obstruction_demo(6)
    assert (calls, drawn) == ([6], [10 ** math.factorial(k) for k in range(6, 0, -1)])
    monkeypatch.undo()
    assert rows == reference_liouville_rows(6)
    assert [r.k for r in rows] == [1, 2, 3, 4, 5, 6]


def test_nstr8_matches_mpmath_away_from_ties():
    # the demo's display formatter against mpmath.nstr(x, 8): carries into a new
    # leading digit, both edges of the fixed-point range, and the demo's exponents.
    # mpmath rounds through a binary value, so mantissas within a thousandth of an
    # eighth-digit unit of a rounding tie are left out
    rng = random.Random(38)
    values = ["9.999999951", "99999999.6", "0.0000999999996", "0.00001", "12345678", "123456789", "1e720"]
    for e in [*range(-20, 5), -4330, -4320, 710, 720]:
        mantissas = (rng.randrange(10**11, 10**12) for _ in range(40))
        values += [f"{m}e{e}" for m in mantissas if not 4990 <= m % 10**4 <= 5010]
    for v in values:
        with mpmath.workdps(30):
            want = mpmath.nstr(mpmath.mpf(v), 8)
        assert snap._nstr8(decimal.Decimal(v)) == want, v


def solve_outcome(solve, *args):
    """A solve's report with every float as hex (signs of zeros included),
    or the exception it raised."""
    try:
        rep = solve(*args)
    except Exception as exc:  # the reference must raise the same
        return type(exc), str(exc)
    sol = rep.solution
    columns = None
    if sol is not None:
        amps = [(a.real.hex(), a.imag.hex()) for a in sol.amps]
        columns = (type(sol), sol.keys, [w.hex() for w in sol.freqs], amps)
    return rep.status, rep.note, rep.kernel_modes, rep.residual.hex(), rep.conditioning.hex(), columns


def planted_wave(rng, keys, kernel_keys, near_keys):
    """Random Cauchy data on `keys`, plus kernel and near-kernel keys in both
    fields; some random keys carry only a position, some only a velocity."""
    def amp():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    shared = list(kernel_keys) + list(near_keys)
    u0 = [(k, amp()) for k in keys[: 2 * len(keys) // 3] + shared]
    g = [(k, amp()) for k in keys[len(keys) // 3 :] + shared]
    return u0, g


def perturbed(f, key, by=1e-6):
    bump = dataclasses.replace(f, keys=(key,), freqs=(f.freqs[f.keys.index(key)],), amps=(by,))
    return linear_combine([1.0, 1.0], [f, bump])


def equation_cases(rng):
    """Hand-built equation columns over twelve keys on the line, as
    (like, equations, gains): two equations whose first is zero at some keys,
    kernel keys whose right sides obstruct or stay within tolerance, keys over
    their own consistency bound next to a worse key within its larger one,
    three equations, and one equation with gains."""
    like = field(1, [((float(k),), 1.0) for k in range(1, 13)])
    g = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in like.keys]

    def equation(zero_at, tiny_at=(), off=None):
        s = [0.0 if i in zero_at else rng.choice((1.0, -1.0)) * rng.uniform(0.1, 2.0) for i in range(12)]
        for i in tiny_at:
            s[i] = 1e-7
        r = [si * gi for si, gi in zip(s, g)]
        for i, by in (off or {}).items():
            r[i] += by
        return s, [i in zero_at for i in range(12)], r

    cases = [
        [equation({2, 5, 7}), equation({7})],
        [equation({2, 5, 7}, off={2: 3e-3, 7: 1e-13}), equation({7}, off={7: -1e-13})],
        [equation({2, 5, 7}, off={7: 1e-3}), equation({7})],
        [equation({0}, tiny_at=(4,)), equation(set(), off={3: 5e-9, 4: 1e-5, 9: 7e-9})],
        [equation({1, 3}), equation({1}), equation(set(), off={1: 2e-8, 3: 4e-9})],
    ]
    out = [(like, eqs, None) for eqs in cases]
    out.append((like, [equation({6}, off={6: 1e-14})], [rng.uniform(0.0, 3.0) for _ in range(12)]))
    return out


def row_of(equations, gains):
    """The row callback of `ref.row_diagonal_solve` that reads hand-built equation columns."""
    def row(key, lam, amp):
        i = int(key[0]) - 1
        return tuple((s[i], z[i], r[i]) for s, z, r in equations), 1.0 if gains is None else gains[i]

    return row


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_column_solvers_match_the_row_loop(seed):
    # every solver's report equals the row-callback loop's in every field, bit
    # for bit, on kernel (radius k pi), near-kernel and obstructed data
    rng = random.Random(seed)
    pi = math.pi
    radii = [rng.uniform(0.05, 30.0) for _ in range(12)]
    angles = [rng.uniform(0.0, 2.0 * pi) for _ in radii]
    keys = [(r * math.cos(th) + 0.0, r * math.sin(th) + 0.0) for r, th in zip(radii, angles)]
    kernel = [(k * pi, 0.0) for k in (1, 2, 3, 6)] + [(0.0, 3 * pi)]
    near = [(k * pi * (1 + d), 0.0) for k, d in ((1, 1e-15), (2, -3e-13), (3, 1e-10), (4, 2e-16))]
    half = (0.0, pi / 2)  # in the kernel of S_2, not of S_1
    u0, g = planted_wave(rng, keys, kernel + [half], near)
    data = CauchyData(field(2, u0), field(2, g))
    f0 = data.position
    snaps = {t: evolve(data, t) for t in (1.0, 0.5, 2.0, 3.0, math.sqrt(2.0), 2.0 / 3.0)}
    cases = [
        (snap.two_snapshot_solve, ref.two_snapshot_solve, (f0, snaps[1.0])),
        (snap.two_snapshot_solve, ref.two_snapshot_solve, (f0, snaps[0.5], 0.5)),
        (snap.two_snapshot_solve, ref.two_snapshot_solve, (f0, perturbed(snaps[1.0], kernel[0]))),
        (snap.two_snapshot_solve, ref.two_snapshot_solve, (f0, perturbed(snaps[1.0], keys[0]))),
    ]
    # at radius pi, Psi_3 = 3 and Psi_2 = -2: windows d and -1.5 d pass the
    # compatibility gate but are kernel data, so the larger one obstructs
    for fp, fq in (
        (snaps[2.0], snaps[3.0]),
        (perturbed(snaps[2.0], kernel[1], 1e-13), snaps[3.0]),
        (perturbed(snaps[2.0], keys[-1]), snaps[3.0]),
        (perturbed(snaps[2.0], kernel[0]), perturbed(snaps[3.0], kernel[0], -1.5e-6)),
    ):
        cases.append((snap.rational_reconstruct, ref.rational_reconstruct, (f0, fp, fq, 2, 3)))
    for alpha in (math.sqrt(2.0), 0.5, 2.0, Fraction(2, 3)):
        falpha = snaps[float(alpha)]
        for fa in (falpha, perturbed(falpha, kernel[2]), perturbed(falpha, keys[1], 1e-3), perturbed(falpha, half)):
            cases.append((snap.three_snapshot_solve, ref.three_snapshot_solve, (f0, snaps[1.0], fa, alpha)))
    # the same at radius 3 pi for alpha = 2/3, whose Bezout step is 1/3
    f1 = perturbed(snaps[1.0], kernel[2], -1.5e-6)
    cases.append((snap.three_snapshot_solve, ref.three_snapshot_solve, (f0, f1, perturbed(falpha, kernel[2]), alpha)))
    # without near-kernel modes the conditioning is moderate, so a perturbed
    # third snapshot fails the cross-equation check
    plain = CauchyData(*(field(2, [(k, a) for k, a in entries if k not in near]) for entries in (u0, g)))
    fa = perturbed(evolve(plain, math.sqrt(2.0)), keys[1], 1e-3)
    args = (plain.position, evolve(plain, 1.0), fa, math.sqrt(2.0))
    cases.append((snap.three_snapshot_solve, ref.three_snapshot_solve, args))
    # integer frequencies on the line, at exact times beta pi
    u0, g = planted_wave(rng, [(float(k),) for k in rng.sample(range(1, 40), 12)], [(3.0,), (6.0,)], [])
    line = CauchyData(field(1, u0), field(1, g))
    for beta in (Fraction(1, 3), Fraction(2, 5)):
        cases.append((snap.two_snapshot_solve, ref.two_snapshot_solve, (line.position, evolve(line, beta), beta)))
    # S^3: frequency w = l + 1, so pi/2 and exact pi/2, pi/3 have kernels at even w and at w in 3Z
    lm = sorted({(l, rng.randint(1, (l + 1) ** 2)) for l in (rng.randint(0, 30) for _ in range(14))})
    u0, g = planted_wave(rng, lm, [(1, 2), (2, 5), (5, 30)], [])
    on_sphere = CauchyData(*(sph.sphere_field(3, [(l, m, a) for (l, m), a in entries]) for entries in (u0, g)))
    for alpha in (0.7, pi / 2, Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
        fa = evolve(on_sphere, alpha)
        for falpha in (fa, perturbed(fa, (5, 30))):
            args = (on_sphere.position, falpha, alpha)
            cases.append((sph.sphere_two_snapshot_solve, ref.sphere_two_snapshot_solve, args))
    # the Bezout path on S^3, at integer times (2, 3) and at alpha = 2/3; a
    # perturbed snapshot fails the compatibility gate
    s0 = on_sphere.position
    s1, s2, s3, s23 = (evolve(on_sphere, t) for t in (1.0, 2.0, 3.0, 2.0 / 3.0))
    bad = perturbed(s2, (5, 30))
    assert solve_outcome(snap.rational_reconstruct, s0, bad, s3, 2, 3)[0] == snap.STATUS_OBSTRUCTED
    for fp in (s2, bad):
        cases.append((snap.rational_reconstruct, ref.rational_reconstruct, (s0, fp, s3, 2, 3)))
    for fa in (s23, perturbed(s23, (5, 30))):
        cases.append((snap.three_snapshot_solve, ref.three_snapshot_solve, (s0, s1, fa, Fraction(2, 3))))
    for solve, reference, args in cases:
        assert solve_outcome(solve, *args) == solve_outcome(reference, *args), (solve.__name__, args[-1])
    # `diagonal_solve` itself on hand-built columns, the notes included
    for like, equations, gains in equation_cases(rng):
        got = solve_outcome(snap.diagonal_solve, like, like.keys, like.freqs, equations, "kernel", gains)
        want = solve_outcome(ref.row_diagonal_solve, (like,), (like,), row_of(equations, gains), "kernel")
        assert got == want, (len(equations), got[:2])


def solver_cases():
    """Genuine snapshots, taken before any patch, for each solve with a
    post-check: two snapshots, three with a Fraction alpha, the integer
    Bezout solve and two snapshots on S^3, each with a pattern for the tail
    of its post-check note."""
    data = CauchyData(field(2, [((0.6, 0.8), 1.0), ((1.5, -2.0), 0.5j)]), field(2, [((0.6, 0.8), 0.3), ((-2.2, 0.1), 1.0)]))
    f0 = data.position
    f1, f2, f3, f23 = (evolve(data, t) for t in (1.0, 2.0, 3.0, 2.0 / 3.0))
    on_sphere = CauchyData(sph.sphere_field(3, [(1, 2, 1.0), (2, 1, 0.5j)]), sph.sphere_field(3, [(1, 2, -0.25), (4, 3, 1.0)]))
    k, l = snap.bezout(2, 3)
    bezout = f": bezout k={k}, l={l}; residual at t={{}}: [0-9.e+-]+, t={{}}: [0-9.e+-]+"
    return [
        (snap.two_snapshot_solve, (f0, f1), ""),
        (snap.three_snapshot_solve, (f0, f1, f23, Fraction(2, 3)), bezout.format("0.666667", 1)),
        (snap.rational_reconstruct, (f0, f2, f3, 2, 3), bezout.format(2, 3)),
        (sph.sphere_two_snapshot_solve, (on_sphere.position, evolve(on_sphere, 0.7), 0.7), ""),
    ]


def test_post_check_fails_on_a_perturbed_evolve(monkeypatch):
    # the post-verification gate's negative control: evolve's column rule off by 1e-6 at one key
    cases = solver_cases()
    for solve, args, _ in cases:
        assert solve(*args).status == snap.STATUS_UNIQUE
    rule = snap.evolve_column

    def nudged(t, freqs, x, y):
        amps = rule(t, freqs, x, y)
        amps[0] += 1e-6
        return amps

    monkeypatch.setattr(snap, "evolve_column", nudged)
    for solve, args, tail in cases:
        rep = solve(*args)
        assert rep.status == snap.STATUS_OBSTRUCTED and rep.solution is None, (solve, rep)
        assert re.fullmatch("post-verification failed" + tail, rep.note), rep.note
        assert rep.residual > 5e-7


def test_each_solve_takes_one_union(monkeypatch):
    # the post-checks read the columns the solve built, with no union of their own
    calls = []
    union = fields.union_columns

    def counted(*args):
        calls.append(args)
        return union(*args)

    cases = solver_cases()
    monkeypatch.setattr(fields, "union_columns", counted)
    monkeypatch.setattr(snap, "union_columns", counted)
    for solve, args, _ in cases:
        calls.clear()
        assert solve(*args).status == snap.STATUS_UNIQUE
        assert len(calls) == 1, solve
