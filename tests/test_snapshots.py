import math
from fractions import Fraction

import pytest

from wavesnap import diophantine, snapshots as snap
from wavesnap.fields import field, linear_combine, max_abs_amp, subtract, zero_field
from wavesnap.snapshots import CauchyData, evolve


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


def test_wave_residual_second_order_in_h():
    data = wave(2, [((1.0, 1.5), 1.0), ((0.5, -0.2), 1j)], [((1.0, 1.5), 0.3), ((0.5, -0.2), -0.8)])
    r1 = snap.wave_residual(data, 0.7, 0.1)
    r2 = snap.wave_residual(data, 0.7, 0.05)
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
    with pytest.raises(snap.InvalidTimes):
        snap.general_integer_snapshot(f, f, 1.0, 1.0, 2)
    with pytest.raises(snap.InvalidTimes):
        snap.general_integer_snapshot(f, f, 2.0, 1.0, 2)


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
    assert rep.solvable


def test_two_snapshot_kernel_mode_free_when_consistent():
    # velocity at radius pi is invisible at integer times
    lam = math.pi
    data = wave(1, [((lam,), 1.0)], [((lam,), 5.0)])
    rep = snap.two_snapshot_solve(evolve(data, 0.0), evolve(data, 1.0))
    assert rep.status == snap.STATUS_NONUNIQUE
    assert rep.kernel_modes == ((lam,),)
    assert rep.solution.amplitude_at((lam,)) == 0  # free part set to zero


def test_two_snapshot_obstructed_by_inconsistent_kernel_data():
    lam = math.pi
    u0 = field(1, [((lam,), 1.0)])
    f1 = field(1, [((lam,), -0.9)])  # cos(pi) u0 = -u0; anything else is unreachable
    rep = snap.two_snapshot_solve(u0, f1)
    assert rep.status == snap.STATUS_OBSTRUCTED
    assert not rep.solvable


def test_kernel_modes_lists_sine_zeros():
    f = field(1, [((math.pi,), 1.0), ((1.0,), 1.0), ((2.0 * math.pi,), 1.0)])
    assert snap.kernel_modes(f, 1.0) == ((math.pi,), (2.0 * math.pi,))


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


def test_integer_compatibility_forms_consistent():
    # the (0,1,2) identity is the (0,p,q) identity composed with S_1; on
    # genuine data both vanish, on perturbed data they flag together
    data = wave(1, [((0.8,), 1.0)], [((0.8,), -1.0)])
    f0, f1, f2 = evolve(data, 0.0), evolve(data, 1.0), evolve(data, 2.0)
    assert snap.rational_compatibility_residual(f0, f1, f2, 1, 2) < 1e-13
    bad = linear_combine([1.0, 1.0], [f2, field(1, [((0.8,), 0.01)])])
    assert snap.rational_compatibility_residual(f0, f1, bad, 1, 2) > 1e-3


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


def test_three_snapshot_rejects_degenerate_alpha():
    f = field(1, [((1.0,), 1.0)])
    for alpha in (0.0, 1.0, Fraction(1)):
        with pytest.raises(snap.InvalidTime):
            snap.three_snapshot_solve(f, f, f, alpha)


def test_three_snapshot_float_and_fraction_paths_agree():
    data = wave(1, [((0.7,), 1.0), ((2.3,), 1j)], [((0.7,), 2.0), ((2.3,), -1.0)])
    f0, f1 = evolve(data, 0.0), evolve(data, 1.0)
    falpha = evolve(data, 0.4)
    g_float = snap.three_snapshot_solve(f0, f1, falpha, 0.4).solution
    g_frac = snap.three_snapshot_solve(f0, f1, falpha, Fraction(2, 5)).solution
    assert max_abs_amp(subtract(g_float, g_frac)) < 1e-10


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
    for p, q in ((2, 4), (3, 3), (0, 3)):
        with pytest.raises(snap.InvalidTimes):
            snap.rational_reconstruct(f, f, f, p, q)


def test_rational_reconstruct_rejects_non_wave_data():
    data = wave(1, [((0.9,), 1.0)], [((0.9,), 1.0)])
    f0 = evolve(data, 0.0)
    fp = linear_combine([1.0, 1.0], [evolve(data, 2.0), field(1, [((0.9,), 0.5)])])
    with pytest.raises(snap.IncompatibleData) as err:
        snap.rational_reconstruct(f0, fp, evolve(data, 3.0), 2, 3)
    assert err.value.residual > snap.RATIONAL_GATE_TOL


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
    assert not rep.solvable


# -- the Liouville demonstration ---------------------------------------------


def test_liouville_demo_rows():
    demo = snap.liouville_obstruction_demo(3)
    assert [r.k for r in demo.rows] == [1, 2, 3]
    assert [r.q for r in demo.rows] == [10, 100, 10**6]
    assert demo.all_certified
    logs = [r.amplitude_log10 for r in demo.rows]
    assert logs == sorted(logs) and logs[-1] > 5  # super-polynomial growth


def test_liouville_demo_certified_through_six():
    demo = snap.liouville_obstruction_demo(6)
    assert all(r.certified for r in demo.rows)
    assert demo.rows[-1].amplitude_log10 > 700


def test_liouville_demo_bounds():
    with pytest.raises(ValueError):
        snap.liouville_obstruction_demo(0)
    with pytest.raises(diophantine.PrecisionExhausted):
        snap.liouville_obstruction_demo(7)
