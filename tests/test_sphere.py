import math
from fractions import Fraction

import pytest
import scipy.special

from wavesnap import diophantine as dio, sphere as sph
from wavesnap.fields import DimensionMismatch, field, linear_combine
from wavesnap.propagators import symbol_Psi
from wavesnap.snapshots import STATUS_NONUNIQUE, STATUS_OBSTRUCTED, STATUS_UNIQUE, CauchyData, evolve


def test_harmonic_dimensions():
    assert [sph.dim_Hl(2, l) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [sph.dim_Hl(3, l) for l in range(5)] == [1, 4, 9, 16, 25]
    assert sph.dim_Hl(4, 2) == 14
    assert sph.dim_Hl(5, 3) == 50


def test_eigenvalue_and_frequency():
    # Delta acts by -l(l+n-1); the shifted frequency is l + (n-1)/2
    assert sph.laplace_eigenvalue(3, 4) == -24
    assert sph.frequency(3, 4) == 5.0
    assert sph.frequency(2, 4) == 4.5
    # shift closes the square: w^2 = -eigenvalue + ((n-1)/2)^2
    for n in (2, 3, 4, 5):
        for l in (0, 1, 7):
            w = sph.frequency(n, l)
            assert w * w == pytest.approx(-sph.laplace_eigenvalue(n, l) + ((n - 1) / 2) ** 2)


def test_gegenbauer_phi_matches_scipy():
    grid = [-1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0]
    for n in (2, 3, 4, 5):
        lam = (n - 1) / 2.0
        for l in range(13):
            norm = scipy.special.eval_gegenbauer(l, lam, 1.0)
            for c in grid:
                want = scipy.special.eval_gegenbauer(l, lam, c) / norm
                assert sph.gegenbauer_phi(n, l, c) == pytest.approx(want, abs=1e-12)


def test_gegenbauer_phi_endpoints():
    for n in (2, 3, 4):
        for l in range(9):
            assert sph.gegenbauer_phi(n, l, 1.0) == pytest.approx(1.0, abs=1e-14)
            assert sph.gegenbauer_phi(n, l, -1.0) == pytest.approx((-1.0) ** l, abs=1e-13)


def test_zonal_value_single_degree():
    f = sph.sphere_field(3, [(4, 1, 2.0)])
    c = 0.37
    want = 2.0 * math.sqrt(sph.dim_Hl(3, 4)) * sph.gegenbauer_phi(3, 4, c)
    assert sph.zonal_value(f, c) == pytest.approx(want)


def test_sphere_field_merges_and_validates():
    f = sph.sphere_field(2, [(1, 2, 1.0), (1, 2, 0.5j)])
    assert f.amplitude_at(1, 2) == 1 + 0.5j
    with pytest.raises(ValueError):
        sph.sphere_field(2, [(1, 4, 1.0)])  # m beyond dim H_1 = 3
    with pytest.raises(ValueError):
        sph.sphere_field(2, [(-1, 1, 1.0)])
    with pytest.raises(ValueError):
        sph.sphere_field(1, [(0, 1, 1.0)])  # n >= 2


def test_sphere_json_roundtrip(tmp_path):
    f = sph.sphere_field(3, [(0, 1, 1j), (5, 7, 0.25)])
    assert sph.sphere_field_from_json(sph.sphere_field_to_json(f)) == f
    p = tmp_path / "s.json"
    sph.save_sphere_field(f, str(p))
    assert sph.load_sphere_field(str(p)) == f


# -- Schur constants ---------------------------------------------------------


def test_schur_sin_exact_zero_pattern():
    # n = 3, beta = 1/2: frequency l+1, sin((l+1) pi / 2) vanishes iff l odd
    for l in range(8):
        value, exact_zero = sph.schur_sin(3, l, Fraction(1, 2))
        assert exact_zero == (l % 2 == 1)
        if not exact_zero:
            assert value != 0.0


def test_schur_sin_never_zero_for_odd_numerator_even_sphere():
    # n = 2: frequency l + 1/2; (2l+1) p odd*odd never divisible by 2q
    for l in range(50):
        _, exact_zero = sph.schur_sin(2, l, Fraction(1, 3))
        assert not exact_zero


def test_schur_sin_fraction_matches_float():
    for n, l, p, q in ((3, 5, 2, 7), (2, 9, 3, 5), (5, 2, 1, 4)):
        exact, _ = sph.schur_sin(n, l, Fraction(p, q))
        w = sph.frequency(n, l)
        assert exact == pytest.approx(math.sin(w * math.pi * p / q) / w, abs=1e-12)


def test_schur_cos_and_psi_consistent():
    alpha = 0.83
    for n, l in ((3, 4), (2, 6)):
        w = sph.frequency(n, l)
        assert sph.schur_cos(n, l, alpha) == pytest.approx(math.cos(w * alpha), abs=1e-14)
        # Psi recursion in m at fixed degree
        for m in range(-3, 7):
            want = 0.0
            if math.sin(w * alpha) != 0:
                want = math.sin(m * w * alpha) / math.sin(w * alpha)
            assert symbol_Psi(m, alpha)(w) == pytest.approx(want, abs=1e-9)


# -- evolution and snapshots --------------------------------------------------


def test_sphere_evolve_mode_closed_form():
    f0 = sph.sphere_field(3, [(2, 3, 1.0)])
    g = sph.sphere_field(3, [(2, 3, 1.0)])
    w = 3.0  # l=2, n=3
    t = 0.9
    u = evolve(CauchyData(f0, g), t)
    assert u.amplitude_at(2, 3) == pytest.approx(math.cos(w * t) + math.sin(w * t) / w, abs=1e-15)


def test_sphere_snapshot_matches_direct_evolution():
    # a negative alpha puts the snapshot pair at (alpha, 0)
    for n, alpha in ((2, 0.41), (3, -0.45)):
        data = CauchyData(
            sph.sphere_field(n, [(l, 1, 0.7**l) for l in range(6)]),
            sph.sphere_field(n, [(l, 1, (-0.5) ** l * 1j) for l in range(6)]),
        )
        ua = evolve(data, alpha)
        for m in (-3, 0, 1, 2, 5):
            via = sph.sphere_snapshot(data.position, ua, alpha, m)
            direct = evolve(data, m * alpha)
            worst = max(abs(via.amplitude_at(l, 1) - direct.amplitude_at(l, 1)) for l in range(6))
            assert worst < 1e-12


def test_mixed_bases_rejected():
    flat = field(1, [((1.0,), 1.0)])
    s2 = sph.sphere_field(2, [(1, 1, 1.0)])
    s3 = sph.sphere_field(3, [(1, 1, 1.0)])
    for a, b, err in ((flat, s2, DimensionMismatch), (s2, flat, DimensionMismatch), (s2, s3, sph.ParamsMismatch)):
        with pytest.raises(err):
            linear_combine([1.0, 1.0], [a, b])
        with pytest.raises(err):
            CauchyData(a, b)
    with pytest.raises(sph.ParamsMismatch):
        sph.sphere_two_snapshot_solve(s2, s3, 0.5)


def test_huygens_needs_odd_sphere_and_zonal_data():
    zf = sph.sphere_field(3, [(1, 1, 1.0)])
    nz = sph.sphere_field(3, [(1, 2, 1.0)])
    with pytest.raises(ValueError):
        sph.huygens_antipodal_check(nz, zf, [0.5])
    ef = sph.sphere_field(2, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        sph.huygens_antipodal_check(ef, ef, [0.5])


def test_huygens_antipodal_focusing():
    # u(pole, t + pi) = -u(antipode, t) on S^3 for odd zonal data
    f0 = sph.sphere_field(3, [(l, 1, 0.6**l) for l in range(8)])
    g = sph.sphere_field(3, [(l, 1, -(0.4**l)) for l in range(8)])
    times = [0.1 + 0.3 * k for k in range(15)]
    assert sph.huygens_antipodal_check(f0, g, times) < 1e-11


# -- the solver ---------------------------------------------------------------


def test_sphere_solve_roundtrip_float_alpha():
    f0 = sph.sphere_field(2, [(l, 1, 1.0 / (1 + l)) for l in range(9)])
    g = sph.sphere_field(2, [(l, 1, complex(l, -l) / 9) for l in range(9)])
    alpha = 0.77
    rep = sph.sphere_two_snapshot_solve(f0, evolve(CauchyData(f0, g), alpha), alpha)
    assert rep.status == STATUS_UNIQUE
    worst = max(abs(rep.solution.amplitude_at(l, 1) - g.amplitude_at(l, 1)) for l in range(9))
    assert worst <= 1e-9 * (1 + rep.conditioning)


def test_sphere_solve_alpha_pi_kernel():
    # alpha = pi on S^3: every frequency is an integer, so nothing of g survives
    f0 = sph.sphere_field(3, [(2, 1, 1.0)])
    g = sph.sphere_field(3, [(2, 1, 4.0)])
    falpha = evolve(CauchyData(f0, g), math.pi)
    rep = sph.sphere_two_snapshot_solve(f0, falpha, Fraction(1, 1))
    assert rep.status == STATUS_NONUNIQUE
    assert (2, 1) in rep.kernel_coeffs
    assert rep.solution.amplitude_at(2, 1) == 0


def test_sphere_solve_obstructed_at_exact_zero():
    # tampered kernel coefficient: cos((l+1)pi) f0 is the only reachable value
    f0 = sph.sphere_field(3, [(2, 1, 1.0)])
    falpha = sph.sphere_field(3, [(2, 1, 0.3)])
    rep = sph.sphere_two_snapshot_solve(f0, falpha, Fraction(1, 1))
    assert rep.status == STATUS_OBSTRUCTED


def test_sphere_solve_respects_max_degree():
    f0 = sph.sphere_field(2, [(300, 1, 1.0)])
    with pytest.raises(ValueError):
        sph.sphere_two_snapshot_solve(f0, f0, 0.5, max_degree=256)


# -- margins and classification ----------------------------------------------


def test_margin_positive_for_third_of_pi_on_even_sphere():
    c, passes = sph.surjectivity_margin(Fraction(1, 3), 2, 2000, 1)
    assert passes and c > 0.4  # |sin((2l+1) pi/6)| >= 1/2, so (1+l)/w keeps C near 1/2


def test_margin_zero_on_exact_resonance():
    c, passes = sph.surjectivity_margin(Fraction(1, 2), 3, 500, 3)
    assert not passes and c == 0.0


def test_margin_float_alpha_smoke():
    c, passes = sph.surjectivity_margin(math.sqrt(2.0) * math.pi, 3, 2000, 3)
    assert passes and c > 0


def test_classification_odd_sphere():
    assert sph.classify_alpha(dio.rational_number(Fraction(1, 2)), 3).verdict == sph.VERDICT_NON_UNIQUE
    assert sph.classify_alpha(dio.sqrt2_class(), 3).verdict == sph.VERDICT_SOLVABLE
    liou = dio.liouville_truncation(10, (1, 1, 1, 1), 4)
    assert sph.classify_alpha(liou, 3).verdict == sph.VERDICT_NOT_ALWAYS
    assert sph.classify_alpha(liou, 5).verdict == sph.VERDICT_NOT_ALWAYS


def test_classification_even_sphere_rationals():
    odd_num = sph.classify_alpha(dio.rational_number(Fraction(1, 3)), 2)
    assert odd_num.verdict == sph.VERDICT_SOLVABLE
    even_num = sph.classify_alpha(dio.rational_number(Fraction(2, 5)), 2)
    assert even_num.verdict == sph.VERDICT_NON_UNIQUE
    # the reason strings name the divisibility that drives the verdict
    assert "6" in odd_num.reason
    assert "10" in even_num.reason


def test_classification_even_sphere_needs_half_certificate():
    with pytest.raises(dio.Unclassifiable):
        sph.classify_alpha(dio.liouville_truncation(10, (1, 1, 1), 3), 2)
    doubled_odd = dio.doubled(dio.ternary_odd_type_class(4))
    assert sph.classify_alpha(doubled_odd, 2).verdict == sph.VERDICT_NOT_ALWAYS
    doubled_binary = dio.doubled(dio.binary_factorial_class(4))
    assert sph.classify_alpha(doubled_binary, 2).verdict == sph.VERDICT_SOLVABLE


def test_classification_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sph.classify_alpha(dio.sqrt2_class(), 1)
