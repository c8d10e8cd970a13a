import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from wavesnap import diophantine as dio, experiments, sphere as sph
from wavesnap.fields import DimensionMismatch, field, field_from_json, json_text, linear_combine
from wavesnap.propagators import cos_at, sine_at, symbol_Psi
from wavesnap.snapshots import (
    STATUS_NONUNIQUE,
    STATUS_OBSTRUCTED,
    STATUS_UNIQUE,
    CauchyData,
    InvalidTime,
    evolve,
    general_integer_snapshot,
    two_snapshot_solve,
)

import references as ref


def test_harmonic_dimensions():
    assert [sph.dim_Hl(2, l) for l in range(5)] == [1, 3, 5, 7, 9]
    assert [sph.dim_Hl(3, l) for l in range(5)] == [1, 4, 9, 16, 25]
    assert sph.dim_Hl(4, 2) == 14
    assert sph.dim_Hl(5, 3) == 50


def laplace_eigenvalue(n, l):
    """Eigenvalue of the (unshifted) Laplacian on degree-l harmonics."""
    return -l * (l + n - 1)


def test_eigenvalue_and_frequency():
    # Delta acts by -l(l+n-1); the shifted frequency is l + (n-1)/2
    assert laplace_eigenvalue(3, 4) == -24
    assert sph.frequency(3, 4) == 5.0
    assert sph.frequency(2, 4) == 4.5
    # shift closes the square: w^2 = -eigenvalue + ((n-1)/2)^2
    for n in (2, 3, 4, 5):
        for l in (0, 1, 7):
            w = sph.frequency(n, l)
            assert w * w == pytest.approx(-laplace_eigenvalue(n, l) + ((n - 1) / 2) ** 2)


def phi(n, l, c):
    """The normalized zonal polynomial phi_l(c) = C_l(c) / C_l(1), read off the library's one recurrence."""
    return sph._gegenbauer(n, l, c)[l] / math.comb(l + n - 2, l)


def test_gegenbauer_phi_matches_scipy():
    grid = [-1.0, -0.7, -0.2, 0.0, 0.3, 0.9, 1.0]
    for n in (2, 3, 4, 5):
        lam = (n - 1) / 2.0
        for l in range(13):
            norm = scipy.special.eval_gegenbauer(l, lam, 1.0)
            for c in grid:
                want = scipy.special.eval_gegenbauer(l, lam, c) / norm
                assert phi(n, l, c) == pytest.approx(want, abs=1e-12)


def test_gegenbauer_phi_endpoints():
    for n in (2, 3, 4):
        for l in range(9):
            assert phi(n, l, 1.0) == pytest.approx(1.0, abs=1e-14)
            assert phi(n, l, -1.0) == pytest.approx((-1.0) ** l, abs=1e-13)


def test_zonal_value_single_degree():
    f = sph.sphere_field(3, [(4, 1, 2.0)])
    c = 0.37
    want = 2.0 * math.sqrt(sph.dim_Hl(3, 4)) * phi(3, 4, c)
    assert sph.zonal_values(f, sph.zonal_table([f], [c]))[0] == pytest.approx(want)


def test_sphere_field_merges_and_validates():
    f = sph.sphere_field(2, [(1, 2, 1.0), (1, 2, 0.5j)])
    assert ref.sphere_amplitude(f, 1, 2) == 1 + 0.5j
    with pytest.raises(ValueError):
        sph.sphere_field(2, [(1, 4, 1.0)])  # m beyond dim H_1 = 3
    with pytest.raises(ValueError):
        sph.sphere_field(2, [(-1, 1, 1.0)])
    with pytest.raises(ValueError):
        sph.sphere_field(1, [(0, 1, 1.0)])  # n >= 2
    # the readers' rule: l and m ints, amplitudes int, float or complex; no bool, no str
    assert sph.sphere_field(3, [(2, 1, 1), (0, 1, 0.5)]) == sph.sphere_field(3, [(2, 1, 1 + 0j), (0, 1, 0.5 + 0j)])
    for entries in ([(2.7, 1.9, 1.0)], [(2.0, 1, 1.0)], [(2, 1.0, 1.0)], [(True, 1, 1.0)], [(2, True, 1.0)],
                    [("2", 1, 1.0)], [(2, 1, True)], [(2, 1, "2")], [(2, 1, None)]):
        with pytest.raises(TypeError, match="is not a"):
            sph.sphere_field(3, entries)
    for n in (3.5, 3.0, True):
        with pytest.raises(TypeError, match="is not a JSON integer"):
            sph.sphere_field(n, [(0, 1, 1.0)])


def test_sphere_json_roundtrip(tmp_path):
    f = sph.sphere_field(3, [(0, 1, 1j), (5, 7, 0.25)])
    assert field_from_json(json.loads(json_text(f))) == f
    p = tmp_path / "s.json"
    sph.save_sphere_field(f, str(p))
    assert sph.load_sphere_field(str(p)) == f


# -- Schur constants ---------------------------------------------------------


def test_schur_sin_exact_zero_pattern():
    # n = 3, beta = 1/2: frequency l+1, sin((l+1) pi / 2) vanishes iff l odd
    for l in range(8):
        value, exact_zero = sine_at(Fraction(1, 2), sph.frequency(3, l))
        assert exact_zero == (l % 2 == 1)
        if not exact_zero:
            assert value != 0.0


def test_schur_sin_never_zero_for_odd_numerator_even_sphere():
    # n = 2: frequency l + 1/2; (2l+1) p odd*odd never divisible by 2q
    for l in range(50):
        _, exact_zero = sine_at(Fraction(1, 3), sph.frequency(2, l))
        assert not exact_zero


def test_schur_sin_fraction_matches_float():
    for n, l, p, q in ((3, 5, 2, 7), (2, 9, 3, 5), (5, 2, 1, 4)):
        w = sph.frequency(n, l)
        exact, _ = sine_at(Fraction(p, q), w)
        assert exact == pytest.approx(math.sin(w * math.pi * p / q) / w, abs=1e-12)
    # the exact reduction needs 2w a positive integer
    for w in (0.0, 0.3, -1.5):
        with pytest.raises(ValueError):
            sine_at(Fraction(1, 2), w)


def test_schur_cos_and_psi_consistent():
    alpha = 0.83
    for n, l in ((3, 4), (2, 6)):
        w = sph.frequency(n, l)
        assert cos_at(alpha, w) == pytest.approx(math.cos(w * alpha), abs=1e-14)
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
    assert ref.sphere_amplitude(u, 2, 3) == pytest.approx(math.cos(w * t) + math.sin(w * t) / w, abs=1e-15)


def test_sphere_snapshot_matches_direct_evolution():
    # a negative alpha puts the second snapshot of the pair before the first
    for n, alpha in ((2, 0.41), (3, -0.45)):
        data = CauchyData(
            sph.sphere_field(n, [(l, 1, 0.7**l) for l in range(6)]),
            sph.sphere_field(n, [(l, 1, (-0.5) ** l * 1j) for l in range(6)]),
        )
        ua = evolve(data, alpha)
        for m in (-3, 0, 1, 2, 5):
            via = general_integer_snapshot(data.position, ua, 0.0, alpha, m)
            direct = evolve(data, m * alpha)
            worst = max(abs(ref.sphere_amplitude(via, l, 1) - ref.sphere_amplitude(direct, l, 1)) for l in range(6))
            assert worst < 1e-12


def test_mixed_bases_rejected():
    flat = field(1, [((1.0,), 1.0)])
    s2 = sph.sphere_field(2, [(1, 1, 1.0)])
    s3 = sph.sphere_field(3, [(1, 1, 1.0)])
    for a, b, msg in ((flat, s2, "cannot mix a"), (s2, flat, "cannot mix a"), (s2, s3, "sphere dimensions differ")):
        with pytest.raises(DimensionMismatch, match=msg):
            linear_combine([1.0, 1.0], [a, b])
        with pytest.raises(DimensionMismatch, match=msg):
            CauchyData(a, b)
    with pytest.raises(DimensionMismatch, match="sphere dimensions differ: 2 vs 3"):
        sph.sphere_two_snapshot_solve(s2, s3, 0.5)
    # the cross-kind text names both kinds
    with pytest.raises(DimensionMismatch, match="^cannot mix a flat field with a sphere field$"):
        CauchyData(flat, s2)
    with pytest.raises(DimensionMismatch, match="^cannot mix a sphere field with a flat field$"):
        CauchyData(s2, flat)


def test_huygens_needs_odd_sphere_and_zonal_data():
    zf = sph.sphere_field(3, [(1, 1, 1.0)])
    nz = sph.sphere_field(3, [(1, 2, 1.0)])
    with pytest.raises(ValueError):
        sph.huygens_antipodal_check(nz, zf, [0.5])
    ef = sph.sphere_field(2, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        sph.huygens_antipodal_check(ef, ef, [0.5])


@pytest.mark.parametrize("c_count", [1, 0, -3])
def test_huygens_needs_two_evaluation_points(c_count):
    # one point divided by zero, and no points at all passed with a residual of 0.0
    f = sph.sphere_field(3, [(1, 1, 1.0)])
    with pytest.raises(ValueError, match=f"c_count must be at least 2, got {c_count}"):
        sph.huygens_antipodal_check(f, f, [0.5], c_count)


def test_huygens_antipodal_focusing():
    # u(pole, t + pi) = -u(antipode, t) on S^3 for odd zonal data
    f0 = sph.sphere_field(3, [(l, 1, 0.6**l) for l in range(8)])
    g = sph.sphere_field(3, [(l, 1, -(0.4**l)) for l in range(8)])
    times = [0.1 + 0.3 * k for k in range(15)]
    assert sph.huygens_antipodal_check(f0, g, times) < 1e-11


def hex_or_error(fn, *args):
    """fn(*args), a float or complex, as the hex of its parts, or the type and
    text of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # the reference must raise the same
        return type(exc), str(exc)
    return tuple(float.hex(x) for x in (value.real, value.imag))


def zonal_value(f, c):
    """The field's value at one polar cosine c, through a one-point table."""
    return sph.zonal_values(f, sph.zonal_table([f], [c]))[0]


ZONAL_TERMS = st.lists(
    st.tuples(st.integers(0, 60), st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), ZONAL_TERMS, st.lists(st.floats(-1.0, 1.0), max_size=4))
def test_zonal_value_matches_the_per_degree_sums(n, terms, cs):
    # one recurrence per point gives every degree's phi_l, and every sum, bit for bit
    f = sph.sphere_field(n, [(l, 1, a) for l, a in terms])
    points = [1.0, -1.0, 0.0, -0.0, *cs]
    for c in points + [1.0 + 2**-52, -1.5, math.nan]:  # the last three are out of range
        assert hex_or_error(zonal_value, f, c) == hex_or_error(ref.zonal_value, f, c), c
    for l in {l for l, _ in terms}:
        for c in points:
            assert phi(n, l, c).hex() == ref.gegenbauer_phi(n, l, c).hex(), (l, c)
    off_zonal = sph.sphere_field(n, [(l, 1, a) for l, a in terms] + [(1, 2, 1.0)])
    assert hex_or_error(zonal_value, off_zonal, 0.5)[0] is sph.RequiresZonal
    assert hex_or_error(ref.zonal_value, off_zonal, 0.5)[0] is sph.RequiresZonal


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5, 7]), ZONAL_TERMS, ZONAL_TERMS, st.lists(st.floats(0.0, 7.0), min_size=1, max_size=3),
       st.integers(2, 21))
def test_huygens_check_matches_the_per_point_reference(n, u0, g, times, c_count):
    f0, g = (sph.sphere_field(n, [(l, 1, a) for l, a in terms]) for terms in (u0, g))
    got = hex_or_error(sph.huygens_antipodal_check, f0, g, times, c_count)
    assert got == hex_or_error(ref.huygens_antipodal_check, f0, g, times, c_count)


def test_zonal_errors_match_the_reference():
    z3, z2 = sph.sphere_field(3, [(2, 1, 1.0)]), sph.sphere_field(2, [(1, 1, 1.0)])
    empty, off = sph.sphere_field(3, []), sph.sphere_field(3, [(1, 2, 1.0)])
    for f, c in ((z3, 1.5), (z3, math.nan), (off, 0.5), (empty, 0.5), (empty, 7.0)):
        assert hex_or_error(zonal_value, f, c) == hex_or_error(ref.zonal_value, f, c), (f, c)
    assert sph.zonal_values(empty, sph.zonal_table([empty], [7.0])) == [0j]  # zero everywhere, without a range check
    for n, l, c in ((1, 3, 2.0), (1, 3, 0.5), (3, -1, 0.5), (3, -1, math.nan)):  # c is checked first, then n, then l
        assert hex_or_error(phi, n, l, c) == hex_or_error(ref.gegenbauer_phi, n, l, c), (n, l, c)
    for args in ((z2, z2, [0.5]), (off, z3, [0.5]), (z3, off, [0.5]), (z3, z3, []), (z3, empty, [0.5], 1)):
        got = hex_or_error(sph.huygens_antipodal_check, *args)
        assert got == hex_or_error(ref.huygens_antipodal_check, *args) and isinstance(got[0], type), args


@pytest.mark.parametrize("time_count", [2, 15])
def test_huygens_check_runs_one_recurrence_per_point_and_point_set(monkeypatch, time_count):
    # the tables for cs and -cs serve every time: at most 2 c_count recurrences, not 2 c_count per time
    calls = []
    gegenbauer = sph._gegenbauer
    monkeypatch.setattr(sph, "_gegenbauer", lambda *args: calls.append(args) or gegenbauer(*args))
    f0 = sph.sphere_field(3, [(l, 1, 0.6**l) for l in range(8)])
    g = sph.sphere_field(3, [(l, 1, -(0.4**l)) for l in (0, 3, 9)])
    times = [0.1 + 0.3 * k for k in range(time_count)]
    assert sph.huygens_antipodal_check(f0, g, times, 5) < 1e-11
    assert len(calls) == 2 * 5 and {top for _, top, _ in calls} == {9}
    calls.clear()  # the tables come after the first evolve, so a bad time raises before any recurrence
    with pytest.raises(ValueError, match="time must be finite, got inf"):
        sph.huygens_antipodal_check(f0, g, [math.inf, 0.5], 5)
    assert not calls


def test_antipodal_gate_fails_on_a_late_snapshot(monkeypatch):
    # negative control for the sphere experiment's 1e-10 gate: u(t + pi)
    # evolved 1e-3 too late (for t < pi) breaks the identity far above it
    evolve_now = sph.evolve
    monkeypatch.setattr(sph, "evolve", lambda data, t: evolve_now(data, t + 1e-3 if t >= math.pi else t))
    f0 = sph.sphere_field(3, [(l, 1, 0.6**l) for l in range(8)])
    g = sph.sphere_field(3, [(l, 1, -(0.4**l)) for l in range(8)])
    assert sph.huygens_antipodal_check(f0, g, [0.1, 1.3, 2.9]) > 1e-6
    result = experiments.sphere_suite(1)
    (line,) = [c for c in result["details"].split("; ") if c.startswith("antipodal residual")]
    assert not result["passed"] and float(line.split()[2]) > 1e-6, line


# -- the solver ---------------------------------------------------------------


def test_sphere_solve_roundtrip_float_alpha():
    f0 = sph.sphere_field(2, [(l, 1, 1.0 / (1 + l)) for l in range(9)])
    g = sph.sphere_field(2, [(l, 1, complex(l, -l) / 9) for l in range(9)])
    alpha = 0.77
    rep = sph.sphere_two_snapshot_solve(f0, evolve(CauchyData(f0, g), alpha), alpha)
    assert rep.status == STATUS_UNIQUE
    worst = max(abs(ref.sphere_amplitude(rep.solution, l, 1) - ref.sphere_amplitude(g, l, 1)) for l in range(9))
    assert worst <= 1e-9 * (1 + rep.conditioning)


def test_sphere_solve_alpha_pi_kernel():
    # alpha = pi on S^3: every frequency is an integer, so nothing of g survives
    f0 = sph.sphere_field(3, [(2, 1, 1.0)])
    g = sph.sphere_field(3, [(2, 1, 4.0)])
    falpha = evolve(CauchyData(f0, g), math.pi)
    rep = sph.sphere_two_snapshot_solve(f0, falpha, Fraction(1, 1))
    assert rep.status == STATUS_NONUNIQUE
    assert (2, 1) in rep.kernel_coeffs
    assert ref.sphere_amplitude(rep.solution, 2, 1) == 0


def test_sphere_solve_float_kernel_at_high_degree():
    # alpha = pi as a float on S^3: w = l + 1 = 1000 puts w alpha at 1000 pi,
    # where sin is 3e-13 from rounding alone
    f0 = sph.sphere_field(3, [(999, 1, 1.0), (3, 2, 0.5)])
    g = sph.sphere_field(3, [(999, 1, 4.0), (3, 2, 1j)])
    assert sine_at(math.pi, sph.frequency(3, 999))[1]
    rep = sph.sphere_two_snapshot_solve(f0, evolve(CauchyData(f0, g), math.pi), math.pi)
    assert rep.status == STATUS_NONUNIQUE
    assert rep.kernel_coeffs == ((3, 2), (999, 1))


def test_sphere_solve_obstructed_at_exact_zero():
    # tampered kernel coefficient: cos((l+1)pi) f0 is the only reachable value
    f0 = sph.sphere_field(3, [(2, 1, 1.0)])
    falpha = sph.sphere_field(3, [(2, 1, 0.3)])
    rep = sph.sphere_two_snapshot_solve(f0, falpha, Fraction(1, 1))
    assert rep.status == STATUS_OBSTRUCTED


def test_two_snapshot_solve_takes_its_kernel_note_from_the_basis():
    # the sphere's wording on sphere data, and the flat wording at its time
    f0, falpha = sph.sphere_field(3, [(2, 1, 1.0)]), sph.sphere_field(3, [(2, 1, 0.3)])
    rep = two_snapshot_solve(f0, falpha, Fraction(1, 1))
    assert rep.status == STATUS_OBSTRUCTED and rep.note == "data on zero Schur constants has no preimage"
    rep = two_snapshot_solve(field(1, [((math.pi,), 1.0)]), field(1, [((math.pi,), 0.3)]))
    assert rep.status == STATUS_OBSTRUCTED and rep.note == "data at kernel frequencies of S_1 has no preimage"


def test_sphere_solve_takes_data_above_degree_256():
    # was "data degree 300 exceeds max_degree 256", a cap that stood for no limit of the solve;
    # the sphere's name is now the benchmark's alias of the one solve
    assert sph.sphere_two_snapshot_solve is two_snapshot_solve
    f0 = sph.sphere_field(2, [(300, 1, 1.0), (2, 3, 0.5j)])
    g = sph.sphere_field(2, [(300, 1, -0.25), (7, 1, 1.0)])
    rep = two_snapshot_solve(f0, evolve(CauchyData(f0, g), 0.7), 0.7)
    assert rep.status == STATUS_UNIQUE
    assert rep.solution.keys == g.keys
    assert max(abs(x - y) for x, y in zip(rep.solution.amps, g.amps)) <= 1e-9 * (1 + rep.conditioning)


def test_sphere_fields_hold_only_degrees_whose_frequency_is_a_float():
    # 2w is read as 2l + n - 1 at an exact time: at n = 2, l = 2^52 the float w is 2^52, where
    # sin(w pi/2) read as an exact zero, though the true sine is 1.6e-16
    for n, top in ((2, 2**52), (3, 2**53)):
        with pytest.raises(ValueError, match=f"^frequency of degree l={top}, n={n} is not exact in a float$"):
            sph.sphere_field(n, [(top, 1, 1.0)])
        below = top - 1 if n == 2 else top - 2
        assert sph.sphere_field(n, [(below, 1, 1.0)]).freqs == (below + (n - 1) / 2,)


def test_two_snapshot_solves_reject_non_finite_times():
    # an infinite time ended in a bare "math domain error", a NaN one in a NaN amplitude
    flat = field(1, [((0.9,), 1.0), ((2.2,), 1j)])
    on_sphere = sph.sphere_field(3, [(0, 1, 1.0), (2, 3, 0.5j)])
    for t in (math.nan, math.inf, -math.inf):
        for f0 in (flat, on_sphere):
            with pytest.raises(InvalidTime, match="time must be finite"):
                two_snapshot_solve(f0, f0, t)
        with pytest.raises(InvalidTime, match="time must be finite"):
            sph.sphere_two_snapshot_solve(on_sphere, on_sphere, t)


# -- margins and classification ----------------------------------------------


def test_margin_positive_for_third_of_pi_on_even_sphere():
    c, passes = sph.surjectivity_margin(Fraction(1, 3), 2, 2000, 1)
    assert passes and c > 0.4  # |sin((2l+1) pi/6)| >= 1/2, so (1+l)/w keeps C near 1/2


def test_margin_zero_on_exact_resonance():
    c, passes = sph.surjectivity_margin(Fraction(1, 2), 3, 500, 3)
    assert not passes and c == 0.0


def test_margin_scan_streams():
    tracemalloc.start()
    try:
        c, passes = sph.surjectivity_margin(Fraction(1, 3), 2, 10**5, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passes and c > 0
    assert peak < 1_000_000  # a list of 1e5 rows alone would take ~10 MB


def test_slow_decay_check_reads_any_iterable_once():
    rows = iter([(0, 1.0), (1, 0.5), (3, 0.0), (4, 1.0)])
    assert dio.slow_decay_check(rows, 2) == (False, 0.0)
    assert next(rows) == (4, 1.0)  # stopped at the exact zero
    assert dio.slow_decay_check(((l, 1.0 / (1 + l)) for l in range(5)), 1) == (True, 1.0)
    with pytest.raises(ValueError, match="no rows"):
        dio.slow_decay_check(iter(()), 1)


def test_margin_rejects_nan_time():
    """Every row of a NaN time is NaN, which no constant bounds; the scan used
    to skip them all and report C = inf as a pass.  An infinite time ended in
    a bare "math domain error"."""
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidTime, match="alpha must be finite"):
            sph.surjectivity_margin(alpha, 3, 100, 3)


def test_margin_rejects_float_times_that_resolve_no_phase():
    # at alpha = 1e300 every degree was a kernel zero: C = 0, no pass
    with pytest.raises(InvalidTime, match=re.escape("time 1e+300 resolves no phase at frequency 101.0")):
        sph.surjectivity_margin(1e300, 3, 100, 3)
    # the check is on the largest frequency scanned, 2^40 (10^4 + 1) > 2^50
    with pytest.raises(InvalidTime, match="resolves no phase"):
        sph.surjectivity_margin(2.0**40, 3, 10**4, 3)
    assert sph.surjectivity_margin(2.0**40, 3, 100, 3)[0] > 0
    assert sph.surjectivity_margin(Fraction(10**300 + 1, 3), 3, 100, 3) == (0.0, False)  # exact: no limit


def test_margin_names_the_degree_whose_weight_overflows():
    # float(1 + l) ** 200 overflows first at l = 34; the message was errno's "(34, 'Numerical result out of range')"
    assert math.isfinite(34.0**200) and math.log2(35.0) * 200 > 1024
    for alpha in (0.3, Fraction(1, 3) + Fraction(1, 10**9)):
        with pytest.raises(OverflowError, match=r"^the weight \(1\+l\)\^200 leaves the float range at degree l = 34$"):
            sph.surjectivity_margin(alpha, 3, 100, 200)
    with pytest.raises(OverflowError, match="at degree l = 3$"):
        dio.slow_decay_check([(l, 0.5) for l in range(10)], 600)


def test_margin_float_alpha_smoke():
    c, passes = sph.surjectivity_margin(math.sqrt(2.0) * math.pi, 3, 2000, 3)
    assert passes and c > 0


def _outcome(margin, *args):
    """repr(C) and passes, or the exception's type and text."""
    try:
        c, passes = margin(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return repr(c), passes


# far kernel: the first l with 30011 | w is 30010 (n = 3) or 30009 (n = 5)
FAR_KERNEL = math.pi * 12345 / 30011

_exact_times = st.builds(
    lambda q, p: Fraction(p, q), st.integers(1, 60), st.integers(-240, 240)
).filter(lambda b: b != 0)
_float_times = st.one_of(
    st.floats(0.01, 100.0),
    st.builds(lambda k, m: k * math.pi / m, st.integers(1, 30), st.integers(1, 12)),
    st.just(1000 * math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.one_of(_exact_times, _float_times),
    n=st.integers(2, 6),
    max_degree=st.integers(1, 20_000),
    exponent=st.sampled_from([0, 1, 2, 3, 4, 60, 200]),
)
@example(alpha=math.sqrt(2.0) * math.pi, n=3, max_degree=20_000, exponent=1)  # weight 1 up to rounding
# at 40,000 degrees a float alpha spans five blocks of MARGIN_BLOCK = 8192, an exact one its first and last period
@example(alpha=Fraction(1, 3), n=2, max_degree=40_000, exponent=1)  # periodic sines: ties across the periods
@example(alpha=Fraction(2, 3), n=2, max_degree=20_000, exponent=60)  # exact zero at l = 1, weight 2^60
@example(alpha=math.pi / 3, n=3, max_degree=20_000, exponent=60)  # float zero at l = 2
@example(alpha=Fraction(7, 31), n=2, max_degree=20_000, exponent=200)  # overflow at l = 34
@example(alpha=Fraction(1, 10**13), n=2, max_degree=40_000, exponent=3)  # 4q > 2^42: residues on Python ints
@example(alpha=Fraction(1, 3), n=3, max_degree=40_000, exponent=3)  # period 6 does not divide the 40,001 degrees
@example(alpha=Fraction(1, 2048), n=2, max_degree=40_000, exponent=3)  # period 4096, half a block
@example(alpha=Fraction(1, 2049), n=2, max_degree=40_000, exponent=3)  # period 4098, just over half a block
@example(alpha=Fraction(1, 4096), n=2, max_degree=40_000, exponent=3)  # period 8192, exactly one block
@example(alpha=Fraction(1, 4096), n=4, max_degree=40_000, exponent=3)  # one period a block
@example(alpha=Fraction(1, 4097), n=2, max_degree=40_000, exponent=3)  # period 8194: two blocks a period
@example(alpha=Fraction(-7, 31), n=2, max_degree=40_000, exponent=3)  # negative exact time
# first and last periods: at exponent 1 the weight 1+l barely outgrows w (n = 2) or is w (n = 3)
@example(alpha=Fraction(19, 10), n=2, max_degree=40_000, exponent=0)  # the minimum sits in the last period
@example(alpha=Fraction(19, 10), n=2, max_degree=40_000, exponent=1)
@example(alpha=Fraction(19, 10), n=3, max_degree=40_000, exponent=1)
@example(alpha=Fraction(19, 10), n=2, max_degree=20_000, exponent=60)
@example(alpha=Fraction(19, 10), n=2, max_degree=40_000, exponent=70)  # overflow at l = 25,330, between the periods
@example(alpha=Fraction(1, 30011), n=2, max_degree=20_000, exponent=3)  # the first period covers every degree
@example(alpha=Fraction(1, 4999), n=3, max_degree=20_000, exponent=200)  # overflow at l = 34, before the zero at 4998
@example(alpha=Fraction(7, 31), n=3, max_degree=20_000, exponent=200)  # the zero at l = 30 comes before the overflow
@example(alpha=1000 * math.pi, n=3, max_degree=20_000, exponent=3)  # |w alpha| to 6.3e7: ulp threshold
# float alphas through the Jordan-floor screen
@example(alpha=FAR_KERNEL, n=3, max_degree=40_000, exponent=0)
@example(alpha=FAR_KERNEL, n=3, max_degree=40_000, exponent=3)
@example(alpha=FAR_KERNEL, n=5, max_degree=40_000, exponent=5)
@example(alpha=FAR_KERNEL, n=3, max_degree=40_000, exponent=100)  # overflow at l = 1209, before the kernel row
@example(alpha=FAR_KERNEL, n=3, max_degree=40_000, exponent=70)  # overflow at l = 25,330, in a block screened whole
@example(alpha=math.pi * 7 / 3001, n=2, max_degree=40_000, exponent=3)  # half-integer frequencies: no kernel row
@example(alpha=(1 + math.sqrt(5.0)) / 2 * math.pi, n=4, max_degree=40_000, exponent=3)
@example(alpha=1e5, n=3, max_degree=40_000, exponent=2)  # |w alpha| to 4e9: the floor's slack grows with it
@example(alpha=-math.sqrt(3.0), n=2, max_degree=40_000, exponent=3)
@example(alpha=1e-7, n=3, max_degree=40_000, exponent=3)  # every w alpha in the series window
def test_margin_matches_full_scan(alpha, n, max_degree, exponent):
    got = _outcome(sph.surjectivity_margin, alpha, n, max_degree, exponent)
    assert got == _outcome(ref.surjectivity_margin, alpha, n, max_degree, exponent)


@pytest.mark.parametrize(
    "alpha, n, exponent",
    [(Fraction(1, 3), 2, 1), (math.pi / 3, 2, 1), (math.sqrt(2.0) * math.pi, 3, 3)],
)
def test_margin_screen_absorbs_inexact_sines(monkeypatch, alpha, n, exponent):
    # a screen whose sines are off by up to 4e-10 relative, well inside the
    # 1e-9 window, still yields the rows that decide the minimum
    import numpy as np

    sin = np.sin
    monkeypatch.setattr(np, "sin", lambda x: sin(x) * (1 + 4e-10 * sin(1e3 * x)))
    assert sph.surjectivity_margin(alpha, n, 200_000, exponent) == ref.surjectivity_margin(alpha, n, 200_000, exponent)


def test_margin_keeps_kernel_rows_under_a_sharper_floor(monkeypatch):
    # a floor at |sin| / 2 still bounds |sin| below, but is positive at a float
    # kernel row; the row's weighted floor then exceeds the best score by far,
    # and only the near-zero rule keeps it for slow_decay_check
    import numpy as np

    monkeypatch.setattr(sph, "sine_floor", lambda y: np.abs(np.sin(y)) / 2)
    assert sph.surjectivity_margin(FAR_KERNEL, 5, 40_000, 5) == (0.0, False)


def test_margin_rechecks_few_rows(monkeypatch):
    calls = 0

    def counted(time, w):
        nonlocal calls
        calls += 1
        return sine_at(time, w)

    monkeypatch.setattr(sph, "sine_at", counted)
    for alpha, n in ((Fraction(7, 31), 2), (math.sqrt(2.0) * math.pi, 3)):
        calls = 0
        c, passes = sph.surjectivity_margin(alpha, n, 10**6, 3)
        assert passes and c > 0
        assert 0 < calls <= 2_000


def test_margin_computes_one_residue_period(monkeypatch):
    # at 19/10 the residues repeat every 2q = 20 degrees (40 in 2w = 2l + 1),
    # so each of the two spans, the first and the last period, reduces one
    # period of 2w: 20 degrees, one to each class, where the scan is 1e6
    spans = []
    residue = sph.exact_residue

    def counted(beta, w2):
        spans.append(sorted(int(v) % 40 for v in w2))
        return residue(beta, w2)

    monkeypatch.setattr(sph, "exact_residue", counted)
    c, passes = sph.surjectivity_margin(Fraction(19, 10), 2, 10**6, 3)
    assert passes and c > 0
    assert spans == [list(range(1, 40, 2))] * 2


GOLDEN_PI = (1 + math.sqrt(5.0)) / 2 * math.pi  # 5.0832036923152595: gamma = golden / 2 = [0; 1, 4, 4, ...]

_block_floor_times = st.one_of(
    st.floats(-30.0, 30.0).filter(lambda a: abs(a) > 1e-3),
    st.floats(1e-9, 1e-3),
    st.builds(
        lambda p, q, rel: math.pi * p / q * (1 + rel),
        st.integers(-40, 40).filter(bool),
        st.integers(1, 40),
        st.sampled_from([0.0, 1e-12, 1e-7]),
    ),
)


@settings(max_examples=12, deadline=None)
@given(
    alpha=_block_floor_times,
    n=st.integers(2, 9),
    max_degree=st.integers(1, 10**6),
    exponent=st.sampled_from([0, 1, 2, 3, 60, 200]),
)
# blocks after the first are bounded by the convergents of gamma = |alpha| / 2 pi, and skipped when the
# bound rules them out: sqrt(2) pi skips them all at exponent 3, golden pi 12 of 24 at exponent 2
@example(alpha=math.sqrt(2.0) * math.pi, n=3, max_degree=10**6, exponent=3)
@example(alpha=GOLDEN_PI, n=2, max_degree=200_000, exponent=2)
@example(alpha=-math.sqrt(2.0) * math.pi, n=3, max_degree=200_000, exponent=3)  # negative time
@example(alpha=1e-7, n=4, max_degree=200_000, exponent=3)  # gamma = [0; 62831853, ...]: one floor for every block
@example(alpha=math.pi * 7 / 31 * (1 + 1e-12), n=3, max_degree=200_000, exponent=3)  # prefix stops at q = 62
@example(alpha=math.pi * 7 / 31, n=2, max_degree=200_000, exponent=3)  # half-integer w: 7/62 never a zero
# huge |alpha|: the shared prefix stops at q = 94,483, and a float kernel row in the ninth block sets C = 0
@example(alpha=2.0**20, n=3, max_degree=10**6, exponent=3)
@example(alpha=math.sqrt(3.0), n=5, max_degree=200_000, exponent=60)  # overflow at l = 137,270; blocks 2-16 skipped
@example(alpha=0.3, n=3, max_degree=100, exponent=200)  # overflow at l = 34, in the only block
def test_float_margin_block_floor_matches_full_scan(alpha, n, max_degree, exponent):
    got = _outcome(sph.surjectivity_margin, alpha, n, max_degree, exponent)
    assert got == _outcome(ref.surjectivity_margin, alpha, n, max_degree, exponent)


def test_float_margin_scores_one_block_at_sqrt2_pi(monkeypatch):
    # gamma = sqrt(2) / 2 = [0; 1, 2, 2, ...]: for 2w below a shared q_{j+1}, |sin(w alpha)| is at least
    # 2 / (q_j + q_{j+1}), which puts every later block's floor score above the first block's best;
    # a full scan to degree 1e6 scores 123 blocks of 8,192 degrees
    import numpy as np

    calls = 0
    arange = np.arange

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", counted)
    c, passes = sph.surjectivity_margin(math.sqrt(2.0) * math.pi, 3, 10**6, 3)
    assert passes and c > 0
    assert calls <= 2


def test_float_margin_block_floor_negative_control(monkeypatch):
    # convergents whose recurrence starts from q_{-1} = 1, not 0, read q_1 = a_1 + 1 and inflate every
    # later q: the floors rise, and at golden pi a block that holds the minimum is skipped
    def off_by_one(quotients):
        p2, p1, q2, q1 = 0, 1, 1, 1
        for a in quotients:
            p2, p1 = p1, a * p1 + p2
            q2, q1 = q1, a * q1 + q2
            yield p1, q1

    full = ref.surjectivity_margin(GOLDEN_PI, 2, 10**6, 2)
    assert sph.surjectivity_margin(GOLDEN_PI, 2, 10**6, 2) == full == (0.3512046582850267, True)
    monkeypatch.setattr(dio, "_convergents", off_by_one)
    assert sph.surjectivity_margin(GOLDEN_PI, 2, 10**6, 2) != full


def test_margin_skips_the_blocks_its_first_period_rules_out(monkeypatch):
    # each residue class scores least at its first or last degree, so at
    # 19/10 the first period rules out every block of degrees before the
    # last period: two blocks reach numpy at every exponent, of the 123
    # blocks of 8,180 degrees a full scan to degree 1e6 spans
    import numpy as np

    calls = 0
    arange = np.arange

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", counted)
    for exponent in range(4):
        calls = 0
        c, passes = sph.surjectivity_margin(Fraction(19, 10), 2, 10**6, exponent)
        assert passes and c > 0
        assert calls == 2


def test_exact_margin_scores_at_most_two_periods(monkeypatch):
    # the residues repeat every 2q degrees and each class scores least at its
    # first or last degree, so the screen scores the first and the last
    # period (and three degrees where a weight leaves the float range): 40
    # degrees at 19/10, 16,388 at 1/4097, where the whole scan is 1e6
    degrees = 0
    residue = sph.exact_residue

    def counted(beta, w2):
        nonlocal degrees
        degrees += len(w2)
        return residue(beta, w2)

    monkeypatch.setattr(sph, "exact_residue", counted)
    cases = [(Fraction(19, 10), exponent) for exponent in range(4)] + [(Fraction(1, 4097), 0), (Fraction(1, 4097), 3)]
    for alpha, exponent in cases:
        degrees = 0
        c, passes = sph.surjectivity_margin(alpha, 2, 10**6, exponent)
        assert passes and c > 0
        assert 0 < degrees <= 2 * min(2 * alpha.denominator, 10**6 + 1) + 3


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
    doubled_odd = dio.doubled(dio.liouville_truncation(3, (1,) * 4, 4))
    assert sph.classify_alpha(doubled_odd, 2).verdict == sph.VERDICT_NOT_ALWAYS
    doubled_binary = dio.doubled(dio.liouville_truncation(2, (1,) * 4, 4))
    assert sph.classify_alpha(doubled_binary, 2).verdict == sph.VERDICT_SOLVABLE


def test_classification_rejects_bad_dimension():
    with pytest.raises(ValueError):
        sph.classify_alpha(dio.sqrt2_class(), 1)
