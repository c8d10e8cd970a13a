import cmath
import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wavesnap import cli, experiments, fields as fields_module, snapshots, sphere as sph
from wavesnap.fields import (
    DimensionMismatch,
    MultiplierSymbol,
    SymbolUndefined,
    apply_multiplier,
    field,
    field_from_json,
    json_text,
    linear_combine,
    load_field,
    save_field,
    symbol_constant,
    write_text_atomic,
)
from wavesnap.propagators import symbol_Psi, symbol_S, symbol_Sprime
from wavesnap.snapshots import CauchyData, InvalidTime, evolve

from references import (
    aligned,
    compatibility_residual_on_fields,
    evolve_series,
    field_from_json_by_entry,
    max_abs_amp,
    snapshot_grid,
    snapshot_series,
    subtract,
    symbol_product,
    union_support,
)


def test_field_merges_repeated_frequencies():
    f = field(2, [((1.0, 2.0), 1 + 0j), ((1.0, 2.0), 0.5j), ((0.0, 0.0), 2.0)])
    assert len(f.modes) == 2
    assert f.amplitude_at((1.0, 2.0)) == 1 + 0.5j


def test_negative_zero_component_is_one_mode():
    f = field(1, [((0.0,), 1.0), ((-0.0,), 1.0)])
    assert len(f.modes) == 1
    assert f.modes[0].amp == 2.0


def test_modes_sorted_deterministically():
    f = field(2, [((3.0, 0.0), 1.0), ((1.0, 1.0), 1.0), ((1.0, -1.0), 1.0)])
    assert [m.xi for m in f.modes] == sorted(m.xi for m in f.modes)


def test_dimension_checked():
    with pytest.raises(DimensionMismatch):
        field(2, [((1.0,), 1.0)])
    f = field(1, [((1.0,), 1.0)])
    g = field(2, [((1.0, 0.0), 1.0)])
    with pytest.raises(DimensionMismatch):
        subtract(f, g)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        field(1, [((math.nan,), 1.0)])
    with pytest.raises(ValueError):
        field(1, [((1.0,), complex(math.inf, 0))])


finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(
    st.lists(
        st.tuples(st.tuples(finite, finite), st.complex_numbers(max_magnitude=10, allow_nan=False)),
        max_size=8,
    )
)
def test_canonicalize_idempotent(entries):
    f = field(2, [(xi, amp) for xi, amp in entries])
    assert field(f.dim, f.modes) == f
    assert list(f.keys) == sorted(set(f.keys))
    assert f.freqs == tuple(math.hypot(*xi) for xi in f.keys)
    assert all(f.amps)


def evaluate(f, x):
    """The plane-wave sum of a flat field at the point x."""
    if len(x) != f.dim:
        raise DimensionMismatch(f"point of length {len(x)} in dim {f.dim}")
    total = 0j
    for xi, amp in zip(f.keys, f.amps):
        phase = sum(a * b for a, b in zip(xi, x))
        total += amp * cmath.exp(1j * phase)
    return total


def test_evaluate_is_plane_wave_sum():
    f = field(2, [((1.0, 0.0), 2.0), ((0.0, 3.0), 1j)])
    x = (0.7, -0.2)
    want = 2.0 * complex(math.cos(0.7), math.sin(0.7)) + 1j * complex(math.cos(-0.6), math.sin(-0.6))
    assert abs(evaluate(f, x) - want) < 1e-14


def test_apply_multiplier_uses_mode_radius():
    f = field(2, [((3.0, 4.0), 1.0)])  # radius 5
    g = apply_multiplier(f, symbol_S(1.0))
    assert abs(g.modes[0].amp - math.sin(5.0) / 5.0) < 1e-15


def test_symbol_product_and_constant():
    s = symbol_product(symbol_S(1.0), symbol_constant(2.0))
    assert abs(s(2.0) - 2.0 * math.sin(2.0) / 2.0) < 1e-15


def test_symbol_undefined_surfaces():
    bad = MultiplierSymbol("bad", lambda lam: float("nan"))
    with pytest.raises(SymbolUndefined):
        apply_multiplier(field(1, [((1.0,), 1.0)]), bad)


def test_linear_combine_and_zero():
    f = field(1, [((1.0,), 1.0)])
    g = field(1, [((1.0,), -0.5)])
    h = linear_combine([1.0, 2.0], [f, g])
    assert max_abs_amp(h) == 0.0
    assert h == field(1, [])


def test_json_roundtrip(tmp_path):
    f = field(3, [((1.0, -2.0, 0.5), 1 - 1j), ((0.0, 0.0, 0.0), 0.25)])
    assert field_from_json(json.loads(json_text(f))) == f
    p = tmp_path / "f.json"
    save_field(f, str(p))
    assert load_field(str(p)) == f
    # file is valid plain JSON
    json.loads(p.read_text())


def _malformed(header, count, name, row, key_members):
    """Documents of one kind that `field_from_json` must reject: the header
    `header: count` is well formed, and `row` is a well-formed row, with
    `key_members` naming its key members."""
    docs = [
        {header: count},
        {header: count, name: 5},
        {header: "x", name: []},
        {header: None, name: []},
        {header: math.inf, name: []},
        {header: 0, name: []},
        {header: count, name: [{**row, "amp": [1.0]}]},
        {header: count, name: [{**row, "amp": 1.0}]},
        {header: count, name: [{**row, "amp": [math.nan, 0.0]}]},
        {header: count, name: [{**row, "amp": [10**400, 0.0]}]},
        {header: count, name: [{k: v for k, v in row.items() if k != "amp"}]},
        {header: count, name: ["row"]},
    ]
    for member in key_members:
        for bad in (None, "x", [[1.0]], math.inf, math.nan, 10**400):
            docs.append({header: count, name: [{**row, member: bad}]})
        docs.append({header: count, name: [{k: v for k, v in row.items() if k != member}]})
    return docs


def test_malformed_json_rejected():
    flat_row = {"xi": [1.0, 2.0], "amp": [1.0, 0.0]}
    sphere_row = {"l": 1, "m": 2, "amp": [1.0, 0.0]}
    assert field_from_json({"dim": 2, "modes": [flat_row]}) == field(2, [((1.0, 2.0), 1.0)])
    assert field_from_json({"n": 3, "coeffs": [sphere_row]}) == sph.sphere_field(3, [(1, 2, 1.0)])
    docs = [
        *_malformed("dim", 2, "modes", flat_row, ["xi"]),
        {"dim": 2, "modes": [{**flat_row, "xi": [1.0]}]},  # wrong dimension
        *_malformed("n", 3, "coeffs", sphere_row, ["l", "m"]),
        {"n": 3, "coeffs": [{**sphere_row, "m": 5}]},  # beyond dim H_1 = 4
        {"n": 3, "coeffs": [{**sphere_row, "l": -1}]},
        # an amplitude is a pair: three entries are as malformed as one
        {"dim": 2, "modes": [{**flat_row, "amp": [1.0, 0.0, "junk"]}]},
        {"n": 3, "coeffs": [{**sphere_row, "amp": [1.0, 0.0, 0.0]}]},
        # both headers, or neither
        {"dim": 2, "modes": [flat_row], "n": 3, "coeffs": [sphere_row]},
        {"dim": 2, "modes": [], "n": 3},
        {"modes": [flat_row]},
        {"coeffs": [sphere_row]},
        {},
        [],
        None,
        5,
        "dim",
    ]
    for doc in docs:
        with pytest.raises(ValueError):
            field_from_json(doc)


def test_field_readers_take_only_json_numbers(tmp_path, capsys):
    # each of these loaded before, read through float() or int()
    docs = [
        {"dim": 1, "modes": [{"xi": ["1.5"], "amp": ["1.5", "0"]}]},
        {"dim": 1, "modes": [{"xi": [1.5], "amp": [1.5, "0"]}]},
        {"dim": 1, "modes": [{"xi": [True], "amp": [1.5, 0.0]}]},
        {"dim": 1, "modes": [{"xi": [1.5], "amp": [True, False]}]},
        {"dim": 1.9, "modes": [{"xi": [1.5], "amp": [1.5, 0.0]}]},
        {"dim": True, "modes": [{"xi": [1.5], "amp": [1.5, 0.0]}]},
        {"n": 3, "coeffs": [{"l": "2", "m": 1, "amp": [1.0, 0.0]}]},
        {"n": 3, "coeffs": [{"l": 2, "m": 1.0, "amp": [1.0, 0.0]}]},
        {"n": 3, "coeffs": [{"l": 2, "m": True, "amp": [1.0, 0.0]}]},
        {"n": 3, "coeffs": [{"l": 2, "m": 1, "amp": [1.0, True]}]},
        {"n": 3.0, "coeffs": [{"l": 2, "m": 1, "amp": [1.0, 0.0]}]},
        {"dim": 1, "modes": [{"xi": [1.5], "amp": [1.5, 0.0, "junk"]}]},
        {"n": 3, "coeffs": [{"l": 2, "m": 1, "amp": [1.0, 0.0, 0.0]}]},
    ]
    path = tmp_path / "f.json"
    for doc in docs:
        with pytest.raises(ValueError, match="malformed field document"):
            field_from_json(doc)
        path.write_text(json.dumps(doc))
        argv = ["wave", "evolve", "--field", str(path), "--velocity", str(path), "--t", "1"]
        if "n" in doc:
            argv = ["sphere", "evolve", "--f0", str(path), "--g", str(path), "--t", "1"]
        assert cli.run(argv) == 1, doc
        assert "malformed field document" in capsys.readouterr().err
    # integers are JSON numbers, and an integral float is no integer degree
    assert field_from_json({"dim": 1, "modes": [{"xi": [2], "amp": [1, -1]}]}) == field(1, [((2.0,), 1 - 1j)])
    assert field_from_json({"n": 3, "coeffs": [{"l": 2, "m": 1, "amp": [0, 1]}]}) == sph.sphere_field(3, [(2, 1, 1j)])
    # the constructor takes the readers' rule: xi components int or float, amplitudes int, float or
    # complex; no bool, no str
    assert field(1, [((2,), 1), ((0.5,), 2.0), ((-1,), 1j)]) == field(1, [((2.0,), 1 + 0j), ((0.5,), 2 + 0j), ((-1.0,), 1j)])
    for entries in ([(("1.5",), True)], [((1.5,), True)], [((1.5,), "2")], [((True,), 1.0)], [(("1.5",), 1.0)],
                    [((1.5,), None)], [((None,), 1.0)]):
        with pytest.raises(TypeError, match="is not a"):
            field(1, entries)
    for dim in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="is not a JSON integer"):
            field(dim, [((1.5,), 1.0)])


def test_atomic_write_replaces_whole_file(tmp_path):
    p = tmp_path / "out.txt"
    write_text_atomic(str(p), "first\n")
    write_text_atomic(str(p), "second\n")
    assert p.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [p]  # no temp litter


# -- column layout: operators keep canonical form -----------------------------
#
# The references rebuild each result through `field` from the same entries,
# the way the operators did before fields kept their columns: symbol values
# times amplitudes, then coefficient times amplitude, field by field.


def _signed(z):
    return (z.real, math.copysign(1.0, z.real), z.imag, math.copysign(1.0, z.imag))


def assert_same_field(got, want):
    """Exact equality, telling -0.0 from +0.0 in keys and amplitudes."""
    assert type(got) is type(want)
    assert got.keys == want.keys
    for a, b in zip(got.keys, want.keys):
        assert [math.copysign(1.0, v) for v in a] == [math.copysign(1.0, v) for v in b]
    assert got.freqs == want.freqs
    assert [_signed(a) for a in got.amps] == [_signed(b) for b in want.amps]


def ref_apply(f, symbol, freq, rebuild):
    return rebuild([(key, complex(symbol(freq(key))) * amp) for key, amp in zip(f.keys, f.amps)])


def ref_combine(coeffs, fs, rebuild):
    return rebuild([(key, complex(c) * amp) for c, f in zip(coeffs, fs) for key, amp in zip(f.keys, f.amps)])


# A small pool of components and amplitudes, so supports overlap, keys carry
# -0.0 and sums cancel exactly.
component = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0])
amplitude = st.sampled_from([1.0, -1.0, 0.5j, -0.5j, 1 - 2j, complex(-0.0, 1.0), complex(2.0, -0.0), 0.0])
coefficient = st.sampled_from([1.0, -1.0, 2.0, 0.5j, -0.0])
FLIP_AT_TWO = MultiplierSymbol("flip", lambda lam: 0.0 if lam == 2.0 else -1.0)  # drops |xi| = 2
SYMBOLS = [symbol_S(1.0), symbol_Sprime(0.7), symbol_Psi(3, 0.9), FLIP_AT_TWO, symbol_constant(-1.0)]


@st.composite
def flat_fields(draw, dim, shift=0.0):
    keys = st.tuples(*[component] * dim).map(lambda xi: (xi[0] + shift, *xi[1:]))
    return field(dim, draw(st.lists(st.tuples(keys, amplitude), max_size=6)))


@st.composite
def sphere_fields(draw, n, first_degree=0):
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        l = draw(st.integers(first_degree, first_degree + 3))
        entries.append((l, draw(st.integers(1, sph.dim_Hl(n, l))), draw(amplitude)))
    return sph.sphere_field(n, entries)


@st.composite
def field_cases(draw):
    """(f, g overlapping f, h disjoint from f, key -> frequency, rebuild) on one basis."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        fs = [draw(flat_fields(dim)), draw(flat_fields(dim)), draw(flat_fields(dim, shift=10.0))]
        return (*fs, lambda xi: math.hypot(*xi), lambda entries: field(dim, entries))
    n = draw(st.sampled_from([2, 3]))
    fs = [draw(sphere_fields(n)), draw(sphere_fields(n)), draw(sphere_fields(n, first_degree=5))]
    return (
        *fs,
        lambda key: sph.frequency(n, key[0]),
        lambda entries: sph.sphere_field(n, [(l, m, amp) for (l, m), amp in entries]),
    )


@given(field_cases())
def test_union_columns_is_the_dict_union(case):
    # shared, nested, overlapping, disjoint and empty supports: the union and
    # every field's values there are one dict's; a field holding every key
    # (the first longest) lends its own key and frequency tuples
    f, g, h, _, _ = case
    sub = dataclasses.replace(f, keys=f.keys[::2], freqs=f.freqs[::2], amps=f.amps[::2])
    empty = dataclasses.replace(f, keys=(), freqs=(), amps=())
    for fs in ((f,), (f, f), (f, g), (g, f), (f, h, g), (sub, f), (f, sub, g), (sub, sub), (empty, f), (empty,)):
        keys, freqs, columns = fields_module.union_columns(fs)
        assert (keys, freqs) == union_support(fs)
        assert [list(c) for c in columns] == [aligned(x.keys, x.amps, keys) for x in fs]
        big = max(fs, key=lambda x: len(x.keys))
        if all(set(x.keys) <= set(big.keys) for x in fs):
            assert keys is big.keys and freqs is big.freqs
        values = [[complex(i, 1.0) for i in range(len(x.keys))] for x in fs]
        assert fields_module.union_columns(fs, values)[2] == [aligned(x.keys, v, keys) for x, v in zip(fs, values)]


@given(field_cases(), st.sampled_from(SYMBOLS), st.lists(coefficient, min_size=3, max_size=3), finite)
def test_operators_match_rebuilt_reference(case, symbol, coeffs, t):
    f, g, h, freq, rebuild = case
    applied = apply_multiplier(f, symbol)
    assert_same_field(applied, ref_apply(f, symbol, freq, rebuild))
    for fs in ([f, applied], [f, applied, f], [f, g], [f, h], [f, g, h]):  # shared, overlapping, disjoint
        cs = coeffs[: len(fs)]
        assert_same_field(linear_combine(cs, fs), ref_combine(cs, fs, rebuild))
    want = ref_combine(
        [1.0, 1.0], [ref_apply(f, symbol_Sprime(t), freq, rebuild), ref_apply(g, symbol_S(t), freq, rebuild)], rebuild
    )
    assert_same_field(evolve(CauchyData(f, g), t), want)


def _outcome(fn, *args):
    """fn's value by its exact bits, or the type and message of what it raises."""
    try:
        return fn(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


# finite times in a desk range, and at the float range's edges where a phase
# t lam, a symbol value or a product leaves it; plus inf and nan
compat_times = finite | st.floats() | st.sampled_from([1e308, -1e308, 1.7e308, 1e300, 5e-324])


@example(
    (field(1, []), field(1, [((1.5,), 0.3)]), field(1, [((3.5,), 0.3 + 0.1j)]), None, None), (0.0, 1.0, 1e308)
)
@example(  # fa's product overflows at lam = 0 before S_{a-c} = S_{-inf} fails on fb
    (field(1, [((0.0,), 1 - 2j)]), field(1, [((1.0,), 1.0)]), field(1, []), None, None), (-1e308, 0.0, 1e308)
)
@given(field_cases(), st.tuples(compat_times, compat_times, compat_times))
def test_compatibility_residual_matches_the_field_form(case, times):
    # the column form against the old body: S_t applied to each field by
    # apply_multiplier and the three summed by linear_combine, on shared,
    # overlapping, disjoint and empty supports; bit for bit, or the same error
    f, g, h = case[:3]
    empty = dataclasses.replace(f, keys=(), freqs=(), amps=())
    for fs in ((f, g, h), (g, f, f), (f, h, empty), (empty, g, h), (empty, empty, empty)):
        want = _outcome(compatibility_residual_on_fields, *fs, *times)
        assert _outcome(snapshots.compatibility_residual_general, *fs, *times) == want


def test_compatibility_residual_skips_a_time_on_an_empty_field():
    # S at c - b = 1e308 meets no key of the empty f0, so it is never evaluated
    f0, f1, falpha = field(1, []), field(1, [((1.5,), 0.3)]), field(1, [((3.5,), 0.3 + 0.1j)])
    assert snapshots.compatibility_residual_general(f0, f1, falpha, 0.0, 1.0, 1e308) == 0.15221098571699948


# -- series operators: one pass per time grid ----------------------------------
#
# Test-local copies of the per-time operators that the series replace: two
# multiplier applications and a combine for each time t, or each m.


def per_time_evolve(data, t):
    return linear_combine(
        [1.0, 1.0], [apply_multiplier(data.position, symbol_Sprime(t)), apply_multiplier(data.velocity, symbol_S(t))]
    )


def per_m_snapshot(ua, ub, a, b, m):
    s = b - a
    return linear_combine(
        [1.0, -1.0], [apply_multiplier(ub, symbol_Psi(m, s)), apply_multiplier(ua, symbol_Psi(m - 1, s))]
    )


def hexed(f):
    """Keys, frequencies and amplitudes, each float part by its exact bits."""
    return type(f), f.keys, f.freqs, [(amp.real.hex(), amp.imag.hex()) for amp in f.amps]


def assert_shared_columns(results, f, g):
    """Results with no dropped amplitude share one key and one frequency tuple."""
    full = len(f.keys + tuple(k for k in g.keys if k not in f.keys))
    whole = [r for r in results if len(r.keys) == full]
    assert all(r.keys is whole[0].keys and r.freqs is whole[0].freqs for r in whole)
    if whole and f.keys == g.keys:
        assert whole[0].keys is f.keys


times = st.one_of(
    st.just(0.0),
    finite,
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@given(field_cases(), st.lists(times, min_size=1, max_size=5), st.integers(-6, -1), st.integers(1, 6))
def test_series_match_per_time_operators(case, ts, lo, hi):
    f, g, h, _, _ = case
    for u0, v in ((f, g), (f, h), (f, f)):  # overlapping, disjoint, shared supports
        data = CauchyData(u0, v)
        series = evolve_series(data, ts)
        assert [hexed(u) for u in series] == [hexed(per_time_evolve(data, t)) for t in ts]
        assert_shared_columns(series, u0, v)
        for a, b in ((0.0, 1.0), (-0.3, 0.85), (1.25, 3.5)):
            for ms in (range(lo, hi), (hi, lo, 0, hi)):  # consecutive, then out of order and repeated
                series = snapshot_series(u0, v, a, b, ms)
                assert [hexed(u) for u in series] == [hexed(per_m_snapshot(u0, v, a, b, m)) for m in ms]
                assert_shared_columns(series, v, u0)
            assert hexed(snapshots.general_integer_snapshot(u0, v, a, b, lo)) == hexed(series[1])
        assert hexed(evolve(data, ts[0])) == hexed(per_time_evolve(data, ts[0]))


def test_multipliers_and_shared_combine_trust_canonical_keys(monkeypatch):
    flat = field(2, [((0.0, 1.0), 1.0), ((3.0, 4.0), 2j), ((-1.0, 0.5), 0.5)])
    on_sphere = sph.sphere_field(3, [(0, 1, 1.0), (2, 5, 1j), (4, 3, -2.0)])
    calls = {"clean": 0, "dim": 0}
    clean, dim_Hl = fields_module._clean_keys, sph.dim_Hl

    def counted_clean(*args):
        calls["clean"] += 1
        return clean(*args)

    def counted_dim(*args):
        calls["dim"] += 1
        return dim_Hl(*args)

    monkeypatch.setattr(fields_module, "_clean_keys", counted_clean)
    monkeypatch.setattr(sph, "dim_Hl", counted_dim)
    for f in (flat, on_sphere):
        g = apply_multiplier(f, symbol_S(0.3))
        h = linear_combine([1.0, -2.0, 0.5j], [f, g, f])
        for out in (g, h):
            assert out.keys is f.keys
            assert out.freqs is f.freqs
    assert calls == {"clean": 0, "dim": 0}
    # the counters do see validation
    field(2, [((1.0, 1.0), 1.0)])
    sph.sphere_field(3, [(1, 1, 1.0)])
    assert calls == {"clean": 1, "dim": 1}


def test_operator_checks_kept():
    f = field(1, [((1.0,), 1e308), ((2.0,), 1.0)])
    with pytest.raises(ValueError):
        linear_combine([10.0], [f])  # c * amp overflows
    with pytest.raises(ValueError):
        linear_combine([1.0, 1e10], [f, field(1, [((3.0,), 1e300)])])  # on a disjoint support too
    with pytest.raises(ValueError):
        apply_multiplier(f, symbol_constant(10.0))
    g = apply_multiplier(f, MultiplierSymbol("zero at 1", lambda lam: 0.0 if lam == 1.0 else 3.0))
    assert g.keys == ((2.0,),) and g.amps == (3.0,)
    with pytest.raises(SymbolUndefined):
        apply_multiplier(f, MultiplierSymbol("inf", lambda lam: math.inf))
    with pytest.raises(SymbolUndefined, match="lambda=2.0"):
        apply_multiplier(f, MultiplierSymbol("raises at 2", lambda lam: 1.0 / (lam - 2.0)))


def test_linear_combine_checks_its_sums():
    f = field(1, [((1.0,), 1e308), ((2.0,), 1.0)])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        linear_combine([1.0, 1.0], [f, f])  # each product is finite, the sum is not
    with pytest.raises(ValueError):
        linear_combine([1.0, -1.0], [f, linear_combine([-1.0], [f])])
    # so nothing reaches the emitter that JSON cannot hold
    assert json.loads(json_text(linear_combine([0.5, 0.5], [f, f]))) == json.loads(json_text(f))


def test_series_name_an_undefined_symbol_and_reject_an_overflow():
    f = field(1, [((0.5,), 1.5e308), ((1.0,), 1.0)])
    data = CauchyData(f, f)
    for t in (math.inf, math.nan):
        with pytest.raises(InvalidTime, match="time must be finite"):
            evolve_series(data, [0.0, t])
    for t in (1e308, Fraction(10**308)):  # a finite time at which t lam is infinite
        with pytest.raises(SymbolUndefined, match=r"S'\["):
            evolve_series(CauchyData(f, field(1, [((3.0,), 1.0)])), [0.0, t])
    with pytest.raises(ValueError, match="non-finite amplitude"):
        evolve(data, 0.5)  # (cos(1/4) + 2 sin(1/4)) 1.5e308 overflows; the symbols are fine
    with pytest.raises(SymbolUndefined, match=r"Psi\[3,inf\]"):
        snapshot_series(f, f, -1e308, 1e308, [3])  # s lam = inf
    with pytest.raises(ValueError, match="non-finite amplitude"):
        snapshot_series(field(1, []), f, 0.0, 1.0, [1, 2])  # Psi_2 = 2 cos(1/2) at radius 1/2


def test_series_errors_raise_without_a_numpy_warning():
    # the grids run numpy under errstate: each error is the typed one, not a RuntimeWarning
    import warnings

    f = field(1, [((0.5,), 1.5e308), ((1.0,), 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidTime):
            evolve_series(CauchyData(f, f), [math.inf])
        with pytest.raises(SymbolUndefined):
            evolve_series(CauchyData(f, field(1, [((3.0,), 1.0)])), [1e308])
        with pytest.raises(ValueError, match="non-finite amplitude"):
            evolve(CauchyData(f, f), 0.5)
        with pytest.raises(SymbolUndefined):
            snapshot_series(f, f, -1e308, 1e308, [3])


def test_evolve_grid_raises_what_evolve_raises_for_its_first_bad_datum():
    ok = CauchyData(field(2, [((0.6, 0.8), 0.3)]), field(2, [((1.5, -2.0), 1j)]))
    big = CauchyData(field(1, [((0.5,), 1.0)]), field(1, [((0.5,), 1e308), ((2.0,), 1.0)]))
    late = CauchyData(field(1, [((3.0,), 1.0)]), field(1, [((3.0,), 1.0)]))
    times = [0.0, 1.0, 3.0, 2.5]
    evolve(big, 1.0)  # finite up to time 3, where 2 sin(3/2) 1e308 overflows
    with pytest.raises(ValueError) as want:
        evolve(big, 3.0)
    # the third datum fails at its first time (pi 1e308 is infinite), after the second datum's row
    late_times = [Fraction(10**308), 1.0, 1.0, 1.0]
    with pytest.raises(SymbolUndefined):
        evolve(late, late_times[0])
    for batch, rows in (([ok, big], [times, times]), ([ok, big, late], [times, times, late_times])):
        with pytest.raises(ValueError) as got:
            snapshots.evolve_grid(batch, rows)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_empty_batches_are_value_errors():
    # were numpy's AxisError from np.repeat on a one-dimensional time array
    with pytest.raises(ValueError, match="need at least one datum"):
        snapshots.evolve_grid([], [])
    with pytest.raises(ValueError, match="need at least one datum"):
        experiments.recursion_trials([])


def test_grids_are_the_series_rows():
    # one key column for every row; a row's zero amplitudes stay in the grid
    u0 = field(2, [((0.6, 0.8), 0.3 - 0.2j), ((1.5, -2.0), 0.7j), ((0.0, 0.0), -0.4)])
    g = field(2, [((0.6, 0.8), 0.5), ((-2.2, 0.1), 1.0 + 0.25j)])
    data = CauchyData(u0, g)
    times = [0.0, 1.0, Fraction(1, 3), -2.5]
    (keys,), (freqs,), re, im = snapshots.evolve_grid([data], [times])
    assert (keys, freqs) == fields_module.union_columns((u0, g))[:2] and re.shape == im.shape == (4, 4)
    for t, r, i in zip(times, re.tolist(), im.tolist()):
        u = evolve(data, t)
        assert [complex(x, y) for x, y in zip(r, i)] == [u.amplitude_at(k) for k in keys]
    assert re[0, keys.index((-2.2, 0.1))] == im[0, keys.index((-2.2, 0.1))] == 0.0  # u_0 has no velocity-only key
    ua, ub = evolve(data, 0.25), evolve(data, 1.0)
    keys, freqs, re, im = snapshot_grid(ua, ub, 0.25, 1.0, [3, -1, 3])
    for m, r, i in zip([3, -1, 3], re.tolist(), im.tolist()):
        u = snapshots.general_integer_snapshot(ua, ub, 0.25, 1.0, m)
        assert [complex(x, y) for x, y in zip(r, i)] == [u.amplitude_at(k) for k in keys]


def test_snapshot_grid_columns_take_a_step_per_key():
    import numpy as np

    # two runs of keys with a step each: every run is the float-step grid over its keys, bit for bit
    freqs = [0.5, 1.0, 2.2, 0.0, 0.7, 3.1]
    x = (np.array([0.3, -1.0, 0.5, 0.2, 0.0, 1.5]), np.array([0.1, 0.0, -0.4, 0.0, 2.0, 0.5]))
    y = (np.array([1.0, 0.25, 0.0, -0.6, 0.3, 0.0]), np.array([0.0, 0.5, 1.0, 0.0, -0.2, 0.1]))
    steps = np.array([0.85, 0.85, 0.85, 1.3, 1.3, 1.3])
    ms = [-3, 0, 1, 4, 4]
    re, im = snapshots.snapshot_grid_columns(steps, freqs, x, y, ms)
    for cols in (slice(0, 3), slice(3, 6)):
        want = snapshots.snapshot_grid_columns(float(steps[cols][0]), freqs[cols], (x[0][cols], x[1][cols]),
                                               (y[0][cols], y[1][cols]), ms)
        assert hex_grid((re[:, cols], im[:, cols])) == hex_grid(want)
    # a run whose step overflows names Psi at that step, as general_integer_snapshot does
    steps[3:] = 1e308
    with pytest.raises(SymbolUndefined, match=r"Psi\[-3,1e\+308\] failed at lambda=0.7"):
        snapshots.snapshot_grid_columns(steps, freqs, x, y, ms)
    ua, ub = field(1, [((0.7,), 1.0)]), field(1, [((0.7,), 1.0), ((3.1,), 1.0)])
    with pytest.raises(SymbolUndefined, match=r"Psi\[-3,1e\+308\] failed at lambda=0.7"):
        snapshots.general_integer_snapshot(ua, ub, 0.0, 1e308, -3)


def hex_grid(parts):
    return [[v.hex() for v in row] for part in parts for row in part.tolist()]


def test_amplitude_at_bisects_with_equality_semantics():
    f = field(2, [((0.0, 1.0), 2.0), ((-3.0, 0.0), 1j), ((5.0, 5.0), -1.0)])
    assert f.amplitude_at((-0.0, 1.0)) == 2.0
    assert f.amplitude_at((-3.0, -0.0)) == 1j
    assert f.amplitude_at((5.0, 5.0)) == -1.0
    for missing in ((-9.0, 0.0), (0.0, 0.5), (9.0, 9.0)):
        assert f.amplitude_at(missing) == 0j
    assert field(2, []).amplitude_at((0.0, 0.0)) == 0j


components = st.one_of(st.floats(-50, 50), st.sampled_from([0.0, -0.0, 1e308, -1e308]), st.integers(-5, 5))
amp_parts = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0]), st.integers(-2, 2))
nonfinite = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def documents(draw):
    """A flat or sphere field document, and the kinds of defect planted in it:
    keys unsorted or repeated, -0.0 and integer components, zero and -0.0
    amplitudes; then possibly a wrong-length xi, a non-finite or a too large
    component, a non-finite amplitude, an order m or a degree out of range,
    a value that is not a JSON number (or integer) or a bad dimension."""
    flat = draw(st.booleans())
    if flat:
        dim = draw(st.integers(1, 3))
        pool = draw(st.lists(st.lists(components, min_size=dim, max_size=dim), min_size=1, max_size=5))
        keys = [{"xi": list(draw(st.sampled_from(pool)))} for _ in range(draw(st.integers(0, 10)))]
        kinds = ("length", "nonfinite", "huge", "amp", "type", "header")
    else:
        dim = draw(st.integers(2, 4))
        lm = [(l, draw(st.integers(1, sph.dim_Hl(dim, l)))) for l in draw(st.lists(st.integers(0, 4), max_size=10))]
        keys = [{"l": l, "m": m} for l, m in lm]
        kinds = ("order", "degree", "amp", "type", "header")
    rows = [{**key, "amp": [draw(amp_parts), draw(amp_parts)]} for key in keys]
    if draw(st.booleans()):  # the form json_text writes: sorted, distinct, nonzero
        rows = [row for row in rows if any(row["amp"])]
        rows = list({json.dumps(row, sort_keys=True): row for row in rows}.values())
        rows.sort(key=lambda row: row["xi"] if flat else (row["l"], row["m"]))
    planted = []
    count = draw(st.sampled_from([0, 1, 1, 2]))  # a defect alone decides the error, a pair one of two
    defects = draw(st.lists(st.sampled_from(kinds), min_size=count, max_size=count, unique=True))
    for defect in sorted(defects, key=kinds.index):
        if defect != "header" and not rows:
            continue
        planted.append(defect)
        if defect == "header":  # last, so that an order is drawn below its degree's true bound
            dim = draw(st.integers(-1, 0 if flat else 1))
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if defect == "length":
                row["xi"] = row["xi"] + [1.0] if draw(st.booleans()) else row["xi"][1:]
            elif defect in ("nonfinite", "huge"):
                row["xi"] = [draw(nonfinite) if defect == "nonfinite" else 10**400] + row["xi"][1:]
            elif defect == "amp":
                row["amp"] = [row["amp"][0], draw(nonfinite)]
            elif defect == "type":  # at a key member or an amplitude part
                where = draw(st.sampled_from(["xi", "amp"] if flat else ["l", "m", "amp"]))
                # a float is a defect only as a degree or an order
                floats = [1.0, 2.5] if where in ("l", "m") else []
                bad = draw(st.sampled_from(["1", True, False, None, [1.0]] + floats))
                if where == "xi":
                    row["xi"] = [bad] + row["xi"][1:]
                elif where == "amp":
                    row["amp"] = [row["amp"][0], bad]
                else:
                    row[where] = bad
            elif defect == "order":
                row["m"] = draw(st.sampled_from([0, sph.dim_Hl(dim, int(row["l"])) + 1]))
            else:
                row["l"] = -1
    return ({"dim": dim, "modes": rows} if flat else {"n": dim, "coeffs": rows}), planted


def load_outcome(read, doc):
    """The field a reader builds, every column as repr or hex, or the exception it raised."""
    try:
        f = read(doc)
    except Exception as exc:  # the reference must raise the same
        return type(exc), str(exc)
    return type(f), repr(f.keys), [w.hex() for w in f.freqs], [(a.real.hex(), a.imag.hex()) for a in f.amps]


@settings(max_examples=200, deadline=None)
@given(documents())
def test_column_loader_matches_the_entry_reference(case):
    doc, defects = case
    got, want = load_outcome(field_from_json, doc), load_outcome(field_from_json_by_entry, doc)
    if len(defects) <= 1:
        assert got == want
    else:  # each loader names one of the defects, the first of its own check order
        assert issubclass(got[0], ValueError) and issubclass(want[0], ValueError), (got, want)
    if not defects and "modes" in doc:  # the constructor reads the same columns
        entries = [(row["xi"], complex(*row["amp"])) for row in doc["modes"]]
        assert load_outcome(lambda d: field(d["dim"], entries), doc) == want
