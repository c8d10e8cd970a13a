import json
import math

import pytest
from hypothesis import given, strategies as st

from wavesnap.fields import (
    DimensionMismatch,
    SymbolUndefined,
    apply_multiplier,
    evaluate,
    field,
    field_from_json,
    field_to_json,
    linear_combine,
    load_field,
    max_abs_amp,
    save_field,
    subtract,
    symbol_constant,
    symbol_product,
    write_text_atomic,
    zero_field,
)
from wavesnap.propagators import symbol_S


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
    assert f.with_items(f.items()) == f


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
    from wavesnap.fields import MultiplierSymbol

    bad = MultiplierSymbol("bad", lambda lam: float("nan"))
    with pytest.raises(SymbolUndefined):
        apply_multiplier(field(1, [((1.0,), 1.0)]), bad)


def test_linear_combine_and_zero():
    f = field(1, [((1.0,), 1.0)])
    g = field(1, [((1.0,), -0.5)])
    h = linear_combine([1.0, 2.0], [f, g])
    assert max_abs_amp(h) == 0.0
    assert h == zero_field(1)


def test_json_roundtrip(tmp_path):
    f = field(3, [((1.0, -2.0, 0.5), 1 - 1j), ((0.0, 0.0, 0.0), 0.25)])
    assert field_from_json(field_to_json(f)) == f
    p = tmp_path / "f.json"
    save_field(f, str(p))
    assert load_field(str(p)) == f
    # file is valid plain JSON
    json.loads(p.read_text())


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        field_from_json({"dim": 2})


def test_atomic_write_replaces_whole_file(tmp_path):
    p = tmp_path / "out.txt"
    write_text_atomic(str(p), "first\n")
    write_text_atomic(str(p), "second\n")
    assert p.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [p]  # no temp litter
