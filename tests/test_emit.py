"""The one JSON emitter, `fields.json_text`, against the encoder it replaced:
`json.dumps(_jsonable(doc), indent=2)` on payloads that held fields as
`field_to_json` dicts.  The old converter and the old field dicts are copied
here as the reference, and every comparison is `==` on the text; the field
dicts are also what `fields.field_from_json` reads back."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wavesnap.fields import SpectralField, field, field_from_json, json_members, json_text, save_field
from wavesnap.sphere import SphereField, dim_Hl, save_sphere_field, sphere_field


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _old_field_to_json(f):
    return {
        "dim": f.dim,
        "modes": [{"xi": list(xi), "amp": [amp.real, amp.imag]} for xi, amp in zip(f.keys, f.amps)],
    }


def _old_sphere_field_to_json(f):
    return {
        "n": f.n,
        "coeffs": [{"l": l, "m": m, "amp": [amp.real, amp.imag]} for (l, m), amp in zip(f.keys, f.amps)],
    }


def _old_form(obj):
    """The payload as the CLI built it before: fields replaced by their dicts."""
    if isinstance(obj, SpectralField):
        return _old_field_to_json(obj)
    if isinstance(obj, SphereField):
        return _old_sphere_field_to_json(obj)
    if isinstance(obj, dict):
        return {k: _old_form(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_old_form(v) for v in obj)
    return obj


def reference(obj):
    return json.dumps(_jsonable(_old_form(obj)), indent=2) + "\n"


class Count(int):
    def __repr__(self):
        return "Count(...)"


class Measure(float):
    def __repr__(self):
        return "Measure(...)"


finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
amplitudes = st.complex_numbers(max_magnitude=1e12, allow_nan=False, allow_infinity=False)


@st.composite
def flat_fields(draw):
    dim = draw(st.integers(1, 3))
    entries = draw(st.lists(st.tuples(st.tuples(*[finite] * dim), amplitudes), max_size=6))
    return field(dim, entries)


@st.composite
def sphere_fields(draw):
    n = draw(st.integers(2, 4))
    entries = []
    for l in draw(st.lists(st.integers(0, 8), max_size=6)):
        entries.append((l, draw(st.integers(1, dim_Hl(n, l))), draw(amplitudes)))
    return sphere_field(n, entries)


fields_ = flat_fields() | sphere_fields()

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers().map(Count)
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324])
    | st.floats().map(np.float64)
    | st.floats().map(Measure)
    | st.fractions()
    | st.complex_numbers()
    | st.complex_numbers().map(np.complex128)
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f", "ünïcödé ☃ 𝄞", "%r %s %%", ""])
)

payloads = st.recursive(
    scalars | fields_,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=25,
)


@st.composite
def solve_payloads(draw):
    solution = draw(st.none() | fields_)
    return {
        "alpha": draw(st.fractions() | st.floats()),
        "status": draw(st.sampled_from(["Unique", "NonUniqueKernel", "Obstructed"])),
        "residual": draw(st.floats()),
        "conditioning": draw(st.floats()),
        "kernel_modes": draw(st.lists(st.lists(finite, min_size=1, max_size=3).map(tuple), max_size=3)),
        "note": draw(st.text()),
        "solution": solution,
    }


@settings(max_examples=300, deadline=None)
@given(payloads)
@example({})
@example([])
@example({"a": [], "b": {}, "c": ()})
@example(field(2, []))
@example(sphere_field(3, []))
@example([np.float64("nan"), np.float64(-1.5), Measure("inf"), Measure(2.5), Count(3), np.complex128(complex("nan"))])
def test_emitter_matches_old_encoder(obj):
    assert json_text(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(solve_payloads(), st.integers(0, 2**40))
def test_solve_payload_matches_old_encoder(payload, seed):
    doc = {"tool": "wavesnap", "version": "0.1.0", "verb": "sphere solve", "seed": seed, **payload}
    assert json_text(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(fields_)
def test_field_document_matches_old_encoder(f):
    """A field at the top of a document (`wave evolve`, `sphere evolve`): the
    header members, then the field's members."""
    head = {"tool": "wavesnap", "version": "0.1.0", "verb": "wave evolve", "seed": 0}
    old = _old_field_to_json(f) if isinstance(f, SpectralField) else _old_sphere_field_to_json(f)
    assert json_text({**head, **json_members(f)}) == json.dumps(_jsonable({**head, **old}), indent=2) + "\n"
    assert json_text(f) == json.dumps(old, indent=2) + "\n"
    assert field_from_json(old) == f


@pytest.mark.parametrize(
    "key", [1, -7, 2.5, -0.0, math.inf, -math.inf, math.nan, True, False, None, "k", "ü\n"]
)
def test_member_names_follow_json(key):
    doc = {key: [1, {key: key}]}
    assert json_text(doc) == reference(doc)


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        object(),
        b"bytes",
        np.int64(3),
        np.bool_(True),
        np.array([1.0]),
        {"nested": [1, {"deeper": object()}]},
        {(1, 2): 0},
        {Fraction(1, 2): 0},
        {1j: 0},
    ],
)
def test_unsupported_values_raise_type_error(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        json_text(obj)


def test_save_writes_what_json_dumps_wrote(tmp_path):
    flat = [
        field(1, []),
        field(1, [((0.5,), 1.0), ((-0.0,), -2j)]),
        field(3, [((1e-300, -4.0, 1e300), 1 + 1j), ((0.1, 0.2, 0.3), complex(5e-324, -0.0))]),
    ]
    for f in flat:
        path = tmp_path / "f.json"
        save_field(f, str(path))
        assert path.read_text() == json.dumps(_old_field_to_json(f), indent=2) + "\n"
    spheres = [sphere_field(2, []), sphere_field(3, [(0, 1, 1.0), (4, 7, -0.5j), (2, 3, 1e-17)])]
    for f in spheres:
        path = tmp_path / "s.json"
        save_sphere_field(f, str(path))
        assert path.read_text() == json.dumps(_old_sphere_field_to_json(f), indent=2) + "\n"
        assert field_from_json(_old_sphere_field_to_json(f)) == f
