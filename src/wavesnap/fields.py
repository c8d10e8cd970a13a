"""Band-limited spectral fields and the multiplier operators that act on them.

A field is a sparse vector over a basis with a known frequency per key (the
`Field` interface).  Here the basis is the plane waves exp(i xi . x), keyed
by xi with frequency lambda = |xi|; `wavesnap.sphere` supplies the spherical
harmonics.  Every operator in this package is a multiplier, so it acts
diagonally: the amplitude at each key is multiplied by a symbol value at that
key's frequency.  Keeping fields as explicit mode lists makes each operator
identity checkable mode by mode, with no discretization error beyond the
symbol evaluations themselves.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, NamedTuple, Protocol


class DimensionMismatch(ValueError):
    """Operands disagree on the ambient dimension."""


class SymbolUndefined(RuntimeError):
    """A symbol evaluation produced a non-finite value: an unhandled
    singularity, which is a programming error rather than bad data."""


class Field(Protocol):
    """What the generic operators need of a field kind: its canonical
    (key, amplitude) items sorted by key, the frequency at which symbols are
    evaluated for a key, a canonical field over the same basis built from
    (key, amplitude) entries, and a typed error unless `other` shares the basis."""

    def items(self) -> Iterable[tuple[Any, complex]]: ...
    def frequency(self, key: Any) -> float: ...
    def with_items(self, entries: Iterable[tuple[Any, complex]]) -> Field: ...
    def check_same_basis(self, other: object) -> None: ...


class Mode(NamedTuple):
    xi: tuple[float, ...]
    amp: complex

    @property
    def radius(self) -> float:
        return math.hypot(*self.xi)


@dataclass(frozen=True)
class SpectralField:
    """Canonical finite mode sum: frequencies sorted, exact duplicates merged,
    zero amplitudes dropped.  Construct through `field`."""

    dim: int
    modes: tuple[Mode, ...]

    def amplitude_at(self, xi: tuple[float, ...]) -> complex:
        for m in self.modes:
            if m.xi == xi:
                return m.amp
        return 0j

    def items(self) -> tuple[Mode, ...]:
        return self.modes  # each Mode is an (xi, amp) pair

    @staticmethod
    def frequency(xi: tuple[float, ...]) -> float:
        return math.hypot(*xi)

    def with_items(self, entries: Iterable[tuple[Sequence[float], complex]]) -> SpectralField:
        return field(self.dim, entries)

    def check_same_basis(self, other: object) -> None:
        if not isinstance(other, SpectralField):
            raise DimensionMismatch(f"cannot mix a flat field with a {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatch(f"mixed dimensions {self.dim} and {other.dim}")


def _clean_xi(dim: int, xi: Sequence[float]) -> tuple[float, ...]:
    if len(xi) != dim:
        raise DimensionMismatch(f"frequency {tuple(xi)} does not have dim {dim}")
    out = []
    for v in xi:
        v = float(v) + 0.0  # fold -0.0 into +0.0 so merging and sorting agree
        if not math.isfinite(v):
            raise ValueError(f"non-finite frequency component {v!r}")
        out.append(v)
    return tuple(out)


def field(dim: int, entries: Iterable[tuple[Sequence[float], complex]]) -> SpectralField:
    """Build a canonical field from (frequency, amplitude) pairs."""
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    merged: dict[tuple[float, ...], complex] = {}
    for xi, amp in entries:
        key = _clean_xi(dim, xi)
        amp = complex(amp)
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"non-finite amplitude {amp!r}")
        merged[key] = merged.get(key, 0j) + amp
    modes = tuple(Mode(xi, amp) for xi, amp in sorted(merged.items()) if amp != 0)
    return SpectralField(dim, modes)


def evaluate(f: SpectralField, x: Sequence[float]) -> complex:
    if len(x) != f.dim:
        raise DimensionMismatch(f"point of length {len(x)} in dim {f.dim}")
    total = 0j
    for m in f.modes:
        phase = sum(a * b for a, b in zip(m.xi, x))
        total += m.amp * cmath.exp(1j * phase)
    return total


@dataclass(frozen=True)
class MultiplierSymbol:
    """Radial Fourier multiplier: a function of the spectral radius lambda >= 0.

    `singular_note` records removable singularities and how they are filled,
    purely as documentation; `fn` must already return the continued value.
    """

    label: str
    fn: Callable[[float], complex]
    singular_note: str = ""

    def __call__(self, lam: float) -> complex:
        return self.fn(lam)


def symbol_product(a: MultiplierSymbol, b: MultiplierSymbol) -> MultiplierSymbol:
    return MultiplierSymbol(f"({a.label})*({b.label})", lambda lam: a.fn(lam) * b.fn(lam))


def symbol_constant(c: complex, label: str | None = None) -> MultiplierSymbol:
    return MultiplierSymbol(label if label is not None else f"{c:g}", lambda lam: c)


def apply_multiplier(f: Field, symbol: MultiplierSymbol) -> Field:
    """Multiply each amplitude by the symbol at its key's frequency."""
    out = []
    for key, amp in f.items():
        lam = f.frequency(key)
        try:
            value = complex(symbol(lam))
        except (ArithmeticError, ValueError) as exc:
            raise SymbolUndefined(f"symbol {symbol.label} failed at lambda={lam!r}") from exc
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise SymbolUndefined(f"symbol {symbol.label} returned {value!r} at lambda={lam!r}")
        out.append((key, value * amp))
    return f.with_items(out)


def linear_combine(coeffs: Sequence[complex], fields: Sequence[Field]) -> Field:
    """sum_i coeffs[i] fields[i], over one basis."""
    if len(coeffs) != len(fields):
        raise ValueError(f"{len(coeffs)} coefficients for {len(fields)} fields")
    if not fields:
        raise ValueError("need at least one field")
    for f in fields[1:]:
        fields[0].check_same_basis(f)
    entries = []
    for c, f in zip(coeffs, fields):
        c = complex(c)
        entries.extend((key, c * amp) for key, amp in f.items())
    return fields[0].with_items(entries)


def subtract(a: Field, b: Field) -> Field:
    return linear_combine([1.0, -1.0], [a, b])


def max_abs_amp(f: Field) -> float:
    return max((abs(amp) for _, amp in f.items()), default=0.0)


def zero_field(dim: int) -> SpectralField:
    return SpectralField(dim, ())


# ---------------------------------------------------------------------------
# serialization


def field_to_json(f: SpectralField) -> dict:
    return {
        "dim": f.dim,
        "modes": [{"xi": list(m.xi), "amp": [m.amp.real, m.amp.imag]} for m in f.modes],
    }


def field_from_json(obj: dict) -> SpectralField:
    try:
        dim = int(obj["dim"])
        entries = [
            (tuple(float(v) for v in m["xi"]), complex(float(m["amp"][0]), float(m["amp"][1])))
            for m in obj["modes"]
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed field object: {exc}") from exc
    return field(dim, entries)


def save_field(f: SpectralField, path: str) -> None:
    write_text_atomic(path, json.dumps(field_to_json(f), indent=2) + "\n")


def load_field(path: str) -> SpectralField:
    with open(path, encoding="utf-8") as fh:
        return field_from_json(json.load(fh))


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
