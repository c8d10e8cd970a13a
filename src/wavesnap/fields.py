"""Band-limited spectral fields and the multiplier operators that act on them.

A field is a sparse vector over a basis with a known frequency per key:
`Field(basis, keys, freqs, amps)`, where the basis is one of `BASES`, the
table of field kinds.  `Flat(dim)` is the plane waves exp(i xi . x), keyed
by xi with frequency |xi|; `Sphere(n)` is the spherical harmonics of
`wavesnap.sphere`.  A basis owns what differs between the kinds: key checks
and frequencies (`columns`), the file layout (`header`, the name of its one
field, and `rows` of `row(key, amp)`, key `members` first), the text for a
same-kind mismatch, the solve reports' `kernel` member and `kernel_note`,
the CLI verb `group` and its `noun`.  Every operator is a multiplier, so it
acts diagonally: the amplitude at each key is multiplied by a symbol value
at that key's frequency, with no discretization error beyond the symbol
evaluations.  A multiplier never moves a key, so its result shares the basis
and the key and frequency columns of its input, and keys taken from a
canonical field are never validated again.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import json
import math
import operator
import os
import tempfile
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, NamedTuple


class DimensionMismatch(ValueError):
    """Operands disagree on the ambient dimension."""


class SymbolUndefined(RuntimeError):
    """A symbol evaluation produced a non-finite value: an unhandled
    singularity, which is a programming error rather than bad data."""


@dataclass(frozen=True)
class Flat:
    """Plane waves on R^dim: keys xi, tuples of dim floats, with frequency |xi|."""

    dim: int
    header, rows, members = "dim", "modes", ("xi",)  # a file's header member, its list of rows, a row's key members
    kernel, group, noun = "kernel_modes", "wave", "flat field"  # a solve report's kernel member, the CLI group, a name
    mismatch = "mixed dimensions {0.dim} and {1.dim}"
    kernel_note = "data at kernel frequencies of S_{t:g} has no preimage"  # an Obstructed solve's note at time t

    def __post_init__(self) -> None:
        if typed([self.dim], "dim", "JSON integer")[0] < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")

    def columns(self, xis: Sequence[Sequence[float]]) -> tuple[list, list[float]]:
        """The keys and frequencies of the frequency vectors `xis`, each
        component an int or float read as float(v) + 0.0, so -0.0 folds into
        +0.0 and merging and sorting agree."""
        dim = self.dim
        if set(map(len, xis)) - {dim}:
            bad = next(xi for xi in xis if len(xi) != dim)
            raise DimensionMismatch(f"frequency {tuple(bad)} does not have dim {dim}")
        flat = typed(list(itertools.chain.from_iterable(xis)), "xi component")
        flat = list(map((0.0).__add__, map(float, flat)))
        if not all(map(math.isfinite, flat)):
            bad = next(v for v in flat if not math.isfinite(v))
            raise ValueError(f"non-finite frequency component {bad!r}")
        components = [flat[j::dim] for j in range(dim)]
        return list(zip(*components)), list(map(math.hypot, *components))

    def row(self, key: tuple, amp: Any) -> dict:
        return {"xi": list(key), "amp": amp}


@dataclass(frozen=True)
class Sphere:
    """Spherical harmonics on the n-sphere: keys (l, m), ints with
    1 <= m <= dim_Hl(n, l), with frequency l + (n-1)/2."""

    n: int
    header, rows, members = "n", "coeffs", ("l", "m")
    kernel, group, noun = "kernel_coeffs", "sphere", "sphere field"
    mismatch = "sphere dimensions differ: {0.n} vs {1.n}"
    kernel_note = "data on zero Schur constants has no preimage"

    def __post_init__(self) -> None:
        if typed([self.n], "n", "JSON integer")[0] < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")

    def columns(self, ls: list[int], ms: list[int]) -> tuple[list, list[float]]:
        """The keys and frequencies of the columns of degrees and orders,
        with dim_Hl and the frequency computed once per degree; a frequency
        that a float does not hold exactly (from about l = 2^52) raises."""
        n = self.n
        ls, ms = typed(ls, "l", "JSON integer"), typed(ms, "m", "JSON integer")
        dims = {l: dim_Hl(n, l) for l in dict.fromkeys(ls)}
        bounds = list(map(dims.__getitem__, ls))
        if not (min(ms, default=1) >= 1 and all(map(operator.le, ms, bounds))):
            m, d, l = next((m, d, l) for m, d, l in zip(ms, bounds, ls) if not 1 <= m <= d)
            raise ValueError(f"order m={m} outside [1, {d}] for degree l={l}, n={n}")
        freq = {l: frequency(n, l) for l in dims}
        inexact = next((l for l, w in freq.items() if 2 * w != 2 * l + n - 1), None)  # an exact time reads 2w
        if inexact is not None:
            raise ValueError(f"frequency of degree l={inexact}, n={n} is not exact in a float")
        return list(zip(ls, ms)), list(map(freq.__getitem__, ls))

    def row(self, key: tuple, amp: Any) -> dict:
        return {"l": key[0], "m": key[1], "amp": amp}


BASES = (Flat, Sphere)


def dim_Hl(n: int, l: int) -> int:
    """Dimension of the degree-l harmonic space on the n-sphere."""
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    if l == 0:
        return 1
    num = (2 * l + n - 1) * math.comb(l + n - 2, l)
    assert num % (n - 1) == 0
    return num // (n - 1)


def frequency(n: int, l: int) -> float:
    """The shifted frequency w = l + (n-1)/2; integer iff n is odd."""
    return l + 0.5 * (n - 1)


class Mode(NamedTuple):
    xi: tuple[float, ...]
    amp: complex

    @property
    def radius(self) -> float:
        return math.hypot(*self.xi)


@dataclass(frozen=True)
class Field:
    """Canonical finite sum over `basis`, one of `BASES`, as parallel columns:
    `keys` (tuples, sorted, distinct), their frequencies `freqs` (at which
    symbols are evaluated) and the amplitudes `amps` (finite, nonzero).
    Construct through `from_columns`, `field` or `sphere.sphere_field`;
    operators build a field over the same basis object from canonical
    columns with `dataclasses.replace`."""

    basis: Any  # an instance of a class in BASES
    keys: tuple[tuple, ...]
    freqs: tuple[float, ...]
    amps: tuple[complex, ...]

    @property
    def modes(self) -> tuple[Mode, ...]:
        return tuple(map(Mode, self.keys, self.amps))

    @property
    def coeffs(self) -> tuple[tuple[int, int, complex], ...]:
        return tuple((l, m, amp) for (l, m), amp in zip(self.keys, self.amps))

    def amplitude_at(self, xi: tuple[float, ...]) -> complex:
        """Amplitude at `xi` by bisection on the sorted keys, 0j off the support."""
        xi = tuple(xi)
        i = bisect.bisect_left(self.keys, xi)
        return self.amps[i] if i < len(self.keys) and self.keys[i] == xi else 0j

    def check_same_basis(self, other: Field) -> None:
        a, b = self.basis, other.basis
        if a is not b and a != b:
            same_kind = type(a) is type(b)
            raise DimensionMismatch(a.mismatch.format(a, b) if same_kind else f"cannot mix a {a.noun} with a {b.noun}")


Columns = tuple[tuple[Any, ...], tuple[float, ...], tuple[complex, ...]]


def canonical_columns(keys: Sequence[Any], freqs: Sequence[float], amps: Sequence[complex]) -> Columns:
    """The one canonicalizer: parallel columns of valid keys, their
    frequencies and amplitudes become canonical columns.  Every amplitude
    must be finite.  Equal keys sum in entry order, starting from 0j so that
    -0.0 folds to +0.0; keys come out sorted, and zero sums are dropped.
    Columns already in that form, keys strictly increasing and amplitudes
    nonzero (every file `json_text` writes), skip the merge and the sort."""
    check_finite(amps)
    if all(amps) and all(map(operator.lt, keys, keys[1:])):
        return tuple(keys), tuple(freqs), tuple(map((0j).__add__, amps))
    merged: dict[Any, complex] = {}
    freq: dict[Any, float] = {}
    for key, lam, amp in zip(keys, freqs, amps):
        merged[key] = merged.get(key, 0j) + amp
        freq[key] = lam
    keys = tuple(key for key in sorted(merged) if merged[key] != 0)
    return keys, tuple(map(freq.__getitem__, keys)), tuple(map(merged.__getitem__, keys))


_TYPES = {"JSON number": {int, float}, "JSON integer": {int}, "number": {int, float, complex}}


def typed(values: list, name: str, kind: str = "JSON number") -> list:
    """`values`, a builder's or a reader's `name` column, unless one is no `kind`
    (a bool is none; only a "number" may be complex): TypeError naming the first."""
    if not _TYPES[kind].issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _TYPES[kind])
        raise TypeError(f"{name} {bad!r} is not a {kind}")
    return values


def from_columns(basis: Any, key_columns: Sequence[list], amps: Sequence[complex]) -> Field:
    """The canonical field over `basis` of its key members' columns, as
    `basis.columns` reads them, and the amplitudes, converted a column at a time."""
    keys, freqs = basis.columns(*key_columns)
    typed(amps, "amplitude", "number")
    return Field(basis, *canonical_columns(keys, freqs, amps))


def field(dim: int, entries: Iterable[tuple[Sequence[float], complex]]) -> Field:
    """Build a canonical flat field from (frequency, amplitude) pairs."""
    entries = list(entries)
    return from_columns(Flat(dim), [[xi for xi, _ in entries]], [amp for _, amp in entries])


@dataclass(frozen=True)
class MultiplierSymbol:
    """Radial Fourier multiplier: a function of the spectral radius lambda >= 0.
    At a removable singularity `fn` returns the continued value."""

    label: str
    fn: Callable[[float], complex]

    def __call__(self, lam: float) -> complex:
        return self.fn(lam)


def symbol_constant(c: complex) -> MultiplierSymbol:
    return MultiplierSymbol(f"{c:g}", lambda lam: c)


def symbol_values(symbol: MultiplierSymbol, freqs: Sequence[float]) -> list[complex]:
    """The symbol at each frequency, as `fn` returns it: a float multiplies a
    complex amplitude bit for bit as complex(value) does.  A value that fails
    or is not finite raises SymbolUndefined, naming the first such frequency."""
    fn = symbol.fn
    try:
        values = list(map(fn, freqs))
    except (ArithmeticError, ValueError):
        values = None
    if values is None or not all(map(cmath.isfinite, values)):
        for lam in freqs:
            try:
                value = complex(fn(lam))
            except (ArithmeticError, ValueError) as exc:
                raise SymbolUndefined(f"symbol {symbol.label} failed at lambda={lam!r}") from exc
            if not cmath.isfinite(value):
                raise SymbolUndefined(f"symbol {symbol.label} returned {value!r} at lambda={lam!r}")
    return values


def apply_multiplier(f: Field, symbol: MultiplierSymbol) -> Field:
    """Multiply each amplitude by the symbol at its key's frequency.  The
    result shares f's key and frequency columns unless a product is zero."""
    products = list(map(operator.mul, symbol_values(symbol, f.freqs), f.amps))
    check_finite(products)
    return _with_amps(f, f.keys, f.freqs, products)


def linear_combine(coeffs: Sequence[complex], fields: Sequence[Field]) -> Field:
    """sum_i coeffs[i] fields[i], over one basis.  The amplitudes add
    position by position over the union of the supports, each key's sum
    starting from 0j and taking the fields in order.  The sums are checked
    once: a product that overflows leaves its sum non-finite, and so does a
    sum of finite products that overflows."""
    if len(coeffs) != len(fields):
        raise ValueError(f"{len(coeffs)} coefficients for {len(fields)} fields")
    if not fields:
        raise ValueError("need at least one field")
    products = [list(map(complex(c).__mul__, f.amps)) for c, f in zip(coeffs, fields)]
    keys, freqs, columns = union_columns(fields, products)
    sums = [0j] * len(keys)
    for column in columns:
        sums = list(map(operator.add, sums, column))
    check_finite(sums)
    return _with_amps(fields[0], keys, freqs, sums)


def union_columns(fields: Sequence[Field], values: Sequence[Sequence] | None = None) -> tuple[tuple, tuple, list]:
    """The sorted union of the keys of `fields` (one basis), its frequency
    column, and each field's amplitudes (or `values[i]`, at fields[i]'s keys)
    there, 0j off its support.  The key and frequency columns are the first
    field's when all share keys, else the first longest field's where it
    holds every key.  A field lacking keys is read through a copy of one
    0j-valued dict of the union, so only its own keys are hashed again."""
    values = [f.amps for f in fields] if values is None else values
    first = fields[0]
    for f in fields[1:]:
        first.check_same_basis(f)
    if all(f.keys is first.keys or f.keys == first.keys for f in fields[1:]):
        return first.keys, first.freqs, values
    big = max(fields, key=lambda f: len(f.keys))
    freq = dict(zip(big.keys, big.freqs))
    for f in fields:
        if f.keys is not big.keys and f.keys != big.keys:
            freq.update(zip(f.keys, f.freqs))
    if len(freq) == len(big.keys):  # big holds every key, and freq has big's order
        keys, freqs, zeros = big.keys, big.freqs, dict.fromkeys(freq, 0j)
    else:
        keys = tuple(sorted(freq))
        freqs, zeros = tuple(map(freq.__getitem__, keys)), dict.fromkeys(keys, 0j)
    out = []
    for f, column in zip(fields, values):
        if len(f.keys) < len(keys):  # else f holds every key of the union, in its order
            at = zeros.copy()
            at.update(zip(f.keys, column))
            column = list(at.values())
        out.append(column)
    return keys, freqs, out


def check_finite(amps: Sequence[complex]) -> None:
    if not all(map(cmath.isfinite, amps)):
        bad = next(amp for amp in amps if not cmath.isfinite(amp))
        raise ValueError(f"non-finite amplitude {bad!r}")


def _with_amps(like: Field, keys: tuple[Any, ...], freqs: tuple[float, ...], amps: Sequence[complex]) -> Field:
    """A field of like's basis on canonical keys and freqs, with finite
    amplitudes folded by 0j + amp (so -0.0 reads +0.0) and zero ones dropped.
    When none drops, the result shares the key and frequency tuples."""
    amps = tuple(map((0j).__add__, amps))
    if not all(amps):
        keys, freqs, amps = (tuple(itertools.compress(c, amps)) for c in (keys, freqs, amps))
    return replace(like, keys=keys, freqs=freqs, amps=amps)


# ---------------------------------------------------------------------------
# serialization

_string = json.encoder.encode_basestring_ascii
_SLOT = "\0"  # a number's place in a row template


@dataclass(frozen=True)
class _Rows:
    field: Field


def json_members(f: Field) -> dict:
    """A field's JSON members, as its basis says: its `header` and the value
    of that field of the basis, then under `rows` one `row(key, [re, im])`
    per key, the key's numbers first.  The rows are left for `json_text` to
    write straight from the columns."""
    basis = f.basis
    return {basis.header: getattr(basis, basis.header), basis.rows: _Rows(f)}


def json_text(obj: Any) -> str:
    """The one JSON emitter: `json.dumps(obj, indent=2)` plus a newline, where
    obj may also hold fields (written as `json_members` says), `Fraction`s ("p/q"),
    complex numbers ([re, im]) and non-finite floats (their repr, as a string).
    It raises TypeError wherever `json.dumps` would."""
    return _encode(obj, "\n") + "\n"


def _encode(obj: Any, pad: str) -> str:
    """obj as JSON text whose lines start with `pad` (a newline and the
    indentation), checking plain values in the order `json` does."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else _string(repr(obj))
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join([_encode(v, inner) for v in obj]) + pad + "]" if obj else "[]"
    if isinstance(obj, dict):
        members = [_key(k) + ": " + _encode(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(members) + pad + "}" if obj else "{}"
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, complex):  # json's own float text: non-finite parts read NaN, Infinity
        return "[" + inner + json.dumps(obj.real) + "," + inner + json.dumps(obj.imag) + pad + "]"
    if isinstance(obj, _Rows):
        return _rows(obj.field, pad)
    if isinstance(obj, Field):
        return _encode(json_members(obj), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _key(k: Any) -> str:
    """A member name; json's own rules turn number, bool and None keys into text."""
    return _string(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]


def _rows(f: Field, pad: str) -> str:
    """f's rows through one `%r` template built from its row: the repr of a
    float is what `json` writes, and canonical columns hold finite Python
    floats and ints, so no row needs a check."""
    if not f.keys:
        return "[]"
    inner = pad + "  "
    row = _encode(f.basis.row((_SLOT,) * len(f.keys[0]), [_SLOT, _SLOT]), inner)
    template = inner + row.replace("%", "%%").replace(_string(_SLOT), "%r")
    return "[" + ",".join([template % (key + (amp.real, amp.imag)) for key, amp in zip(f.keys, f.amps)]) + pad + "]"


def json_columns(rows: Sequence[dict], *names: str) -> list[list]:
    """The members `names` of a document's rows, one column per name."""
    return [list(map(operator.itemgetter(name), rows)) for name in names]


def amps_from_json(rows: Sequence[dict]) -> list[complex]:
    """The rows' amplitudes, each held as [re, im] of JSON numbers, converted a column at a time."""
    (pairs,) = json_columns(rows, "amp")
    re, im = (typed(list(map(operator.itemgetter(i), pairs)), "amp part") for i in (0, 1))
    if set(map(len, pairs)) - {2}:
        raise TypeError(f"amp {next(pair for pair in pairs if len(pair) != 2)!r} is not an [re, im] pair")
    return list(map(complex, re, im))


def field_from_json(obj: Any) -> Field:
    """The field a JSON document holds, the inverse of `json_text`.  The
    document's basis is the one of `BASES` whose header is a member; its
    key members' columns and the amplitudes are read, then `from_columns`
    checks each number by `typed` and converts it once.  A malformed
    document raises ValueError."""
    try:
        found = [kind for kind in BASES if kind.header in obj]
        if len(found) != 1:
            headers = " and ".join(repr(kind.header) for kind in BASES)
            raise ValueError(f"a field document has exactly one of the members {headers}")
        (kind,) = found
        rows = obj[kind.rows]
        columns, amps = json_columns(rows, *kind.members), amps_from_json(rows)
        return from_columns(kind(obj[kind.header]), columns, amps)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed field document: {exc}") from exc


def save_field(f: Field, path: str) -> None:
    write_text_atomic(path, json_text(f))


def load_field(path: str) -> Field:
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
