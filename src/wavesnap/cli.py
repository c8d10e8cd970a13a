"""Command-line front end.

One invocation runs one verb.  Inputs are JSON field files, outputs are JSON
or CSV written atomically (temp file, then rename).  Every output carries a
header naming the verb, the seed, and the tool version, and identical
invocations produce byte-identical files.

A verb is one row of `VERBS`: its help, its handler, its field-file flags and
its other flags, from which one loop builds its parser.  `run` loads the
fields in the row's files, each over a basis of the verb group's kind, before
the handler runs, and passes them to it after the parsed arguments.

Exit codes: 0 for a completed run, including negative mathematical results
(an Obstructed solve, data failing a compatibility gate included, is a
finding, not a failure); 1 for domain errors (bad numbers, unreadable files,
exhausted precision); 2 for usage errors, which print the grammar to stderr.
Every solve verb emits one report shape: status (Unique, NonUniqueKernel or
Obstructed), residual, conditioning, kernel modes, note and solution.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from . import __version__, snapshots
from .fields import (
    BASES,
    Field,
    SymbolUndefined,
    json_members,
    json_text,
    load_field,
    symbol_constant,
    write_text_atomic,
)
from .propagators import PrecisionExhausted, as_radians, symbol_Psi, symbol_S, symbol_Sprime

if TYPE_CHECKING:
    from . import diophantine

# ArithmeticError: ZeroDivisionError, and OverflowError from results beyond the float range
_DOMAIN_ERRORS = (ValueError, OSError, KeyError, ArithmeticError, PrecisionExhausted, SymbolUndefined)
# the names of `experiments.ALL`, held here so that building the parser imports no experiment
SUITES = (
    "recursion", "identities", "three-snapshot", "liouville", "rational", "oddtype", "jointbound", "sphere", "sdprobe"
)


# -- parsing helpers --------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}") from exc


def _pi_time(text: str) -> Fraction:
    """An exact time P/Q of pi whose radians, which the sphere verbs take, are in the float range."""
    beta = _fraction(text)
    try:
        finite = math.isfinite(as_radians(beta))  # P/Q past the float range raises, pi P/Q past it is inf
    except OverflowError:
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(f"time {text} pi leaves the float range")
    return beta


def _ratio_time(text: str) -> Fraction:
    """An exact time P/Q whose P and step 1/Q, which the Bezout solve takes as floats, are in the float range."""
    alpha = _fraction(text)
    try:
        alpha.numerator * (1.0 / alpha.denominator)
    except OverflowError:
        raise argparse.ArgumentTypeError(f"time {text} leaves the float range: its P or Q is past 1.8e308") from None
    return alpha


def _coeff_list(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def number_class(spec: str) -> diophantine.NumberClass:
    """Build a NumberClass from a compact spec string.

    rational:P/Q (or a bare P/Q), sqrt2, golden, liouville:BASE:DEPTH[:c1,..],
    binary:DEPTH, oddtype:DEPTH[:c1,..], doubled:<spec>.
    """
    from . import diophantine

    head, _, rest = spec.partition(":")
    if head == "doubled":
        return diophantine.doubled(number_class(rest))
    if spec == "sqrt2":  # no parameters: "sqrt2:..." is an unknown spec
        return diophantine.sqrt2_class()
    if spec == "golden":
        return diophantine.golden_class()
    if head == "binary":
        return diophantine.liouville_truncation(2, None, int(rest))
    if head == "oddtype":
        depth, _, coeffs = rest.partition(":")
        depth = int(depth)
        return diophantine.liouville_truncation(3, _coeff_list(coeffs) if coeffs else None, depth)
    if head == "liouville":
        base, _, rest2 = rest.partition(":")
        depth, _, coeffs = rest2.partition(":")
        # bad digits, else a bad depth, are named before a bad base
        cs, depth = (_coeff_list(coeffs), depth) if coeffs else (None, int(depth))
        return diophantine.liouville_truncation(int(base), cs, int(depth))
    try:  # rational:P/Q, or a bare P/Q
        return diophantine.rational_number(Fraction(rest if head == "rational" else spec))
    except ZeroDivisionError:
        raise ValueError(f"number spec {spec!r} has a zero denominator") from None
    except ValueError:
        if head == "rational":
            raise
        raise ValueError(
            f"unknown number spec {spec!r}: use P/Q, rational:P/Q, sqrt2, golden, "
            "liouville:BASE:DEPTH[:c1,..], binary:DEPTH, oddtype:DEPTH[:c1,..], or doubled:<spec>"
        ) from None


def _number_spec(text: str) -> diophantine.NumberClass:
    try:
        return number_class(text)
    except (ValueError, ZeroDivisionError, PrecisionExhausted) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


COUNT_MAX = 10**5  # the most points or rows a size flag may ask for, each a Python object or more


def _check_count(flag: str, count: int) -> None:
    """A size flag's bound from above, checked before anything of that size is built."""
    if count > COUNT_MAX:
        raise ValueError(f"{flag} must be at most {COUNT_MAX}, got {count}")


def _load(args: argparse.Namespace) -> list:
    """The fields in the files of the verb's field-file flags, each over a
    basis that its verb group reads."""
    loaded = []
    for name in args.files:
        path = getattr(args, name)
        f = load_field(path)
        if f.basis.group != args.group:
            want = next(kind.noun for kind in BASES if kind.group == args.group)
            raise ValueError(f"{path} holds a {f.basis.noun}; {args.group} verbs read a {want}")
        loaded.append(f)
    return loaded


# -- serialization ----------------------------------------------------------


def _solve_payload(rep: snapshots.SolveReport, f0: Field) -> dict:
    return {
        "status": rep.status,
        "residual": rep.residual,
        "conditioning": rep.conditioning,
        f0.basis.kernel: [list(key) for key in rep.kernel_modes],
        "note": rep.note,
        "solution": rep.solution,
    }


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, verb: str, payload: dict) -> None:
    _write(args, json_text({"tool": "wavesnap", "version": __version__, "verb": verb, "seed": args.seed, **payload}))


def _emit_csv(
    args: argparse.Namespace,
    verb: str,
    names: Sequence[str],
    columns: Sequence[Sequence] | str,
    comments: Sequence[str] = (),
) -> None:
    """The CSV of one column per name, each cell its str(), or of the rows'
    lines when `columns` is their text (`_repr_rows`); columns of unequal
    length, or not one per name, raise ValueError."""
    buf = io.StringIO()
    buf.write(f"# wavesnap {__version__}\n# verb: {verb}\n# seed: {args.seed}\n")
    buf.writelines(f"# {line}\n" for line in comments)
    buf.write(",".join(names) + "\n")
    if isinstance(columns, str):
        buf.write(columns)
    else:
        if len(columns) != len(names):
            raise ValueError(f"{len(columns)} columns for {len(names)} names")
        buf.writelines(",".join(map(str, row)) + "\n" for row in zip(*columns, strict=True))
    _write(args, buf.getvalue())


REPR_BLOCK = 8192  # rows `_repr_rows` writes per numpy pass


def _repr_rows(degrees: Sequence[int], values: Sequence[float]) -> str:
    """The CSV lines f"{l},{float(v)!r}\\n" of the rows (l, v) of `degrees`, ints
    in [0, 10^8), and `values`, floats, a block of REPR_BLOCK rows at a time;
    either may be a sequence or a numpy array.

    Each block is one uint32 matrix of four-byte quads, a row of 36 bytes per
    line: the degree's eight digits (quads 0-1), NUL and "," (bytes 8-9), the
    value's text (24 bytes from 10, room for repr's longest) and "\\n" (byte 35).
    Digits come four at a time from a table of "0000".."9999"; NULs stand in
    front of the degree's leading digit and after the value's last one, and
    one compaction drops them before the block's text is decoded.

    The text of each v in [1e-4, 1), where repr writes 0.<digits>, comes from
    integer arithmetic.  Write v = m 2^e2 (53-bit m) and k = 16 - floor(log10 v),
    so that X = v 10^k lies in [1e16, 1e17).  The reals that round to v lie
    between (2m -+ 1) 5^k / 2^S in X units, S = 1 - k - e2: odd multiples of
    2^-S, never integers, so whether the ends round to v does not matter.  repr
    writes the fewest digits that land in that interval and, of those, the
    nearest to v (Steele and White): the multiple D of 10^j nearest X, for the
    largest j with a multiple of 10^j in the interval.  2m 5^k < 2^103 is held
    in base 2^52, from 26-bit split products, so int64 holds every step.  repr
    itself writes the elements outside the window, a power of two (m = 2^52:
    the interval is asymmetric), an exact tie, a misjudged floor(log10 v) (X out
    of range) and a D that carries to 1e17."""
    import numpy as np

    pow10, five = 10 ** np.arange(18), 5 ** np.arange(23)
    low26 = 2**26 - 1
    quads = (np.arange(10**4)[:, None] // pow10[3::-1] % 10 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    first = (np.arange(4) < np.arange(5)[:, None]).astype(np.uint8) * 255  # row c keeps a quad's first c bytes
    first, last = first.view(np.uint32).ravel(), first[:, ::-1].copy().view(np.uint32).ravel()  # last: its last c
    blocks = []
    for i in range(0, len(values), REPR_BLOCK):
        v = np.array(values[i : i + REPR_BLOCK], dtype=float)  # a copy: the rows outside the window are overwritten
        degree = np.asarray(degrees[i : i + REPR_BLOCK], dtype=np.int64)
        window = (v >= 1e-4) & (v < 1.0)
        v[~window] = 0.5
        bits = v.view(np.int64)
        m = (bits & (2**52 - 1)) | 2**52
        k = 16 - np.floor(np.log10(v)).astype(np.int64)
        s = 1 - k - ((bits >> 52) - 1075)
        mask = (np.int64(1) << s) - 1
        a1, a0 = m >> 25, (2 * m) & low26
        b1, b0 = five[k] >> 26, five[k] & low26
        t0 = a0 * b0
        t1 = a0 * b1 + a1 * b0 + (t0 >> 26)
        low = (t1 & low26) << 26 | t0 & low26  # 2m 5^k = top 2^52 + low
        top = a1 * b1 + (t1 >> 26)
        x, frac = (top << (52 - s)) | (low >> s), low & mask  # X = x + frac / 2^S, as S <= 52
        hq, hr = five[k] >> s, five[k] & mask  # the half-width 5^k / 2^S
        lo = x - hq + 1 - (frac < hr)  # the least integer in the interval: its ends are never integers
        hi = x + hq + ((frac + hr) >> s)  # the greatest
        j, more, p = np.zeros_like(x), np.arange(len(x)), 10
        while more.size:  # a multiple of 10^(j+1) is one of 10^j too
            more = more[hi[more] // p * p >= lo[more]]
            j[more] += 1
            p *= 10
        p = pow10[j]
        d, r = np.divmod(x, p)
        twice = 2 * r + (frac >> (s - 1))  # (twice, rest) against (p, 0): X - d p against p / 2
        rest = frac & (mask >> 1)
        digits = (d + ((twice > p) | ((twice == p) & (rest > 0)))) * p
        bad = ~window | (m == 2**52) | ((twice == p) & (rest == 0))
        bad |= (x < 10**16) | (x >= 10**17) | (digits >= 10**17)
        text = np.zeros((len(v), 9), dtype=np.uint32)
        text[:, 0], text[:, 1] = quads[degree // 10**4], quads[degree % 10**4]
        width = np.searchsorted(pow10[1:8], degree, side="right") + 1  # the degree's digits
        text[:, 0] &= last[np.clip(width - 4, 0, 4)]
        text[:, 1] &= last[np.minimum(width, 4)]
        # "0." and the 20 digits of v 10^20 = D 10^(20 - k), in quads 3-7, less its 20 - k + j trailing zeros
        shift = np.clip(k, 17, 20)  # k, kept in range on the rows with a misjudged floor(log10 v)
        head, tail = np.divmod(digits, pow10[shift - 8])  # v 10^20 = head 10^12 + tail
        tail *= pow10[20 - shift]
        groups = (head // 10**4, head % 10**4, tail // 10**8, tail // 10**4 % 10**4, tail % 10**4)
        for quad, group in enumerate(groups):
            text[:, 3 + quad] = quads[group] & first[np.clip(shift - j - 4 * quad, 0, 4)]
        chars = text.view(np.uint8)
        chars[:, 9:12] = np.frombuffer(b",0.", dtype=np.uint8)
        chars[:, 35] = ord("\n")
        rows = np.flatnonzero(bad)
        if rows.size:
            texts = np.array([repr(float(values[i + r])) for r in rows.tolist()], dtype="S24")
            chars[rows, 10:34] = texts.view(np.uint8).reshape(-1, 24)
        blocks.append(chars.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


# -- wave verbs --------------------------------------------------------------


def _evolve(args, f0: Field, g: Field) -> dict:
    return json_members(snapshots.evolve(snapshots.CauchyData(f0, g), args.t))


def _wave_snapshot(args, ua: Field, ub: Field) -> dict:
    return json_members(snapshots.general_integer_snapshot(ua, ub, args.a, args.b, args.m))


def _wave_two_solve(args, f0: Field, f1: Field) -> dict:
    return _solve_payload(snapshots.two_snapshot_solve(f0, f1), f0)


def _wave_compat(args, *fields: Field) -> dict:
    try:
        r = snapshots.compatibility_residual_general(*fields, 0.0, 1.0, args.alpha)
    except OverflowError as exc:
        raise ValueError(f"--alpha {args.alpha!r}: {exc}") from None
    return {"alpha": args.alpha, "residual": r}


def _wave_three_solve(args, *fields: Field) -> dict:
    rep = snapshots.three_snapshot_solve(*fields, args.alpha)
    return {"alpha": args.alpha, **_solve_payload(rep, fields[0])}


def _wave_rational_solve(args, *fields: Field) -> dict:
    rep = snapshots.rational_reconstruct(*fields, args.p, args.q)
    return {"p": args.p, "q": args.q, **_solve_payload(rep, fields[0])}


def _wave_liouville_demo(args) -> tuple:
    rows = snapshots.liouville_obstruction_demo(args.kmax)
    columns = [[getattr(r, name) for r in rows] for name in ("k", "q", "sin_abs", "amplitude")]
    comments = [
        f"alpha: base-10 factorial series, depth {args.kmax}",
        f"data_sup at step k: q_k^(1-k); certified: {all(r.certified for r in rows)}",
    ]
    return ("k", "q_k", "sin_abs", "amplitude"), columns, comments


_SYMBOLS = {
    "S": lambda a: symbol_S(a.t),
    "Sprime": lambda a: symbol_Sprime(a.t),
    "Psi": lambda a: symbol_Psi(a.m, a.s),
}


def _wave_symbol(args) -> tuple:
    sym = _SYMBOLS[args.kind](args)
    if args.count < 2:
        raise ValueError("--count must be at least 2")
    _check_count("--count", args.count)
    step = (args.max - args.min) / (args.count - 1)
    time = ("--s", args.s) if args.kind == "Psi" else ("--t", args.t)
    for flag, v in (("--min", args.min), ("--max", args.max), time, ("--max minus --min", step)):
        if not math.isfinite(v):
            raise ValueError(f"{flag} must be finite, got {v!r}")
    lams = [args.min + i * step for i in range(args.count)]
    try:
        values = [repr(sym(lam)) for lam in lams]
    except (ArithmeticError, ValueError):  # t lam, s lam or m s lam beyond the float range
        flags = "--m or --s" if args.kind == "Psi" else "--t"
        msg = f"{sym.label} has no finite value on the grid up to --max {args.max!r}: {flags} too large"
        raise ValueError(msg) from None
    return ("lam", "value"), [list(map(repr, lams)), values], [f"symbol: {sym.label}"]


# -- dio verbs ---------------------------------------------------------------


def _dio_cfrac(args) -> dict:
    from . import diophantine

    cf = diophantine.continued_fraction(args.value, args.max_terms)
    return {"value": args.value, "partial_quotients": list(cf.partial_quotients), "convergents": list(cf.convergents)}


def _dio_class(args) -> dict:
    x = args.number
    return {
        "label": x.label,
        "kind": x.kind,
        "value": x.value,
        "err_bound": x.err_bound,
        "measure_bound": x.measure_bound,
        "quotient_bound": x.quotient_bound,
        "base": x.base,
        "depth": x.depth,
        "half": x.half.label if x.half is not None else None,
    }


def _dio_probe_mu(args) -> dict:
    from . import diophantine

    rows = diophantine.irrationality_exponent_probe(args.number, args.depth)
    return {"number": args.number.label, "rows": [{"index": r.index, "q": r.q, "mu": r.mu} for r in rows]}


def _dio_smallden(args) -> tuple:
    from . import diophantine

    table = diophantine.small_denominator_sequence(args.number, args.shift, args.count)
    comments = [
        f"beta: {table.beta_label}, shift: {table.shift}",
        f"exact zeros at l: {list(table.zero_rows) if table.zero_rows else 'none'}",
        f"fitted lower-envelope exponent: {table.fitted_exponent}",
    ]
    return ("l", "value"), _repr_rows(table.degrees, table.values), comments


def _dio_oddtype(args) -> dict:
    from . import diophantine

    rep = diophantine.odd_type_verifier(args.qmax)
    return {**dataclasses.asdict(rep), "passes": rep.passes}


def _dio_jointbound(args) -> dict:
    from . import diophantine

    try:
        b = diophantine.joint_sine_lower_bound_check(args.number, args.exponent, args.xmax)
    except OverflowError as exc:
        raise ValueError(f"--exponent {args.exponent} too large: {exc}") from None
    return {"number": args.number.label, "exponent": args.exponent, "x_max": args.xmax,
            "C": b.c, "passes": b.passes, "certificate": b.certificate, "upper": b.c_upper, "witness_q": b.witness}


_PROBE_SYMBOLS = {
    "sine": lambda: symbol_S(1.0),
    "cosine": lambda: symbol_Sprime(1.0),
    "zero": lambda: symbol_constant(0.0),
}


def _dio_sdprobe(args) -> tuple:
    from . import diophantine

    _check_count("--samples", args.samples)
    symbol = _PROBE_SYMBOLS[args.symbol]()
    try:
        rows = diophantine.slowly_decreasing_probe(symbol, args.a_const, args.ximax, samples=args.samples)
    except ValueError as exc:
        raise ValueError(f"--a-const {args.a_const!r}, --ximax {args.ximax!r}, --samples {args.samples}: {exc}") from None
    names = ("xi", "threshold", "eta", "value", "ok")  # repr of the bool ok is its str
    passes = all(r.ok for r in rows)
    comments = [f"symbol: {args.symbol}, window constant A: {args.a_const}", f"all windows pass: {passes}"]
    return names, [[repr(getattr(r, name)) for r in rows] for name in names], comments


def _dio_doubled_bound(args) -> dict:
    from . import diophantine

    w = diophantine.doubled_liouville_bound(args.number, args.exponent)
    return {"number": args.number.label, **dataclasses.asdict(w), "ok": w.ok}


# -- sphere verbs ------------------------------------------------------------


def _sphere_snapshot(args, ua: Field, ualpha: Field) -> dict:
    return json_members(snapshots.general_integer_snapshot(ua, ualpha, 0.0, args.alpha, args.m))


def _sphere_solve(args, f0: Field, falpha: Field) -> dict:
    rep = snapshots.two_snapshot_solve(f0, falpha, args.alpha)
    return {"alpha": args.alpha, **_solve_payload(rep, f0)}


def _sphere_huygens(args, f0: Field, g: Field) -> dict:
    from . import sphere

    _check_count("--t-count", args.t_count)
    _check_count("--c-count", args.c_count)
    if args.t_count < 2:
        raise ValueError("--t-count must be at least 2")
    if not math.isfinite(args.tmax):
        raise ValueError(f"--tmax must be finite, got {args.tmax!r}")
    times = [args.tmax * j / (args.t_count - 1) for j in range(args.t_count)]
    r = sphere.huygens_antipodal_check(f0, g, times, c_count=args.c_count)
    return {"t_count": args.t_count, "c_count": args.c_count, "max_residual": r}


def _sphere_classify(args) -> dict:
    from . import sphere

    cls = sphere.classify_alpha(args.number, args.n)
    return {"n": args.n, "number": args.number.label, "verdict": cls.verdict, "reason": cls.reason}


def _sphere_margin(args) -> dict:
    from . import sphere

    try:
        c, passes = sphere.surjectivity_margin(args.alpha, args.n, args.max_degree, args.exponent)
    except OverflowError as exc:
        raise ValueError(f"--exponent {args.exponent} too large: {exc}") from None
    return {
        "alpha": args.alpha,
        "n": args.n,
        "max_degree": args.max_degree,
        "exponent": args.exponent,
        "C": c,
        "passes": passes,
    }


# -- reproduce ---------------------------------------------------------------


def _reproduce(args) -> int:
    from . import experiments

    results = experiments.run([args.suite], seed=args.seed)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['details']}")
    if args.out:
        _emit_json(args, args.group, {"suite": args.suite, "results": results})
    return 0 if all(r["passed"] for r in results) else 1


# -- the verb table ----------------------------------------------------------

# A verb row is (help, handler, field-file flags, flags).  A flag is its spelling and its `add_argument` keywords;
# a flag with a default and no type reads values of the default's type.  A pair of spellings is a float/exact time
# (`_time_pair`), its keywords a help text for each spelling and the exact one's type.  A field-file flag, required,
# is a spelling or a flag; `run` loads the fields in the row's files and passes them to the handler after the args.
# A group is (help, {verb: row}), or a verb row of its own when it has no verbs.
_INT, _FLOAT, _NUMBER = ({"type": kind, "required": True} for kind in (int, float, _number_spec))
VERBS = {
    "wave": ("Euclidean evolution, snapshots, and solvers", {
        "evolve": ("evolve Cauchy data to time t", _evolve,
                   [("--field", {"help": "position snapshot JSON"}), ("--velocity", {"help": "velocity field JSON"})],
                   [("--t", _FLOAT)]),
        "snapshot": ("snapshot at time a+m(b-a) from the pair at a, b", _wave_snapshot, ["--ua", "--ub"],
                     [("--m", _INT), ("--a", {"default": 0.0}), ("--b", {"default": 1.0})]),
        "two-solve": ("recover velocity from snapshots at 0 and 1", _wave_two_solve, ["--f0", "--f1"], []),
        "compat": ("three-snapshot compatibility residual", _wave_compat, ["--f0", "--f1", "--falpha"],
                   [("--alpha", _FLOAT)]),
        "three-solve": ("recover velocity from snapshots at 0, 1, alpha", _wave_three_solve,
                        ["--f0", "--f1", "--falpha"],
                        [(("--alpha", "--alpha-frac"),
                          {"help": ("alpha as a double", "alpha as an exact rational P/Q"), "type": _ratio_time})]),
        "rational-solve": ("recover velocity from snapshots at 0, p, q (coprime)", _wave_rational_solve,
                           ["--f0", "--fp", "--fq"], [("--p", _INT), ("--q", _INT)]),
        "liouville-demo": ("certified small-denominator amplification table", _wave_liouville_demo, [],
                           [("--kmax", {"default": 6})]),
        "symbol": ("tabulate a multiplier symbol on a grid", _wave_symbol, [], [
            ("--kind", {"choices": sorted(_SYMBOLS), "required": True}),
            ("--t", {"default": 1.0, "help": "time for S / Sprime"}),
            ("--m", {"default": 2, "help": "index for Psi"}),
            ("--s", {"default": 1.0, "help": "step for Psi"}),
            ("--min", {"default": 0.0}),
            ("--max", {"default": 10.0}),
            ("--count", {"default": 101}),
        ]),
    }),
    "dio": ("Diophantine toolkit", {
        "cfrac": ("continued fraction of an exact rational", _dio_cfrac, [],
                  [("--value", {"type": _fraction, "required": True}), ("--max-terms", {"default": 40})]),
        "class": ("describe a number class spec", _dio_class, [], [("--number", _NUMBER)]),
        "probe-mu": ("irrationality exponent along convergents", _dio_probe_mu, [],
                     [("--number", _NUMBER), ("--depth", {"default": 6})]),
        "smallden": ("|sin(pi(l+shift)beta)| table with exact zero detection", _dio_smallden, [],
                     [("--number", _NUMBER), ("--shift", {"type": _fraction, "default": Fraction(0)}),
                      ("--count", {"default": 1000})]),
        "oddtype": ("odd-denominator margin scan for the binary factorial series", _dio_oddtype, [],
                    [("--qmax", _INT)]),
        "jointbound": ("joint sine bound: certified lower C, witnessed upper", _dio_jointbound, [], [
            ("--number", {"type": _number_spec, "default": "sqrt2", "help": "default sqrt2"}),
            ("--exponent", {"default": 3}),
            ("--xmax", {"default": 1e4, "help": "upper-side witnesses x = q pi up to XMAX"}),
        ]),
        "sdprobe": ("slowly-decreasing window probe of a symbol", _dio_sdprobe, [], [
            ("--symbol", {"choices": sorted(_PROBE_SYMBOLS), "default": "sine"}),
            ("--a-const", {"default": 4.0}),
            ("--ximax", {"default": 1e3}),
            ("--samples", {"default": 512}),
        ]),
        "doubled-bound": ("approximation bound transported to the doubled number", _dio_doubled_bound, [],
                          [("--number", _NUMBER), ("--exponent", {"default": 3})]),
    }),
    "sphere": ("waves on the round sphere", {
        "evolve": ("evolve sphere Cauchy data to time t", _evolve, ["--f0", "--g"],
                   [(("--t", "--t-pi"), {"help": (None, "time as P/Q of pi"), "type": _pi_time})]),
        "snapshot": ("snapshot at m*alpha from the pair at 0, alpha", _sphere_snapshot, ["--ua", "--ualpha"],
                     [("--alpha", _FLOAT), ("--m", _INT)]),
        "solve": ("recover velocity from sphere snapshots at 0 and alpha", _sphere_solve, ["--f0", "--falpha"],
                  [(("--alpha", "--alpha-pi"),
                    {"help": ("alpha in radians", "alpha as P/Q of pi, handled exactly"), "type": _pi_time})]),
        "huygens": ("antipodal focusing residual on an odd sphere", _sphere_huygens, ["--f0", "--g"],
                    [("--tmax", {"default": 2.0 * math.pi}), ("--t-count", {"default": 20}),
                     ("--c-count", {"default": 20})]),
        "classify": ("solvability verdict for time beta*pi from the number class", _sphere_classify, [],
                     [("--number", _NUMBER), ("--n", _INT)]),
        "margin": ("surjectivity margin over degrees up to max-degree", _sphere_margin, [],
                   [(("--alpha", "--alpha-pi"), {}), ("--n", _INT), ("--max-degree", {"default": 10**4}),
                    ("--exponent", {"default": 3})]),
    }),
    "reproduce": ("run an acceptance experiment bundle", _reproduce, [], [("suite", {"choices": [*SUITES, "all"]})]),
}


def _time_pair(parser: argparse.ArgumentParser, spellings: tuple[str, str], help=(None, None), type=_fraction) -> None:
    """One of the two spellings of a time, required: the first reads a float, the second a rational P/Q by
    `type`, and both set the first one's destination."""
    radians, exact = spellings
    either = parser.add_mutually_exclusive_group(required=True)
    either.add_argument(radians, type=float, help=help[0])
    either.add_argument(exact, dest=radians[2:], metavar=exact[2:].upper().replace("-", "_"), type=type, help=help[1])


def _add_verb(parser: argparse.ArgumentParser, handler, files, flags) -> None:
    """Give `parser` a verb row's field-file flags, its flags, --seed and --out.  A word that starts
    with - and a digit, or with -. and a digit, is a value (-1e-07, -7/31), not an option: argparse's
    own matcher takes only -5 and -.5.  It is a private attribute, so a test runs each form."""
    parser._negative_number_matcher = re.compile(r"^-\.?\d")
    names = []
    for flag in files:
        spelling, kw = (flag, {}) if isinstance(flag, str) else flag
        names.append(parser.add_argument(spelling, required=True, **kw).dest)
    for spelling, kw in flags:
        if isinstance(spelling, tuple):
            _time_pair(parser, spelling, **kw)
        else:
            parser.add_argument(spelling, **({"type": type(kw["default"]), **kw} if "default" in kw else kw))
    parser.add_argument("--seed", type=int, default=0, help="recorded in every output header (default 0)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.set_defaults(handler=handler, files=names)


@functools.cache  # built once per process, on the first run
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wavesnap", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"wavesnap {__version__}")
    groups = top.add_subparsers(dest="group", required=True, metavar="{" + ",".join(VERBS) + "}")
    for group, (text, *rest) in VERBS.items():
        parser = groups.add_parser(group, help=text)
        if not isinstance(rest[0], dict):  # a group without verbs: its row follows its help
            _add_verb(parser, *rest)
            continue
        verbs = parser.add_subparsers(dest="verb", required=True)
        for verb, (verb_text, *row) in rest[0].items():
            _add_verb(verbs.add_parser(verb, help=verb_text), *row)
    return top


def run(argv: Sequence[str] | None = None) -> int:
    """Run one verb and return its exit code.  Its handler returns a dict, emitted as JSON,
    (names, columns, comments), emitted as CSV, or, for `reproduce`, the exit code."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(1_000_000)  # certified gaps have factorial-tower digit counts
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.handler(args, *_load(args))
        if isinstance(payload, int):
            return payload
        verb = f"{args.group} {args.verb}"
        if isinstance(payload, dict):
            _emit_json(args, verb, payload)
        else:
            _emit_csv(args, verb, *payload)
        return 0
    except _DOMAIN_ERRORS as exc:  # the emit stays inside: an unwritable --out is a domain error too
        print(f"wavesnap: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
