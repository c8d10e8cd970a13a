"""Command-line front end.

One invocation runs one verb.  Inputs are JSON field files, outputs are JSON
or CSV written atomically (temp file, then rename).  Every output carries a
header naming the verb, the seed, and the tool version, and identical
invocations produce byte-identical files.

Exit codes: 0 for a completed run, including negative mathematical results
(an Obstructed solve or rejected data is a finding, not a failure); 1 for
domain errors (bad numbers, unreadable files, exhausted precision); 2 for
usage errors, which print the grammar to stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__, diophantine, experiments, propagators, snapshots, sphere
from .fields import (
    SymbolUndefined,
    field_to_json,
    load_field,
    symbol_constant,
    write_text_atomic,
)
from .propagators import symbol_Psi, symbol_S, symbol_Sprime
from .sphere import load_sphere_field, sphere_field_to_json

_DOMAIN_ERRORS = (ValueError, OSError, KeyError, ZeroDivisionError, diophantine.PrecisionExhausted, SymbolUndefined)


# -- parsing helpers --------------------------------------------------------


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 3/4, got {text!r}") from exc


def _coeff_list(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def number_class(spec: str) -> diophantine.NumberClass:
    """Build a NumberClass from a compact spec string.

    rational:P/Q (or a bare P/Q), sqrt2, golden, liouville:BASE:DEPTH[:c1,..],
    binary:DEPTH, oddtype:DEPTH[:c1,..], doubled:<spec>.
    """
    head, _, rest = spec.partition(":")
    if head == "doubled":
        return diophantine.doubled(number_class(rest))
    if head == "rational":
        return diophantine.rational_number(Fraction(rest))
    if head == "sqrt2":
        return diophantine.sqrt2_class()
    if head == "golden":
        return diophantine.golden_class()
    if head == "binary":
        return diophantine.binary_factorial_class(int(rest))
    if head == "oddtype":
        depth, _, coeffs = rest.partition(":")
        return diophantine.ternary_odd_type_class(int(depth), _coeff_list(coeffs) if coeffs else None)
    if head == "liouville":
        base, _, rest2 = rest.partition(":")
        depth, _, coeffs = rest2.partition(":")
        cs = _coeff_list(coeffs) if coeffs else (1,) * int(depth)
        return diophantine.liouville_truncation(int(base), cs, int(depth))
    try:
        return diophantine.rational_number(Fraction(spec))
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"unknown number spec {spec!r}: use P/Q, rational:P/Q, sqrt2, golden, "
            "liouville:BASE:DEPTH[:c1,..], binary:DEPTH, oddtype:DEPTH[:c1,..], or doubled:<spec>"
        ) from None


def _number_spec(text: str) -> diophantine.NumberClass:
    try:
        return number_class(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# -- serialization ----------------------------------------------------------


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


def _number_payload(x: diophantine.NumberClass) -> dict:
    return {
        "label": x.label,
        "kind": x.kind,
        "value": x.value,
        "err_bound": x.err_bound,
        "measure_bound": x.measure_bound,
        "base": x.base,
        "depth": x.depth,
        "half": x.half.label if x.half is not None else None,
    }


def _solve_payload(rep: snapshots.SolveReport, to_json=field_to_json, kernel_name: str = "kernel_modes") -> dict:
    return {
        "status": rep.status,
        "residual": rep.residual,
        "conditioning": rep.conditioning,
        kernel_name: [list(key) for key in rep.kernel_modes],
        "note": rep.note,
        "solution": to_json(rep.solution) if rep.solution is not None else None,
    }


def _emit_json(args: argparse.Namespace, verb: str, payload: dict) -> None:
    doc = {"tool": "wavesnap", "version": __version__, "verb": verb, "seed": args.seed}
    doc.update(payload)
    text = json.dumps(_jsonable(doc), indent=2) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(
    args: argparse.Namespace,
    verb: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    comments: Sequence[str] = (),
) -> None:
    buf = io.StringIO()
    buf.write(f"# wavesnap {__version__}\n")
    buf.write(f"# verb: {verb}\n")
    buf.write(f"# seed: {args.seed}\n")
    for line in comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    if args.out:
        write_text_atomic(args.out, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


# -- wave verbs --------------------------------------------------------------


def _wave_evolve(args) -> int:
    u = snapshots.evolve(snapshots.CauchyData(load_field(args.field), load_field(args.velocity)), args.t)
    _emit_json(args, "wave evolve", field_to_json(u))
    return 0


def _wave_snapshot(args) -> int:
    u = snapshots.general_integer_snapshot(load_field(args.ua), load_field(args.ub), args.a, args.b, args.m)
    _emit_json(args, "wave snapshot", field_to_json(u))
    return 0


def _wave_two_solve(args) -> int:
    rep = snapshots.two_snapshot_solve(load_field(args.f0), load_field(args.f1))
    _emit_json(args, "wave two-solve", _solve_payload(rep))
    return 0


def _wave_compat(args) -> int:
    r = snapshots.compatibility_residual_general(
        load_field(args.f0), load_field(args.f1), load_field(args.falpha), 0.0, 1.0, args.alpha
    )
    _emit_json(args, "wave compat", {"alpha": args.alpha, "residual": r})
    return 0


def _wave_three_solve(args) -> int:
    alpha = args.alpha_frac if args.alpha_frac is not None else args.alpha
    if alpha is None:
        raise ValueError("three-solve needs --alpha or --alpha-frac")
    rep = snapshots.three_snapshot_solve(
        load_field(args.f0), load_field(args.f1), load_field(args.falpha), alpha
    )
    payload = {"alpha": alpha, **_solve_payload(rep)}
    _emit_json(args, "wave three-solve", payload)
    return 0


def _wave_rational_solve(args) -> int:
    try:
        rep = snapshots.rational_reconstruct(
            load_field(args.f0), load_field(args.fp), load_field(args.fq), args.p, args.q
        )
        payload = {"p": args.p, "q": args.q, **_solve_payload(rep)}
    except snapshots.IncompatibleData as exc:
        payload = {
            "p": args.p,
            "q": args.q,
            "status": "IncompatibleData",
            "residual": exc.residual,
            "note": str(exc),
            "solution": None,
        }
    _emit_json(args, "wave rational-solve", payload)
    return 0


def _wave_liouville_demo(args) -> int:
    demo = snapshots.liouville_obstruction_demo(args.kmax)
    rows = [(r.k, r.q, r.sin_abs, r.amplitude) for r in demo.rows]
    comments = [
        f"alpha: base-10 factorial series, depth {args.kmax}",
        f"data_sup at step k: q_k^(1-k); certified: {demo.all_certified}",
    ]
    _emit_csv(args, "wave liouville-demo", ("k", "q_k", "sin_abs", "amplitude"), rows, comments)
    return 0


_SYMBOLS = {
    "S": lambda a: symbol_S(a.t),
    "Sprime": lambda a: symbol_Sprime(a.t),
    "Psi": lambda a: symbol_Psi(a.m, a.s),
}


def _wave_symbol(args) -> int:
    sym = _SYMBOLS[args.kind](args)
    if args.count < 2:
        raise ValueError("--count must be at least 2")
    step = (args.max - args.min) / (args.count - 1)
    rows = []
    for i in range(args.count):
        lam = args.min + i * step
        rows.append((repr(lam), repr(sym(lam))))
    _emit_csv(args, "wave symbol", ("lam", "value"), rows, [f"symbol: {sym.label}"])
    return 0


# -- dio verbs ---------------------------------------------------------------


def _dio_cfrac(args) -> int:
    cf = diophantine.continued_fraction(args.value, args.max_terms)
    _emit_json(
        args,
        "dio cfrac",
        {
            "value": args.value,
            "partial_quotients": list(cf.partial_quotients),
            "convergents": list(cf.convergents),
        },
    )
    return 0


def _dio_class(args) -> int:
    _emit_json(args, "dio class", _number_payload(args.number))
    return 0


def _dio_probe_mu(args) -> int:
    rows = diophantine.irrationality_exponent_probe(args.number, args.depth)
    _emit_json(
        args,
        "dio probe-mu",
        {
            "number": args.number.label,
            "rows": [{"index": r.index, "q": r.q, "mu": r.mu} for r in rows],
        },
    )
    return 0


def _dio_smallden(args) -> int:
    table = diophantine.small_denominator_sequence(args.number, args.shift, args.count)
    comments = [
        f"beta: {table.beta_label}, shift: {table.shift}",
        f"exact zeros at l: {list(table.zero_rows) if table.zero_rows else 'none'}",
        f"fitted lower-envelope exponent: {table.fitted_exponent}",
    ]
    rows = [(l, repr(v)) for l, v in table.rows]
    _emit_csv(args, "dio smallden", ("l", "value"), rows, comments)
    return 0


def _dio_oddtype(args) -> int:
    rep = diophantine.odd_type_verifier(args.qmax)
    _emit_json(
        args,
        "dio oddtype",
        {
            "qmax": rep.qmax,
            "depth": rep.depth,
            "tail": rep.tail,
            "count": rep.count,
            "min_ratio": rep.min_ratio,
            "worst_q": rep.worst_q,
            "violations": list(rep.violations),
            "passes": rep.passes,
        },
    )
    return 0


def _dio_jointbound(args) -> int:
    c, passes = diophantine.joint_sine_lower_bound_check(args.number, args.exponent, args.xmax)
    _emit_json(
        args,
        "dio jointbound",
        {"number": args.number.label, "exponent": args.exponent, "x_max": args.xmax, "C": c, "passes": passes},
    )
    return 0


_PROBE_SYMBOLS = {
    "sine": lambda: symbol_S(1.0),
    "cosine": lambda: symbol_Sprime(1.0),
    "zero": lambda: symbol_constant(0.0),
}


def _dio_sdprobe(args) -> int:
    rep = diophantine.slowly_decreasing_probe(
        _PROBE_SYMBOLS[args.symbol](), args.a_const, args.ximax, samples=args.samples
    )
    rows = [(repr(r.xi), repr(r.threshold), repr(r.eta), repr(r.value), r.ok) for r in rep.rows]
    comments = [f"symbol: {args.symbol}, window constant A: {args.a_const}", f"all windows pass: {rep.all_pass}"]
    _emit_csv(args, "dio sdprobe", ("xi", "threshold", "eta", "value", "ok"), rows, comments)
    return 0


def _dio_doubled_bound(args) -> int:
    w = diophantine.doubled_liouville_bound(args.number, args.exponent)
    _emit_json(
        args,
        "dio doubled-bound",
        {
            "number": args.number.label,
            "exponent": w.exponent,
            "p": w.p,
            "q": w.q,
            "gap_lo": w.gap_lo,
            "gap_hi": w.gap_hi,
            "bound": w.bound,
            "ok": w.ok,
        },
    )
    return 0


# -- sphere verbs ------------------------------------------------------------


def _sphere_time(args) -> float:
    if getattr(args, "t_pi", None) is not None:
        return math.pi * float(args.t_pi)
    if args.t is None:
        raise ValueError("need --t or --t-pi")
    return args.t


def _sphere_evolve(args) -> int:
    data = snapshots.CauchyData(load_sphere_field(args.f0), load_sphere_field(args.g))
    _emit_json(args, "sphere evolve", sphere_field_to_json(snapshots.evolve(data, _sphere_time(args))))
    return 0


def _sphere_snapshot(args) -> int:
    u = sphere.sphere_snapshot(load_sphere_field(args.ua), load_sphere_field(args.ualpha), args.alpha, args.m)
    _emit_json(args, "sphere snapshot", sphere_field_to_json(u))
    return 0


def _sphere_alpha(args) -> float | Fraction:
    if args.alpha_pi is not None:
        return args.alpha_pi
    if args.alpha is None:
        raise ValueError("need --alpha (radians) or --alpha-pi P/Q (multiple of pi)")
    return args.alpha


def _sphere_solve(args) -> int:
    alpha = _sphere_alpha(args)
    rep = sphere.sphere_two_snapshot_solve(
        load_sphere_field(args.f0), load_sphere_field(args.falpha), alpha, max_degree=args.max_degree
    )
    _emit_json(args, "sphere solve", {"alpha": alpha, **_solve_payload(rep, sphere_field_to_json, "kernel_coeffs")})
    return 0


def _sphere_huygens(args) -> int:
    if args.t_count < 2:
        raise ValueError("--t-count must be at least 2")
    times = [args.tmax * j / (args.t_count - 1) for j in range(args.t_count)]
    r = sphere.huygens_antipodal_check(
        load_sphere_field(args.f0), load_sphere_field(args.g), times, c_count=args.c_count
    )
    _emit_json(args, "sphere huygens", {"t_count": args.t_count, "c_count": args.c_count, "max_residual": r})
    return 0


def _sphere_classify(args) -> int:
    cls = sphere.classify_alpha(args.number, args.n)
    _emit_json(
        args,
        "sphere classify",
        {"n": args.n, "number": args.number.label, "verdict": cls.verdict, "reason": cls.reason},
    )
    return 0


def _sphere_margin(args) -> int:
    alpha = _sphere_alpha(args)
    c, passes = sphere.surjectivity_margin(alpha, args.n, args.max_degree, args.exponent)
    _emit_json(
        args,
        "sphere margin",
        {
            "alpha": alpha,
            "n": args.n,
            "max_degree": args.max_degree,
            "exponent": args.exponent,
            "C": c,
            "passes": passes,
        },
    )
    return 0


# -- reproduce ---------------------------------------------------------------


def _reproduce(args) -> int:
    results = experiments.run([args.suite], seed=args.seed)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}: {r['details']}")
    if args.out:
        _emit_json(args, "reproduce", {"suite": args.suite, "results": results})
    return 0 if all(r["passed"] for r in results) else 1


# -- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="recorded in every output header (default 0)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wavesnap", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"wavesnap {__version__}")
    groups = top.add_subparsers(dest="group", required=True, metavar="{wave,dio,sphere,reproduce}")

    wave = groups.add_parser("wave", help="Euclidean evolution, snapshots, and solvers").add_subparsers(
        dest="verb", required=True
    )

    p = wave.add_parser("evolve", help="evolve Cauchy data to time t")
    p.add_argument("--field", required=True, help="position snapshot JSON")
    p.add_argument("--velocity", required=True, help="velocity field JSON")
    p.add_argument("--t", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_wave_evolve)

    p = wave.add_parser("snapshot", help="snapshot at time a+m(b-a) from the pair at a, b")
    p.add_argument("--ua", required=True)
    p.add_argument("--ub", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(handler=_wave_snapshot)

    p = wave.add_parser("two-solve", help="recover velocity from snapshots at 0 and 1")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1", required=True)
    _add_common(p)
    p.set_defaults(handler=_wave_two_solve)

    p = wave.add_parser("compat", help="three-snapshot compatibility residual")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--falpha", required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_common(p)
    p.set_defaults(handler=_wave_compat)

    p = wave.add_parser("three-solve", help="recover velocity from snapshots at 0, 1, alpha")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1", required=True)
    p.add_argument("--falpha", required=True)
    p.add_argument("--alpha", type=float, default=None, help="alpha as a double")
    p.add_argument("--alpha-frac", type=_fraction, default=None, help="alpha as an exact rational P/Q")
    _add_common(p)
    p.set_defaults(handler=_wave_three_solve)

    p = wave.add_parser("rational-solve", help="recover velocity from snapshots at 0, p, q (coprime)")
    p.add_argument("--f0", required=True)
    p.add_argument("--fp", required=True)
    p.add_argument("--fq", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_wave_rational_solve)

    p = wave.add_parser("liouville-demo", help="certified small-denominator amplification table")
    p.add_argument("--kmax", type=int, default=6)
    _add_common(p)
    p.set_defaults(handler=_wave_liouville_demo)

    p = wave.add_parser("symbol", help="tabulate a multiplier symbol on a grid")
    p.add_argument("--kind", choices=sorted(_SYMBOLS), required=True)
    p.add_argument("--t", type=float, default=1.0, help="time for S / Sprime")
    p.add_argument("--m", type=int, default=2, help="index for Psi")
    p.add_argument("--s", type=float, default=1.0, help="step for Psi")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=10.0)
    p.add_argument("--count", type=int, default=101)
    _add_common(p)
    p.set_defaults(handler=_wave_symbol)

    dio = groups.add_parser("dio", help="Diophantine toolkit").add_subparsers(dest="verb", required=True)

    p = dio.add_parser("cfrac", help="continued fraction of an exact rational")
    p.add_argument("--value", type=_fraction, required=True)
    p.add_argument("--max-terms", type=int, default=40)
    _add_common(p)
    p.set_defaults(handler=_dio_cfrac)

    p = dio.add_parser("class", help="describe a number class spec")
    p.add_argument("--number", type=_number_spec, required=True)
    _add_common(p)
    p.set_defaults(handler=_dio_class)

    p = dio.add_parser("probe-mu", help="irrationality exponent along convergents")
    p.add_argument("--number", type=_number_spec, required=True)
    p.add_argument("--depth", type=int, default=6)
    _add_common(p)
    p.set_defaults(handler=_dio_probe_mu)

    p = dio.add_parser("smallden", help="certified |sin(pi(l+shift)beta)| table")
    p.add_argument("--number", type=_number_spec, required=True)
    p.add_argument("--shift", type=_fraction, default=Fraction(0))
    p.add_argument("--count", type=int, default=1000)
    _add_common(p)
    p.set_defaults(handler=_dio_smallden)

    p = dio.add_parser("oddtype", help="odd-denominator margin scan for the binary factorial series")
    p.add_argument("--qmax", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_dio_oddtype)

    p = dio.add_parser("jointbound", help="joint sine lower bound sweep")
    p.add_argument("--number", type=_number_spec, default=None, help="default sqrt2")
    p.add_argument("--exponent", type=int, default=3)
    p.add_argument("--xmax", type=float, default=1e4)
    _add_common(p)
    p.set_defaults(handler=_dio_jointbound)

    p = dio.add_parser("sdprobe", help="slowly-decreasing window probe of a symbol")
    p.add_argument("--symbol", choices=sorted(_PROBE_SYMBOLS), default="sine")
    p.add_argument("--a-const", type=float, default=4.0)
    p.add_argument("--ximax", type=float, default=1e3)
    p.add_argument("--samples", type=int, default=512)
    _add_common(p)
    p.set_defaults(handler=_dio_sdprobe)

    p = dio.add_parser("doubled-bound", help="approximation bound transported to the doubled number")
    p.add_argument("--number", type=_number_spec, required=True)
    p.add_argument("--exponent", type=int, default=3)
    _add_common(p)
    p.set_defaults(handler=_dio_doubled_bound)

    sph = groups.add_parser("sphere", help="waves on the round sphere").add_subparsers(dest="verb", required=True)

    p = sph.add_parser("evolve", help="evolve sphere Cauchy data to time t")
    p.add_argument("--f0", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-pi", type=_fraction, default=None, help="time as P/Q of pi")
    _add_common(p)
    p.set_defaults(handler=_sphere_evolve)

    p = sph.add_parser("snapshot", help="snapshot at m*alpha from the pair at 0, alpha")
    p.add_argument("--ua", required=True)
    p.add_argument("--ualpha", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_sphere_snapshot)

    p = sph.add_parser("solve", help="recover velocity from sphere snapshots at 0 and alpha")
    p.add_argument("--f0", required=True)
    p.add_argument("--falpha", required=True)
    p.add_argument("--alpha", type=float, default=None, help="alpha in radians")
    p.add_argument("--alpha-pi", type=_fraction, default=None, help="alpha as P/Q of pi, handled exactly")
    p.add_argument("--max-degree", type=int, default=256)
    _add_common(p)
    p.set_defaults(handler=_sphere_solve)

    p = sph.add_parser("huygens", help="antipodal focusing residual on an odd sphere")
    p.add_argument("--f0", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--tmax", type=float, default=2.0 * math.pi)
    p.add_argument("--t-count", type=int, default=20)
    p.add_argument("--c-count", type=int, default=20)
    _add_common(p)
    p.set_defaults(handler=_sphere_huygens)

    p = sph.add_parser("classify", help="solvability verdict for time beta*pi from the number class")
    p.add_argument("--number", type=_number_spec, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_sphere_classify)

    p = sph.add_parser("margin", help="surjectivity margin over degrees up to max-degree")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-pi", type=_fraction, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=10**4)
    p.add_argument("--exponent", type=int, default=3)
    _add_common(p)
    p.set_defaults(handler=_sphere_margin)

    p = groups.add_parser("reproduce", help="run an acceptance experiment bundle")
    p.add_argument("suite", choices=[*experiments.ALL, "all"])
    _add_common(p)
    p.set_defaults(handler=_reproduce)

    return top


def run(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(1_000_000)  # certified gaps have factorial-tower digit counts
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is _dio_jointbound and args.number is None:
        args.number = diophantine.sqrt2_class()
    try:
        return args.handler(args)
    except _DOMAIN_ERRORS as exc:
        print(f"wavesnap: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
