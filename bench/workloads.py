"""The three benchmark workloads: seeded inputs, CLI requests, output checks
and layer replays.

A workload is a fixed list of requests.  Each request is one `wavesnap`
command line run in process through `wavesnap.cli.run`, an output check that
knows the generated ground truth, and a replay that makes the same public
calls into the library one layer at a time, so a traced run can time each
layer from outside.  Inputs are computed here from closed-form formulas, not
by the program under test, so a wrong answer from the program cannot hide in
its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from wavesnap import cli, diophantine, experiments, fields, propagators, snapshots, sphere

from tracing import Tracer

GUARD_SIN = 5e-3  # keep radii this far from every resonance, as the experiments do
SQRT2 = math.sqrt(2.0)
FLAT_STEPS = (1.0, SQRT2, 1.0 / 3.0, 2.0 / 3.0, 2.0, 3.0)  # every step a bigfield solver divides by
KERNEL_RADIUS = 3.0 * math.pi  # sin(3 pi) ~ 4e-16: kernel of S_1 and S_{1/3}
SPHERE_N = 3
SPHERE_ALPHA = 0.7
EXPERIMENTS = ("recursion", "identities", "three-snapshot", "liouville", "rational",
               "oddtype", "jointbound", "sphere", "sdprobe")
FLOAT_TIME_SPECS = ("sqrt2", "golden", "doubled:sqrt2", "doubled:golden")
SMALL_OP_REPS = 1000


class CheckFailed(Exception):
    """A request's output is wrong."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Request:
    """One CLI invocation.  `check` gets the output file's text and raises
    CheckFailed; `replay` repeats the request's public library calls under
    spans of the given tracer."""

    name: str
    argv: list[str]
    out: str
    check: Callable[[str], None]
    replay: Callable[[Tracer], None]


@dataclass
class Workload:
    name: str
    requests: list[Request]
    inputs: dict
    paths: dict[str, str] = field(default_factory=dict)  # generated input files by role


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record_inputs(paths: dict[str, str], counts: dict[str, int], **extra) -> dict:
    files = {
        key: {"bytes": os.path.getsize(p), "entries": counts[key], "sha256": sha256_file(p)}
        for key, p in sorted(paths.items())
    }
    combined = hashlib.sha256("".join(f["sha256"] for f in files.values()).encode()).hexdigest()
    return {**extra, "files": files, "sha256": combined}


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _load_doc(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _amps(doc_field: dict, key: Callable[[dict], tuple]) -> dict[tuple, complex]:
    entries = doc_field["modes"] if "modes" in doc_field else doc_field["coeffs"]
    return {key(e): complex(e["amp"][0], e["amp"][1]) for e in entries}


def _flat_key(e: dict) -> tuple:
    return tuple(e["xi"])


def _sphere_key(e: dict) -> tuple:
    return (e["l"], e["m"])


def _compare(got: dict[tuple, complex], want: dict[tuple, complex], tol: float, what: str) -> None:
    """Every key of either side agrees within tol; a missing key reads as 0."""
    worst, worst_key = 0.0, None
    for k in want.keys() | got.keys():
        err = abs(got.get(k, 0j) - want.get(k, 0j))
        if err > worst:
            worst, worst_key = err, k
    expect(worst <= tol, f"{what}: error {worst:.3e} at {worst_key} exceeds {tol:.3e}")


# -- reproduce ----------------------------------------------------------------


def build_reproduce(seed: int, work: str, tiny: bool = False) -> Workload:
    """`reproduce all`: the nine acceptance experiments on many tiny fields.
    The tiny variant runs the cheapest experiment only, for set-up timing."""
    out = os.path.join(work, "reproduce.json")
    suite = "sdprobe" if tiny else "all"

    def check(text: str) -> None:
        doc = _load_doc(text)
        names = [r["name"] for r in doc["results"]]
        expect(names == ([suite] if tiny else list(EXPERIMENTS)), f"unexpected experiment list {names}")
        failed = [r["name"] for r in doc["results"] if not r["passed"]]
        expect(not failed, f"experiments failed: {failed}")

    def replay(tr: Tracer) -> None:
        for name in EXPERIMENTS:
            with tr.span("experiments." + name.replace("-", "_")):
                result = experiments.ALL[name](seed=seed)
            expect(result["passed"], f"replayed experiment {name} failed")

    req = Request("reproduce_all", ["reproduce", suite, "--seed", str(seed), "--out", out], out, check, replay)
    return Workload("reproduce", [req], {"seed": seed, "suite": suite})


# -- bigfield -----------------------------------------------------------------


def _guarded(lam: float, steps: tuple[float, ...]) -> bool:
    return all(abs(math.sin(s * lam)) >= GUARD_SIN for s in steps)


def _flat_modes(rng: random.Random, count: int, lam_max: float) -> dict[tuple, complex]:
    """`count` random dim-2 modes off every resonance window, plus the four
    axis modes at radius 3 pi that sit in the kernels of S_1 and S_{1/3}."""
    k = KERNEL_RADIUS
    out = {xi: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for xi in ((k, 0.0), (0.0, k), (-k, 0.0), (0.0, -k))}
    while len(out) < count:
        lam, theta = rng.uniform(0.1, lam_max), rng.uniform(0.0, 2.0 * math.pi)
        xi = (lam * math.cos(theta) + 0.0, lam * math.sin(theta) + 0.0)
        if _guarded(math.hypot(*xi), FLAT_STEPS):
            out[xi] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return out


def _flat_snapshot(u0: dict, g: dict, t: float) -> dict[tuple, complex]:
    """Closed-form wave at time t: cos(t lam) u0 + sin(t lam)/lam g, mode by mode."""
    out = {}
    for xi in sorted(u0.keys() | g.keys()):
        lam = math.hypot(*xi)
        out[xi] = math.cos(t * lam) * u0.get(xi, 0j) + (math.sin(t * lam) / lam) * g.get(xi, 0j)
    return out


def _sphere_coeffs(rng: random.Random, count: int, l_max: int) -> set[tuple[int, int]]:
    keys: set[tuple[int, int]] = set()
    while len(keys) < count:
        l = rng.randint(0, l_max)
        if abs(math.sin(SPHERE_ALPHA * (l + 1))) >= GUARD_SIN:
            keys.add((l, rng.randint(1, (l + 1) ** 2)))
    return keys


def _sphere_snapshot(s0: dict, sg: dict, t: float) -> dict[tuple, complex]:
    """a cos(w t) + b sin(w t)/w with w = l + 1 on S^3."""
    out = {}
    for l, m in sorted(s0.keys() | sg.keys()):
        w = l + 0.5 * (SPHERE_N - 1)
        out[(l, m)] = math.cos(w * t) * s0.get((l, m), 0j) + (math.sin(w * t) / w) * sg.get((l, m), 0j)
    return out


def _flat_doc(modes: dict) -> dict:
    return {"dim": 2, "modes": [{"xi": list(xi), "amp": [a.real, a.imag]} for xi, a in modes.items()]}


def _sphere_doc(coeffs: dict) -> dict:
    return {"n": SPHERE_N, "coeffs": [{"l": l, "m": m, "amp": [a.real, a.imag]} for (l, m), a in coeffs.items()]}


def build_bigfield(seed: int, work: str, tiny: bool = False, n_modes: int = 2000) -> Workload:
    """Cauchy data with `n_modes` modes each (disjoint supports but for the
    four planted kernel modes), so snapshots carry about 2 n_modes modes, and
    an S^3 pair with about 0.95 n_modes coefficients."""
    if tiny:
        n_modes = 8
    rng = random.Random(seed)
    u0 = _flat_modes(rng, n_modes, 40.0)
    g = _flat_modes(rng, n_modes, 40.0)
    t_evolve = round(rng.uniform(0.5, 2.5), 6)
    times = {"f1": 1.0, "fsqrt2": SQRT2, "f2_3": 2.0 / 3.0, "f2": 2.0, "f3": 3.0}
    snaps = {name: _flat_snapshot(u0, g, t) for name, t in times.items()}
    keys = sorted(_sphere_coeffs(rng, max(4, n_modes * 19 // 20), 40))
    s0 = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}
    sg = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}
    sa = _sphere_snapshot(s0, sg, SPHERE_ALPHA)

    docs = {"f0": _flat_doc(u0), "g": _flat_doc(g), **{k: _flat_doc(v) for k, v in snaps.items()},
            "s0": _sphere_doc(s0), "sg": _sphere_doc(sg), "salpha": _sphere_doc(sa)}
    paths = {k: os.path.join(work, f"{k}.json") for k in docs}
    for k, doc in docs.items():
        _write_json(paths[k], doc)
    counts = {k: len(doc.get("modes", doc.get("coeffs"))) for k, doc in docs.items()}
    inputs = _record_inputs(paths, counts, n_modes=n_modes, dim=2, sphere_n=SPHERE_N,
                            t_evolve=t_evolve, sphere_alpha=SPHERE_ALPHA)

    kernel = {xi for xi in u0 if abs(math.hypot(*xi) - KERNEL_RADIUS) < 1e-9}
    scratch = os.path.join(work, "replay-out.json")
    seed_args = ["--seed", str(seed)]
    reqs: list[Request] = []

    def out_path(name: str) -> str:
        return os.path.join(work, f"out-{name}.json")

    def load(tr: Tracer, *names: str) -> list[fields.SpectralField]:
        loaded = []
        for n in names:
            with tr.span("fields.load"):
                loaded.append(fields.load_field(paths[n]))
        return loaded

    def save(tr: Tracer, f: fields.SpectralField) -> None:
        with tr.span("fields.save"):
            fields.save_field(f, scratch)

    # wave evolve
    def check_evolve(text: str) -> None:
        doc = _load_doc(text)
        _compare(_amps(doc, _flat_key), _flat_snapshot(u0, g, t_evolve), 1e-12, "evolve")

    def replay_evolve(tr: Tracer) -> None:
        f0, fg = load(tr, "f0", "g")
        with tr.span("snapshots.evolve"):
            u = snapshots.evolve(snapshots.CauchyData(f0, fg), t_evolve)
        save(tr, u)

    o = out_path("evolve")
    reqs.append(Request("wave_evolve", ["wave", "evolve", "--field", paths["f0"], "--velocity", paths["g"],
                                        "--t", repr(t_evolve), "--out", o, *seed_args], o, check_evolve, replay_evolve))

    # the four flat solvers share one check: status, kernel list, and g off the kernel
    def flat_check(status: str, expected_kernel: set) -> Callable[[str], None]:
        def check(text: str) -> None:
            doc = _load_doc(text)
            expect(doc["status"] == status, f"status {doc['status']!r}, expected {status!r}")
            got_kernel = {tuple(xi) for xi in doc["kernel_modes"]}
            expect(got_kernel == expected_kernel, f"kernel modes {sorted(got_kernel)} != {sorted(expected_kernel)}")
            want = {xi: a for xi, a in g.items() if xi not in expected_kernel}
            _compare(_amps(doc["solution"], _flat_key), want, 1e-9 * (1.0 + doc["conditioning"]), "recovered g")
        return check

    def flat_replay(span: str, names: tuple[str, ...], solve: Callable) -> Callable[[Tracer], None]:
        def replay(tr: Tracer) -> None:
            loaded = load(tr, *names)
            with tr.span(span):
                rep = solve(*loaded)
            save(tr, rep.solution)
            tr.count("snapshots.modes_solved", len(rep.solution.modes) + len(rep.kernel_modes))
            tr.count("snapshots.kernel_modes", len(rep.kernel_modes))
        return replay

    nonunique, unique = snapshots.STATUS_NONUNIQUE, snapshots.STATUS_UNIQUE
    solvers = [
        ("wave_two_solve", ["wave", "two-solve", "--f0", paths["f0"], "--f1", paths["f1"]],
         nonunique, kernel, "snapshots.two_solve", ("f0", "f1"), snapshots.two_snapshot_solve),
        ("wave_three_solve", ["wave", "three-solve", "--f0", paths["f0"], "--f1", paths["f1"],
                              "--falpha", paths["fsqrt2"], "--alpha", repr(SQRT2)],
         unique, set(), "snapshots.three_solve", ("f0", "f1", "fsqrt2"),
         lambda a, b, c: snapshots.three_snapshot_solve(a, b, c, SQRT2)),
        ("wave_three_solve_frac", ["wave", "three-solve", "--f0", paths["f0"], "--f1", paths["f1"],
                                   "--falpha", paths["f2_3"], "--alpha-frac", "2/3"],
         nonunique, kernel, "snapshots.bezout_solve", ("f0", "f1", "f2_3"),
         lambda a, b, c: snapshots.three_snapshot_solve(a, b, c, Fraction(2, 3))),
        ("wave_rational_solve", ["wave", "rational-solve", "--f0", paths["f0"], "--fp", paths["f2"],
                                 "--fq", paths["f3"], "--p", "2", "--q", "3"],
         nonunique, kernel, "snapshots.rational_solve", ("f0", "f2", "f3"),
         lambda a, b, c: snapshots.rational_reconstruct(a, b, c, 2, 3)),
    ]
    for name, argv, status, kern, span, names, solve in solvers:
        o = out_path(name)
        reqs.append(Request(name, [*argv, "--out", o, *seed_args], o,
                            flat_check(status, kern), flat_replay(span, names, solve)))

    # sphere evolve and solve on S^3
    def sphere_load(tr: Tracer, *names: str) -> list[sphere.SphereField]:
        loaded = []
        for n in names:
            with tr.span("sphere.load"):
                loaded.append(sphere.load_sphere_field(paths[n]))
        return loaded

    def check_sphere_evolve(text: str) -> None:
        _compare(_amps(_load_doc(text), _sphere_key), sa, 1e-12, "sphere evolve")

    def replay_sphere_evolve(tr: Tracer) -> None:
        a, b = sphere_load(tr, "s0", "sg")
        with tr.span("sphere.evolve"):
            u = sphere.sphere_evolve(a, b, SPHERE_ALPHA)
        with tr.span("sphere.save"):
            sphere.save_sphere_field(u, scratch)

    def check_sphere_solve(text: str) -> None:
        doc = _load_doc(text)
        expect(doc["status"] == unique, f"sphere status {doc['status']!r}, expected {unique!r}")
        expect(doc["kernel_coeffs"] == [], "unexpected sphere kernel")
        _compare(_amps(doc["solution"], _sphere_key), sg, 1e-9 * (1.0 + doc["conditioning"]), "sphere g")

    def replay_sphere_solve(tr: Tracer) -> None:
        a, b = sphere_load(tr, "s0", "salpha")
        with tr.span("sphere.solve"):
            rep = sphere.sphere_two_snapshot_solve(a, b, SPHERE_ALPHA)
        with tr.span("sphere.save"):
            sphere.save_sphere_field(rep.solution, scratch)
        tr.count("sphere.coeffs_solved", len(rep.solution.coeffs) + len(rep.kernel_coeffs))

    o = out_path("sphere_evolve")
    reqs.append(Request("sphere_evolve", ["sphere", "evolve", "--f0", paths["s0"], "--g", paths["sg"],
                                          "--t", repr(SPHERE_ALPHA), "--out", o, *seed_args],
                        o, check_sphere_evolve, replay_sphere_evolve))
    o = out_path("sphere_solve")
    reqs.append(Request("sphere_solve", ["sphere", "solve", "--f0", paths["s0"], "--falpha", paths["salpha"],
                                         "--alpha", repr(SPHERE_ALPHA), "--out", o, *seed_args],
                        o, check_sphere_solve, replay_sphere_solve))
    return Workload("bigfield", reqs, inputs, paths)


def layer_probes(tr: Tracer, big: Workload, seed: int) -> None:
    """Single-layer calls on the bigfield inputs that no request makes by
    itself: canonicalization, one multiplier, the two kinds of combine, the
    amplitude lookup, one small-field op, and symbol evaluation."""
    rng = random.Random(seed)
    u0, g, f1, fsq = (fields.load_field(big.paths[k]) for k in ("f0", "g", "f1", "fsqrt2"))
    entries = [(m.xi, m.amp) for m in f1.modes]
    rng.shuffle(entries)
    with tr.span("fields.field"):
        fields.field(2, entries)
    with tr.span("fields.apply"):
        fields.apply_multiplier(f1, propagators.symbol_Sprime(1.0))
    with tr.span("fields.combine_shared"):
        fields.linear_combine([1.0, -1.0], [f1, fsq])
    with tr.span("fields.combine_disjoint"):
        fields.linear_combine([1.0, 1.0], [u0, g])
    with tr.span("fields.lookup"):
        for m in f1.modes:
            f1.amplitude_at(m.xi)
    small = fields.field(2, list(_flat_modes(rng, 4 + seed % 13, 4.0).items()))
    cos1 = propagators.symbol_Sprime(1.0)
    with tr.span("fields.small_op"):
        for _ in range(SMALL_OP_REPS):
            fields.linear_combine([1.0, 1.0], [small, fields.apply_multiplier(small, cos1)])
    radii = [m.radius for m in f1.modes]
    symbols = (propagators.symbol_S(1.0), propagators.symbol_Sprime(1.0), propagators.symbol_Psi(3, 1.0))
    with tr.span("propagators.symbol_eval"):
        for sym in symbols:
            for lam in radii:
                sym(lam)
    with tr.span("propagators.identities"):
        propagators.fundamental_identities_check(SQRT2, radii[:1000])


# -- exactscan ----------------------------------------------------------------


def _odd_rational(rng: random.Random) -> Fraction:
    while True:
        q = rng.randint(2, 50)
        p = rng.randrange(1, 2 * q, 2)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    comments = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    body = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    return comments, body[1:]


def build_exactscan(seed: int, work: str, tiny: bool = False) -> Workload:
    """Certified integer and exact-rational scans; no field is touched.
    The seed picks the exact time P/Q (odd P, Q <= 50) and the float time."""
    rng = random.Random(seed)
    beta_pq = _odd_rational(rng)
    spec = rng.choice(FLOAT_TIME_SPECS)
    alpha = float(cli.number_class(spec).value) * math.pi
    qmax, degree, count, kmax, xmax = (65, 10, 10, 1, "10") if tiny else (100_000, 1_000_000, 100_000, 6, "1e4")
    seed_args = ["--seed", str(seed)]
    reqs: list[Request] = []

    def add(name: str, argv: list[str], check: Callable[[str], None], replay: Callable[[Tracer], None]) -> None:
        o = os.path.join(work, f"out-{name}.{'csv' if argv[1] in ('smallden', 'liouville-demo') else 'json'}")
        reqs.append(Request(name, [*argv, "--out", o, *seed_args], o, check, replay))

    def check_oddtype(text: str) -> None:
        doc = _load_doc(text)
        expect(doc["passes"] is True and doc["violations"] == [], f"oddtype: passes={doc['passes']}")
        expect(doc["count"] == (qmax - 65) // 2 + 1, f"oddtype scanned {doc['count']} odd q")

    def replay_oddtype(tr: Tracer) -> None:
        with tr.span("diophantine.oddtype"):
            rep = diophantine.odd_type_verifier(qmax)
        tr.count("diophantine.odd_q_scanned", rep.count)

    add("dio_oddtype", ["dio", "oddtype", "--qmax", str(qmax)], check_oddtype, replay_oddtype)

    def margin_check(number: diophantine.NumberClass, n: int) -> Callable[[str], None]:
        solvable = sphere.classify_alpha(number, n).verdict == sphere.VERDICT_SOLVABLE

        def check(text: str) -> None:
            doc = _load_doc(text)
            expect(doc["passes"] is solvable, f"margin passes={doc['passes']} but verdict solvable={solvable}")
            expect((doc["C"] > 0) is solvable, f"margin C={doc['C']} disagrees with the verdict")
            expect(doc["max_degree"] == degree and doc["n"] == n, "margin echoed the wrong arguments")
        return check

    def margin_replay(span: str, time: float | Fraction, n: int) -> Callable[[Tracer], None]:
        def replay(tr: Tracer) -> None:
            with tr.span(span):
                sphere.surjectivity_margin(time, n, degree, 3)
        return replay

    add("sphere_margin_exact",
        ["sphere", "margin", "--alpha-pi", f"{beta_pq.numerator}/{beta_pq.denominator}", "--n", "2",
         "--max-degree", str(degree)],
        margin_check(diophantine.rational_number(beta_pq), 2), margin_replay("sphere.margin_exact", beta_pq, 2))
    add("sphere_margin_float", ["sphere", "margin", "--alpha", repr(alpha), "--n", "3", "--max-degree", str(degree)],
        margin_check(cli.number_class(spec), 3), margin_replay("sphere.margin_float", alpha, 3))

    phi = (1.0 + math.sqrt(5.0)) / 2.0

    def check_smallden(text: str) -> None:
        comments, rows = _parse_csv(text)
        expect("exact zeros at l: none" in comments, "smallden reports exact zeros for golden")
        expect([int(r[0]) for r in rows] == list(range(1, count + 1)), "smallden rows are not l = 1..count")
        worst = max(abs(float(v) - abs(math.sin(math.pi * ((l * phi) % 1.0)))) for l, v in
                    ((int(r[0]), r[1]) for r in rows))
        expect(worst <= 1e-9, f"smallden value error {worst:.3e}")

    def replay_smallden(tr: Tracer) -> None:
        with tr.span("diophantine.smallden"):
            table = diophantine.small_denominator_sequence(diophantine.golden_class(), 0, count)
        tr.count("diophantine.smallden_rows", len(table.rows))

    add("dio_smallden", ["dio", "smallden", "--number", "golden", "--count", str(count)],
        check_smallden, replay_smallden)

    def check_liouville(text: str) -> None:
        comments, rows = _parse_csv(text)
        expect(any(c.endswith("certified: True") for c in comments), "liouville demo not certified")
        expect([int(r[0]) for r in rows] == list(range(1, kmax + 1)), "liouville demo rows are not k = 1..kmax")

    def replay_liouville(tr: Tracer) -> None:
        with tr.span("snapshots.liouville_demo"):
            snapshots.liouville_obstruction_demo(kmax)

    add("wave_liouville_demo", ["wave", "liouville-demo", "--kmax", str(kmax)], check_liouville, replay_liouville)

    def check_jointbound(text: str) -> None:
        doc = _load_doc(text)
        expect(doc["passes"] is True and doc["C"] > 0, f"jointbound C={doc['C']}")

    def replay_jointbound(tr: Tracer) -> None:
        with tr.span("diophantine.jointbound"):
            diophantine.joint_sine_lower_bound_check(diophantine.sqrt2_class(), 3, float(xmax))

    add("dio_jointbound", ["dio", "jointbound", "--xmax", xmax], check_jointbound, replay_jointbound)
    inputs = {"alpha_pi": f"{beta_pq.numerator}/{beta_pq.denominator}", "float_time": spec,
              "alpha": repr(alpha), "qmax": qmax, "max_degree": degree, "smallden_count": count,
              "kmax": kmax, "xmax": xmax}
    return Workload("exactscan", reqs, inputs)


BUILDERS = {"reproduce": build_reproduce, "bigfield": build_bigfield, "exactscan": build_exactscan}
