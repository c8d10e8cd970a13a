"""Compare the program's outputs with a base commit's, one table row at a time.

Usage, from a checkout of the change:

    python3 scripts/compare_base.py BASE_REV

BASE_REV is checked out into a temporary git worktree, removed on exit, and
the field files the rows read are written with the change's library.  A row
is (kind, command).  A word {name} of the command is the file name.json, and
a row's id is its kind and command as written.  Every row of TABLE runs in
both trees, as `PYTHONPATH=<tree>/src python -m wavesnap COMMAND` from the
tree's root, and so does a `texts` row for each command of the base commit's
parser, bare and with --help, so a change cannot shrink that list.  A row is
the same in both trees when, by its kind:

    out     both runs exit 0 and their --out files are equal byte for byte
    stdout  both runs exit 0 with equal stdout
    err     stderr and exit code are equal, and the base run exits 1
    code    the exit codes are equal
    texts   stdout, stderr and exit code are equal at COLUMNS=80
    bench   scripts/bench_pairs.py exits 0 on one 1-second pair of the
            command's workload and seed: every run is correct and the
            per-request output digests are equal

Every row runs.  The id of each row that differs is printed, then a count per
kind, and the exit code is 1 if any row differs.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

KINDS = ("out", "stdout", "err", "code", "texts", "bench")
DEGREES = (10000, 1000000)
FLOAT_ALPHAS = ("4.442882938158366", "5.0832036923152595", "0.3", "1.2922915367220684", "-4.442882938158366",
                "0.7093918895209853")
SPHERE_ALPHAS = ("0.7", "-0.45", "-2.5", "-1e-07", "-100")
THREE = "wave three-solve --f0 {f0} --f1 {f1} --falpha"

TABLE = [
    *(("out", f"reproduce all --seed {seed}") for seed in (1, 2, 3)),
    # the recursion experiment evaluates its trials in batches of ten, and it, three-snapshot, rational and sphere
    # draw random Cauchy data: five more seeds of each alone, so the draw order stays the same; identities draws
    # its grid and runs the grid symbols' series window
    *(("out", f"reproduce {suite} --seed {seed}")
      for suite in ("recursion", "three-snapshot", "rational", "sphere", "identities") for seed in range(4, 9)),
    # the Jordan-floor screens and the convergent chain, on inputs beyond the benchmark's;
    # 1.2922915367220684 is pi 12345/30011, whose first kernel row is degree 30010 (n = 3)
    *(("out", f"wave liouville-demo --kmax {kmax}") for kmax in range(1, 7)),
    *(("out", f"dio jointbound --number {number} --exponent {exponent} --xmax {xmax}")
      for number in ("sqrt2", "golden") for exponent in (0, 2, 3, 5) for xmax in ("10", "1e3", "1e4")),
    # the joint bound's witness range near the cap (7e5 of 707,107 at sqrt2, 6e5 of 618,034 at golden), and
    # 11435.4; a class with no partial-quotient bound, its upper side witnessed at a convergent
    *(("out", f"dio jointbound --number {number} --exponent {exponent} --xmax {xmax}")
      for exponent in (0, 3) for number, xmax in (("sqrt2", "7e5"), ("golden", "6e5"), ("sqrt2", "11435.4"))),
    *(("out", f"dio jointbound --number doubled:golden --exponent {exponent} --xmax 1e4") for exponent in (1, 2)),
    *(("out", f"sphere margin --alpha {alpha} --n {n} --max-degree {degree}")
      for alpha in FLOAT_ALPHAS[:4] for n in (2, 3, 5) for degree in DEGREES),
    # the float margin's continued-fraction block floor at exponents 0-2 as well, and at a negative time and at
    # 0.7093918895209853 = pi 7/31 (1 + 1e-12), whose shared prefix stops at q = 62, so no block is skipped;
    # --alpha=X, as a base commit whose parser reads -4.44... as an option still parses that form
    *(("out", f"sphere margin --alpha={alpha} --n {n} --max-degree {degree} --exponent {exponent}")
      for alpha in FLOAT_ALPHAS for n in (2, 3, 5) for degree in DEGREES for exponent in (0, 1, 2)),
    *(("out", f"sphere margin --alpha={alpha} --n {n} --max-degree {degree}")
      for alpha in FLOAT_ALPHAS[4:] for n in (2, 3, 5) for degree in DEGREES),
    # exact times whose period 2Q in l is below, at (1/4096) and just above (1/4097) the margin screen's
    # 8,192-degree block, or covers every degree (1/30011 to 10^4, 3/1000003 to 10^6); --alpha-pi=P/Q, as a base
    # commit whose parser reads -7/31 as an option still parses that form.  The screen scores the first and the
    # last period: at exponent 0 the minimum sits in the last, and at exponent 1 the weight 1+l barely outgrows
    # w (n = 2) or is w (n = 3)
    *(("out", f"sphere margin --alpha-pi={alpha} --n {n} --max-degree {degree}{exponent}")
      for alpha in ("19/10", "9/17", "-7/31", "1/4096", "1/4097", "1/30011", "3/1000003") for n in (2, 3)
      for degree in DEGREES for exponent in ("", " --exponent 0", " --exponent 1", " --exponent 2")),
    # dio smallden writes its values through the integer-arithmetic repr: rational:2/3 and the Liouville
    # truncation have exact zeros (l = 3, 6, ... and l = 10^6); and to stdout, without --out
    *(("out", f"dio smallden --number {number} --shift {shift} --count {count}")
      for number in ("golden", "sqrt2", "rational:2/3", "liouville:10:3") for shift in ("0", "1/2")
      for count in (10, 1000, 1000000)),
    *(("stdout", f"dio smallden --number {number} --shift {shift} --count 1000")
      for number in ("golden", "rational:2/3") for shift in ("0", "1/2")),
    # the factorial series built by liouville_truncation, the doubled bound on the convergent chain's first
    # element, and the slowly-decreasing probe's rows; the base rejects doubled-bound --exponent 2 on every spec
    # but binary:7 (depth <= 4, or no factorial series)
    *(("out", f"dio {verb} --number {number}{depth}")
      for number in ("binary:4", "binary:7", "oddtype:3", "oddtype:4:1,0,2,1", "doubled:binary:4")
      for verb, depth in (("class", ""), ("probe-mu", " --depth 3"))),
    ("out", "dio doubled-bound --number binary:7 --exponent 2"),
    *(("out", f"dio sdprobe --symbol {symbol} --ximax {ximax}")
      for symbol in ("sine", "cosine", "zero") for ximax in ("20", "1e3")),
    # continued fractions, to the end and cut at three terms; the odd-type scan at the benchmark's qmax and
    # either side; the three symbol tables, Psi's grid reaching its Chebyshev branch
    ("out", "dio cfrac --value 415/93"),
    ("out", "dio cfrac --value 104348/33215 --max-terms 3"),
    *(("out", f"dio oddtype --qmax {qmax}") for qmax in (65, 10000, 100000)),
    ("out", "wave symbol --kind S"),
    ("out", "wave symbol --kind Sprime --t 0.5"),
    ("out", "wave symbol --kind Psi --m 3 --s 1 --max 6.283185307179586"),
    # wave compat sums the three S_t columns over the union of the keys: genuine, perturbed and disjoint-support
    # triples
    *(("out", f"wave compat --f0 {{f0}} --f1 {{f1}} --falpha {{{falpha}}} --alpha {alpha}")
      for alpha in ("0.3", "1.4142135623730951", "1e300")
      for falpha in (f"genuine-{alpha}", f"perturbed-{alpha}", "disjoint")),
    # the solvers on the same snapshots: three-solve at a float alpha and at the exact 2/3, whose Bezout gate
    # fails on the perturbed snapshot, and rational-solve on genuine snapshots at 2 and 3 (rational-solve on data
    # failing the gate is left to the Tier-1 tests)
    *(row for kind in ("genuine", "perturbed") for row in (
        ("out", f"{THREE} {{{kind}-1.4142135623730951}} --alpha 1.4142135623730951"),
        ("out", f"{THREE} {{{kind}-0.6666666666666666}} --alpha-frac 2/3"))),
    ("out", "wave rational-solve --f0 {f0} --fp {genuine-2} --fq {genuine-3} --p 2 --q 3"),
    # the other field verbs: the flat snapshot at a step of 0.85, the two-solve on a mode at radius pi (a kernel
    # mode of S_1), the sphere verbs on S^3 (alpha = pi/2 is an exact kernel at odd degrees) and empty fields
    *(("out", f"wave snapshot --ua {{genuine-0.3}} --ub {{genuine-1.15}} --a 0.3 --b 1.15 --m {m}")
      for m in (-3, 0, 5)),
    ("out", "wave two-solve --f0 {kernel-0} --f1 {kernel-1}"),
    ("out", "sphere evolve --f0 {s0} --g {sg} --t-pi 1/3"),
    # a negative alpha puts the pair in the other order, as --alpha=X, as a base commit whose parser reads
    # -1e-07 as an option still parses that form
    *(("out", f"sphere snapshot --ua {{s0}} --ualpha {{s-{alpha}}} --alpha={alpha} --m={m}")
      for alpha in SPHERE_ALPHAS for m in (-25, -3, 0, 1, 3, 25)),
    ("out", "sphere solve --f0 {s0} --falpha {s-pi2} --alpha-pi 1/2"),
    # the antipodal check's Gegenbauer tables: the fewest points and times, a long time range, an n = 5 pair
    # whose velocity sets the top degree, and an empty position against a zonal velocity
    *(("out", f"sphere huygens {files}") for files in (
        "--f0 {z0} --g {zg}", "--f0 {z0} --g {zg} --c-count 2 --t-count 2", "--f0 {z0} --g {zg} --tmax 100",
        "--f0 {z5-0} --g {z5-g}", "--f0 {sphere-empty} --g {z0}")),
    ("out", "sphere classify --number sqrt2 --n 2"),
    ("out", "wave evolve --field {flat-empty} --velocity {flat-empty} --t 1"),
    ("out", "sphere evolve --f0 {sphere-empty} --g {sphere-empty} --t 1"),
    # the field verbs that fail keep their stderr and exit code 1: a symbol named at a time or a step whose
    # products leave the float range, or an amplitude that overflows
    ("err", "wave evolve --field {f0} --velocity {f0} --t 1e308"),
    ("err", "wave evolve --field {big} --velocity {big} --t 0.5"),
    ("err", "wave snapshot --ua {f0} --ub {f1} --a 0 --b 1e308 --m -3"),
    ("err", "sphere snapshot --ua {s0} --ualpha {s-0.7} --alpha 1e308 --m 3"),
    ("err", "sphere evolve --f0 {s0} --g {sg} --t 1e308"),
    ("err", "wave compat --f0 {big} --f1 {big} --falpha {big} --alpha 1e300"),
    ("err", f"{THREE} {{genuine-1.4142135623730951}} --alpha 1e308"),
    ("err", "wave rational-solve --f0 {negbig} --fp {big} --fq {big} --p 2 --q 3"),
    # the Bezout solve names the symbol that failed: S'_p at p = 10^306 + 1 overflows at lambda = 1000
    ("err", f"wave rational-solve --f0 {{k1000}} --fp {{k1000}} --fq {{k1000}} --p {10**306 + 1} --q 3"),
    # exact-time margins whose weight leaves the float range at l = 34, and at l = 25,330, between the first and
    # the last period
    ("err", "sphere margin --alpha-pi=7/31 --n 2 --max-degree 1000000 --exponent 200"),
    ("err", "sphere margin --alpha-pi=19/10 --n 2 --max-degree 40000 --exponent 70"),
    # the joint bound refuses a rational class, and an exponent whose exact weights pass its bit cap
    ("err", "dio jointbound --number rational:3/2"),
    ("err", "dio jointbound --exponent 100000000 --xmax 10"),
    # a Liouville demo deeper than the series' depth cap (7) is refused, and one past 25 by the range check
    *(("err", f"wave liouville-demo --kmax {kmax}") for kmax in (7, 25, 26)),
    # a file of the other kind: the message names the two kinds, so only the exit codes are compared
    ("code", "wave two-solve --f0 {s0} --f1 {sg}"),
    ("code", "sphere solve --f0 {kernel-0} --falpha {kernel-1} --alpha 0.7"),
    *(("bench", run) for run in ("reproduce 1", "bigfield 1", "exactscan 1", "bigfield 2", "bigfield 3",
                                 "exactscan 2", "exactscan 3")),
]

# the base commit's commands: the top level, each group and each verb
WALK = """
import argparse
from wavesnap import cli
def walk(parser, words):
    print(' '.join(words))
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                walk(sub, words + [name])
walk(cli._build_parser(), [])
"""


def write_inputs(src: Path, work: Path) -> None:
    """Write the field files the rows name into `work`, with the library in `src`."""
    sys.path.insert(0, str(src))
    from wavesnap.fields import field, save_field
    from wavesnap.snapshots import CauchyData, evolve
    from wavesnap.sphere import sphere_field

    data = CauchyData(field(2, [((0.9, 0.2), 1.0), ((2.2, -1.0), 0.5j)]),
                      field(2, [((0.9, 0.2), 0.5), ((1.3, 0.4), -1.0)]))
    files = {"f0": data.position, "f1": evolve(data, 1.0),
             "disjoint": field(2, [((3.0, 0.5), 0.25), ((-0.7, 4.0), 1j)])}
    for alpha in ("0.3", "1.4142135623730951", "1e300", "0.6666666666666666", "2", "3", "1.15"):
        files[f"genuine-{alpha}"] = fa = evolve(data, float(alpha))
        files[f"perturbed-{alpha}"] = field(2, [*fa.modes, ((0.9, 0.2), 1e-3)])
    kernel = CauchyData(field(2, [((math.pi, 0.0), 0.5), ((1.1, 0.3), 1.0)]),
                        field(2, [((math.pi, 0.0), 0.25j), ((0.2, 0.9), -1.0)]))
    s = CauchyData(sphere_field(3, [(0, 1, 1.0), (1, 2, 0.5j), (2, 7, -0.25), (3, 1, 0.75)]),
                   sphere_field(3, [(1, 2, 1.0), (2, 1, -0.5j), (4, 9, 0.5)]))
    z = CauchyData(sphere_field(3, [(l, 1, 0.5**l) for l in range(6)]), sphere_field(3, [(1, 1, 1.0), (4, 1, -0.5j)]))
    z5 = CauchyData(sphere_field(5, [(l, 1, 0.7**l) for l in range(9)]),
                    sphere_field(5, [(0, 1, 0.5j), (3, 1, -1.0), (11, 1, 0.25)]))
    files |= {"kernel-0": kernel.position, "kernel-1": evolve(kernel, 1.0), "s0": s.position, "sg": s.velocity,
              **{f"s-{alpha}": evolve(s, float(alpha)) for alpha in SPHERE_ALPHAS},
              "s-pi2": evolve(s, Fraction(1, 2)), "z0": z.position, "zg": z.velocity,
              "flat-empty": field(2, []), "sphere-empty": sphere_field(3, []), "z5-0": z5.position,
              "z5-g": z5.velocity, "big": field(1, [((0.5,), 1.5e308), ((1.0,), 1.0)]),
              "negbig": field(1, [((0.5,), -1.5e308)]), "k1000": field(1, [((1000.0,), 1.0)])}
    for name, f in files.items():
        save_field(f, work / f"{name}.json")


def python(tree: Path, *args: str, **env: str) -> subprocess.CompletedProcess:
    """`python ARGS` from the root of `tree`, with its library."""
    return subprocess.run([sys.executable, *args], cwd=tree, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src"), **env})


def same(kind: str, argv: list[str], base: Path, change: Path, work: Path) -> bool:
    """Whether one row reads the same in the two trees; `work` holds its input and output files."""
    if kind == "bench":  # no PYTHONPATH: each tree's bench/run.py runs that tree's library
        workload, seed = argv
        return subprocess.run([sys.executable, "scripts/bench_pairs.py", "--parent", str(base), "--change", ".",
                               "--workload", workload, "--seed", seed, "--pairs", "1", "--seconds", "1",
                               "--out", str(work / "pairs.json")], cwd=change, capture_output=True).returncode == 0
    if kind == "out":
        outs = [work / "base.out", work / "change.out"]
        for tree, out in zip((base, change), outs):
            out.unlink(missing_ok=True)
            if python(tree, "-m", "wavesnap", *argv, "--out", str(out)).returncode:
                return False
        return outs[0].read_bytes() == outs[1].read_bytes()
    b, c = (python(tree, "-m", "wavesnap", *argv, **({"COLUMNS": "80"} if kind == "texts" else {}))
            for tree in (base, change))
    if kind == "stdout":
        return b.returncode == c.returncode == 0 and b.stdout == c.stdout
    if kind == "err":
        return b.returncode == 1 and (b.stderr, b.returncode) == (c.stderr, c.returncode)
    if kind == "code":
        return b.returncode == c.returncode
    return (b.stdout, b.stderr, b.returncode) == (c.stdout, c.stderr, c.returncode)


def compare(rows: list[tuple[str, str]], base: Path, change: Path, work: Path) -> list[str]:
    """Run every row in both trees; print and return the id of each that differs."""
    differ = []
    for kind, command in rows:
        argv = [str(work / f"{w[1:-1]}.json") if w.startswith("{") else w for w in command.split()]
        if not same(kind, argv, base, change, work):
            differ.append(f"{kind} {command}".rstrip())
            print("differs from the base commit:", differ[-1], flush=True)
    return differ


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit(f"usage: {sys.argv[0]} BASE_REV")
    change = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = work / "base"
        subprocess.run(["git", "worktree", "add", "--quiet", "--detach", str(base), argv[0]], cwd=change, check=True)
        try:
            write_inputs(change / "src", work)
            walked = python(base, "-c", WALK)
            walked.check_returncode()  # no commands would compare no texts
            rows = TABLE + [("texts", f"{command} {help}".strip())
                            for command in walked.stdout.decode().splitlines() for help in ("", "--help")]
            differ = compare(rows, base, change, work)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=change, check=True)
    for kind in KINDS:
        print(f"{kind}: {sum(k == kind for k, _ in rows)} rows, {sum(i.split()[0] == kind for i in differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
