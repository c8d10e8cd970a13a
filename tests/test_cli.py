import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wavesnap import cli, diophantine as dio, experiments
from wavesnap.fields import field, load_field, save_field
from wavesnap.snapshots import CauchyData, evolve, general_integer_snapshot
from wavesnap.sphere import load_sphere_field, save_sphere_field, sphere_field

import references as ref


@pytest.fixture()
def wave_files(tmp_path):
    f0 = field(1, [((0.9,), 1.0), ((2.2,), 1j)])
    g = field(1, [((0.9,), 0.5), ((2.2,), -1.0)])
    pf, pg = tmp_path / "f0.json", tmp_path / "g.json"
    save_field(f0, str(pf))
    save_field(g, str(pg))
    return tmp_path, str(pf), str(pg)


def test_number_class_parser():
    assert cli.number_class("2/3").value == Fraction(2, 3)
    assert cli.number_class("rational:7/4").kind == "rational"
    assert cli.number_class("sqrt2").measure_bound == 2.0
    assert cli.number_class("golden").kind == "measure-bounded"
    assert cli.number_class("liouville:10:3").value == Fraction(110001, 10**6)
    assert cli.number_class("liouville:10:3:1,2,3").value == Fraction(1, 10) + Fraction(2, 100) + Fraction(3, 10**6)
    assert cli.number_class("binary:4").kind == "liouville"
    assert cli.number_class("oddtype:3").kind == "odd-type-liouville"
    d = cli.number_class("doubled:oddtype:3")
    assert d.kind == "liouville" and d.half is not None
    with pytest.raises(ValueError):
        cli.number_class("seven")


@pytest.mark.parametrize("depth", range(1, 8))
def test_binary_and_oddtype_specs_are_factorial_series(depth):
    # binary:D is liouville:2:D, and oddtype:D[:c1,..] is liouville:3:D[:c1,..]
    assert cli.number_class(f"binary:{depth}") == cli.number_class(f"liouville:2:{depth}")
    assert cli.number_class(f"oddtype:{depth}") == cli.number_class(f"liouville:3:{depth}")
    for digits in ("2,0,1,0,2,0,1", "1,2,0,0,0,0,0"):
        assert cli.number_class(f"oddtype:{depth}:{digits}") == cli.number_class(f"liouville:3:{depth}:{digits}")


def test_binary_spec_takes_only_a_depth(capsys):
    assert cli.run(["dio", "class", "--number", "binary:4:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "invalid literal for int() with base 10: '4:1'" in err


def test_depth_beyond_the_cap_is_refused_before_any_digit_is_formed(capsys):
    # the all-ones digits of a default spec are formed after the depth check:
    # a depth of 1e7 allocated some 80 MB of digits before it was refused
    cli.run(["dio", "class", "--number", "binary:1"])  # the parser is built once per process
    capsys.readouterr()
    for spec in ("binary:10000000", "oddtype:10000000", "liouville:10:10000000"):
        tracemalloc.start()
        try:
            rc = cli.run(["dio", "class", "--number", spec])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "factorial depth 10000000 exceeds cap 7" in err, spec
        assert peak < 2**20, (spec, peak)


def test_evolve_then_solve_roundtrip(wave_files):
    tmp, pf, pg = wave_files
    out1 = tmp / "f1.json"
    assert cli.run(["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "1.0", "--out", str(out1)]) == 0
    rep = tmp / "rep.json"
    assert cli.run(["wave", "two-solve", "--f0", pf, "--f1", str(out1), "--out", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["tool"] == "wavesnap"
    assert doc["verb"] == "wave two-solve"
    assert doc["seed"] == 0
    assert doc["status"] == "Unique"
    got = {tuple(m["xi"]): complex(*m["amp"]) for m in doc["solution"]["modes"]}
    assert abs(got[(0.9,)] - 0.5) < 1e-10
    assert abs(got[(2.2,)] + 1.0) < 1e-10


def test_outputs_byte_identical(wave_files):
    tmp, pf, pg = wave_files
    a, b = tmp / "a.json", tmp / "b.json"
    argv = ["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "0.37"]
    assert cli.run(argv + ["--out", str(a)]) == 0
    assert cli.run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_recorded(wave_files):
    tmp, pf, pg = wave_files
    out = tmp / "u.json"
    assert cli.run(["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "1", "--seed", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 7


def test_three_solve_with_fraction_alpha(wave_files, capsys):
    tmp, pf, pg = wave_files
    fa = tmp / "fa.json"
    assert cli.run(["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "0.4", "--out", str(fa)]) == 0
    f1 = tmp / "f1.json"
    assert cli.run(["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "1.0", "--out", str(f1)]) == 0
    rc = cli.run(["wave", "three-solve", "--f0", pf, "--f1", str(f1), "--falpha", str(fa), "--alpha-frac", "2/5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == "2/5"  # exact rationals serialized as P/Q
    assert doc["status"] == "Unique"


def test_rational_solve_reports_incompatible_data_with_exit_zero(tmp_path):
    f0 = field(1, [((0.9,), 1.0)])
    fp = field(1, [((0.9,), 5.0)])  # not a wave continuation
    fq = field(1, [((0.9,), 0.1)])
    paths = []
    for name, f in (("f0", f0), ("fp", fp), ("fq", fq)):
        p = tmp_path / f"{name}.json"
        save_field(f, str(p))
        paths.append(str(p))
    out = tmp_path / "rep.json"
    rc = cli.run(["wave", "rational-solve", "--f0", paths[0], "--fp", paths[1], "--fq", paths[2],
                  "--p", "2", "--q", "3", "--out", str(out)])
    assert rc == 0  # a rejection is a result, not a tool failure
    doc = json.loads(out.read_text())
    assert doc["status"] == "Obstructed"
    assert doc["residual"] > 1e-9
    assert doc["conditioning"] == 0.0 and doc["kernel_modes"] == []
    assert doc["note"] == f"snapshot compatibility residual {doc['residual']:.3e} exceeds 1.0e-09"
    assert doc["solution"] is None


def test_rational_and_three_solve_report_a_failed_gate_alike(tmp_path):
    # one finding, one payload: on data failing the Bezout gate both verbs emit the same members besides their times
    data = CauchyData(field(1, [((0.9,), 1.0)]), field(1, [((0.9,), 1.0)]))
    paths = {}
    for t, bump in ((0.0, 0.0), (1.0, 0.0), (2.0, 0.5), (3.0, 0.0), (2.0 / 3.0, 0.5)):
        paths[t] = str(tmp_path / f"{t!r}.json")
        save_field(field(1, [*evolve(data, t).modes, ((0.9,), bump)]), paths[t])
    rational = ["rational-solve", "--f0", paths[0.0], "--fp", paths[2.0], "--fq", paths[3.0], "--p", "2", "--q", "3"]
    three = ["three-solve", "--f0", paths[0.0], "--f1", paths[1.0], "--falpha", paths[2.0 / 3.0], "--alpha-frac", "2/3"]
    members = []
    for argv in (rational, three):
        out = tmp_path / "out.json"
        assert cli.run(["wave", *argv, "--out", str(out)]) == 0, argv
        doc = json.loads(out.read_text())
        assert doc["status"] == "Obstructed" and doc["solution"] is None, argv
        members.append([m for m in doc if m not in ("p", "q", "alpha")])
    assert members[0] == members[1]
    assert members[0][-6:] == ["status", "residual", "conditioning", "kernel_modes", "note", "solution"]


def test_liouville_demo_csv_shape(tmp_path):
    out = tmp_path / "demo.csv"
    assert cli.run(["wave", "liouville-demo", "--kmax", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert header[0] == "# wavesnap 0.1.0"
    assert any("verb: wave liouville-demo" in ln for ln in header)
    assert any("seed: 0" in ln for ln in header)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "k,q_k,sin_abs,amplitude"
    # every row the demo can print (k = 7 raises), as mpmath.nstr(x, 8) wrote them; q_k = 10^(k!)
    values = [("0.30904687", "10.165425"), ("0.00031415926", "100.0"), ("3.1415927e-18", "1000000.0"),
              ("3.1415927e-96", "1.0e+24"), ("3.1415927e-600", "1.0e+120"), ("3.1415927e-4320", "1.0e+720")]
    assert body[1:] == [f"{k},{10 ** math.factorial(k)},{s},{a}" for k, (s, a) in enumerate(values, 1)]
    assert cli.run(["reproduce", "liouville", "--out", str(tmp_path / "liouville.json")]) == 0
    details = json.loads((tmp_path / "liouville.json").read_text())["results"][0]["details"]
    assert details == ("amplifications k=1: 10.165425, k=2: 100.0, k=3: 1000000.0, k=4: 1.0e+24, ... "
                       "all certified > 1 up to k=6; k=7 raises PrecisionExhausted")


def test_symbol_table(tmp_path):
    out = tmp_path / "tab.csv"
    rc = cli.run(["wave", "symbol", "--kind", "Psi", "--m", "3", "--s", "1.0",
                  "--min", "0.5", "--max", "2.5", "--count", "5", "--out", str(out)])
    assert rc == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "lam,value"
    lam, value = body[1].split(",")
    assert float(value) == pytest.approx(math.sin(3 * float(lam)) / math.sin(float(lam)))


def test_dio_verbs_smoke(tmp_path, capsys):
    assert cli.run(["dio", "cfrac", "--value", "415/93"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["partial_quotients"] == [4, 2, 6, 7]
    assert doc["convergents"][-1] == "415/93"

    assert cli.run(["dio", "class", "--number", "liouville:10:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "110001/1000000"
    assert doc["err_bound"] == f"1/{10**23}"

    assert cli.run(["dio", "oddtype", "--qmax", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] is True and doc["count"] == 68

    out = tmp_path / "sd.csv"
    assert cli.run(["dio", "smallden", "--number", "2/3", "--count", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert any("exact zeros at l: [3, 6, 9]" in ln for ln in lines)


def test_term_counts_beyond_sys_maxsize_read_as_large_ones(capsys):
    # were exit 1: "Stop argument for islice() must be None or an integer: 0 <= x <= sys.maxsize."
    for argv, flag in ((["dio", "cfrac", "--value", "1/3"], "--max-terms"),
                       (["dio", "probe-mu", "--number", "golden"], "--depth")):
        assert cli.run([*argv, flag, "1000"]) == 0
        want = capsys.readouterr()
        assert cli.run([*argv, flag, str(10**20)]) == 0
        assert capsys.readouterr() == want


def test_smallden_csv_values_parse_back(tmp_path):
    out = tmp_path / "sd.csv"
    assert cli.run(["dio", "smallden", "--number", "golden", "--count", "500", "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "l,value"
    table = dio.small_denominator_sequence(dio.golden_class(), 0, 500)
    assert [(int(l), float(v)) for l, v in (ln.split(",") for ln in body[1:])] == list(table.rows)


CSV_CELLS = [True, False, 0, -7, 2**70, 0.1, -0.0, 1e-300, 5e-324, math.inf, "50%", "%s", "%%d", "a,b", ""]


@pytest.mark.parametrize("width", [2, 4, 5])
@pytest.mark.parametrize("nrows", [0, 1, 1023, 1024, 1025, 2051])
def test_block_csv_writer_matches_the_per_row_writer(capsys, width, nrows):
    names = tuple(f"c{j}" for j in range(width))
    rows = [tuple(CSV_CELLS[(i * width + j) % len(CSV_CELLS)] for j in range(width)) for i in range(nrows)]
    columns = [[row[j] for row in rows] for j in range(width)]
    cli._emit_csv(argparse.Namespace(out=None, seed=3), "a verb", names, columns, ["one % comment"])
    header = f"# wavesnap {cli.__version__}\n# verb: a verb\n# seed: 3\n# one % comment\n"
    assert capsys.readouterr().out == header + ref.csv_body(names, rows)


@pytest.mark.parametrize("width, lengths", [(2, (3, 2)), (2, (2, 3)), (2, (0, 1)), (3, (4, 4, 5)), (3, (4, 4)), (1, (4, 4))])
def test_block_csv_writer_rejects_mismatched_columns(width, lengths):
    columns = [list(range(n)) for n in lengths]
    with pytest.raises(ValueError):
        cli._emit_csv(argparse.Namespace(out=None, seed=3), "a verb", [f"c{j}" for j in range(width)], columns)


def assert_same_text(got, want):
    """got == want.  On a mismatch name the first differing line and show both,
    as pytest's diff of two multi-megabyte texts takes minutes."""
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (lines[i] if i < len(lines) else "<end of text>" for lines in (a, b))
    pytest.fail(f"texts differ first at line {i + 1}: got {x!r}, want {y!r}", pytrace=False)


@pytest.mark.parametrize("shift", ["0", "1/2"])
def test_smallden_file_matches_the_per_row_writer(tmp_path, shift):
    out = tmp_path / "sd.csv"
    argv = ["dio", "smallden", "--number", "golden", "--count", "100000", "--shift", shift, "--out", str(out)]
    assert cli.run(argv) == 0
    text = out.read_text()
    table = dio.small_denominator_sequence(dio.golden_class(), Fraction(shift), 100000)
    assert_same_text(text[text.index("l,value\n") :], ref.csv_body(("l", "value"), table.rows))


@pytest.mark.parametrize(
    "number, shift, count",
    [("golden", "1/2", 1), ("golden", "0", 1), ("golden", "1/2", 101), ("rational:2/3", "0", 10),
     ("rational:2/3", "1/2", 10)],
)
def test_smallden_edge_files_match_the_per_row_writer(tmp_path, number, shift, count):
    # the row l = 0 at shift 1/2, --count 1, degrees of one to three digits, and exact zeros
    # (l = 3, 6, 9 at shift 0; l = 1, 4, 7, 10 at shift 1/2)
    out = tmp_path / "sd.csv"
    assert cli.run(["dio", "smallden", "--number", number, "--shift", shift, "--count", str(count), "--out", str(out)]) == 0
    text = out.read_text()
    table = dio.small_denominator_sequence(cli.number_class(number), Fraction(shift), count)
    assert (0.0 in table.values) is number.startswith("rational")
    assert_same_text(text[text.index("l,value\n") :], ref.csv_body(("l", "value"), table.rows))


def repr_lines(degrees, values):
    """`cli._repr_rows` under the header line, to compare with `ref.csv_body`."""
    return "l,value\n" + cli._repr_rows(degrees, values)


# the fast path's window [1e-4, 1) at its edges; the powers of two in it, which go back to repr
# (m = 2^52, an asymmetric interval); one-digit texts, which only the short-digit search finds;
# X = v 10^17 halfway between two multiples of 10, which go back to repr (round half to even);
# values below powers of ten, where floor(log10 v) comes out one too high; and values outside the window
REPR_EDGES = [2.0**-e for e in range(1, 14)]
REPR_EDGES += [1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 1.0, math.nextafter(1.0, 0.0)]
REPR_EDGES += [d / 10 for d in range(1, 10)] + [65555 / 2**17, 65583 / 2**17, 65611 / 2**17]
REPR_EDGES += [0.09999999999999998, 0.009999999999999995, 0.0009999999999999998]
REPR_EDGES += [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -0.5, 1.5]
REPR_EDGES += [-1.7976931348623157e308, -2.2250738585072014e-308]  # repr's longest texts, 24 characters


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.floats() | st.floats(1e-4, 1.0, exclude_max=True), max_size=40),
    first=st.integers(0, 10**8 - 41),
)
@example(xs=REPR_EDGES, first=0)
@example(xs=REPR_EDGES, first=10**8 - len(REPR_EDGES))
def test_float_reprs_are_repr(xs, first):
    degrees = range(first, first + len(xs))
    assert repr_lines(degrees, xs) == ref.csv_body(("l", "value"), zip(degrees, xs))


def test_repr_rows_write_every_degree_width():
    # the first and last degree of each width from one digit to eight, next to values of each
    # text length, in one block and across blocks
    degrees = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**5, 10**6, 10**7 - 1, 10**7, 10**8 - 1]
    values = [REPR_EDGES[i % len(REPR_EDGES)] for i in range(len(degrees))]
    assert_same_text(repr_lines(degrees, values), ref.csv_body(("l", "value"), zip(degrees, values)))
    degrees = [(i * 7919) ** 2 % 10**8 for i in range(2 * cli.REPR_BLOCK + 5)]
    values = [REPR_EDGES[i % len(REPR_EDGES)] / (1 + i % 3) for i in range(len(degrees))]
    assert_same_text(repr_lines(degrees, values), ref.csv_body(("l", "value"), zip(degrees, values)))
    assert cli._repr_rows([], []) == ""


def test_repr_rows_read_arrays_as_lists():
    # numpy 2 writes repr(np.float64(0.0)) as "np.float64(0.0)": the rows that go back to repr
    # (zeros, nan, infinities, subnormals, powers of two, ties) must write repr(float(v)); a
    # read-only array, as the table's columns are, is read and never written
    import numpy as np

    degrees = range(len(REPR_EDGES))
    want = ref.csv_body(("l", "value"), zip(degrees, REPR_EDGES))
    column, values = np.array(degrees), np.array(REPR_EDGES)
    column.setflags(write=False)
    values.setflags(write=False)
    assert_same_text(repr_lines(degrees, REPR_EDGES), want)
    assert_same_text(repr_lines(column, values), want)


@pytest.mark.parametrize(
    "spec, shift, count",
    [("golden", 0, 10**5), ("golden", Fraction(1, 2), 10**5), ("sqrt2", 0, 10**5), ("sqrt2", Fraction(1, 2), 10**5),
     ("liouville:10:3", 0, 10**6)],
)
def test_float_reprs_are_repr_on_smallden_tables(spec, shift, count):
    table = dio.small_denominator_sequence(cli.number_class(spec), shift, count)
    assert (table.zero_rows != ()) is spec.startswith("liouville")  # exact zeros at l = 10^6
    assert_same_text(repr_lines(table.degrees, table.values), ref.csv_body(("l", "value"), table.rows))


def test_float_reprs_check_fails_on_other_digits():
    # negative controls: 17 significant digits, and the fast path without its short-digit search,
    # which writes 0.1 as 0.10000000000000001
    xs = REPR_EDGES + list(dio.small_denominator_sequence(dio.golden_class(), 0, 1000).values)
    degrees = range(len(xs))
    want = ref.csv_body(("l", "value"), zip(degrees, xs))
    assert ref.csv_body(("l", "value"), zip(degrees, ["%.17g" % x for x in xs])) != want
    source = inspect.getsource(cli._repr_rows)
    broken = source.replace("while more.size:", "while False:")
    assert broken != source
    namespace = dict(vars(cli))
    exec(broken, namespace)
    assert "l,value\n" + namespace["_repr_rows"](degrees, xs) != want
    assert namespace["_repr_rows"]([0], [0.1]) == "0,0.10000000000000001\n"


def test_margin_errors_name_the_exponent_and_the_time(tmp_path, capsys):
    # were "(34, 'Numerical result out of range')" and exit 0 with C = 0 at every degree a kernel zero
    out = tmp_path / "margin.json"
    message = "--exponent 200 too large: the weight (1+l)^200 leaves the float range at degree l = 34"
    assert_names_flag(capsys, ["sphere", "margin", "--alpha", "0.3", "--n", "3", "--exponent", "200"], out, message)
    message = "time 1e+300 resolves no phase at frequency 10001.0: |t w| >= 2^50 counts every sine as zero"
    assert_names_flag(capsys, ["sphere", "margin", "--alpha", "1e300", "--n", "3"], out, message)


def test_jointbound_past_the_float_range_writes_no_warning(tmp_path):
    # numpy's "overflow encountered in power" went to stderr; the points whose weight is inf never set C
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = tmp_path / "jb.json"
    done = subprocess.run(
        [sys.executable, "-m", "wavesnap", "dio", "jointbound", "--exponent", "200", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    import numpy as np

    with np.errstate(over="ignore"):
        want = ref.joint_sine_lower_bound(dio.sqrt2_class(), 200, 1e4)
    assert json.loads(out.read_text())["C"] == want


def test_jointbound_with_no_finite_weight_names_the_exponent(tmp_path, capsys):
    # exited 0 with "C": "inf" and "passes": true: every weight (1+x)^N overflowed, so no score was finite
    out = tmp_path / "jb.json"
    argv = ["dio", "jointbound", "--exponent", "100000000", "--xmax", "10"]
    message = "--exponent 100000000 too large: the weight (1+x)^100000000 leaves the float range"
    message += " at every grid point up to x = 10.0"
    assert_names_flag(capsys, argv, out, message)
    assert cli.run(["dio", "jointbound", "--exponent", "200", "--out", str(out)]) == 0  # some weights stay finite
    assert json.loads(out.read_text())["C"] == 41720.40438332567


def test_sphere_verbs_smoke(tmp_path, capsys):
    f0 = sphere_field(2, [(l, 1, 0.5**l) for l in range(4)])
    g = sphere_field(2, [(l, 1, 1.0) for l in range(4)])
    pf, pg = tmp_path / "s0.json", tmp_path / "sg.json"
    save_sphere_field(f0, str(pf))
    save_sphere_field(g, str(pg))

    ua = tmp_path / "ua.json"
    assert cli.run(["sphere", "evolve", "--f0", str(pf), "--g", str(pg), "--t-pi", "1/3", "--out", str(ua)]) == 0
    rc = cli.run(["sphere", "solve", "--f0", str(pf), "--falpha", str(ua), "--alpha-pi", "1/3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Unique"
    amps = {(c["l"], c["m"]): complex(*c["amp"]) for c in doc["solution"]["coeffs"]}
    assert all(abs(amps[(l, 1)] - 1.0) < 1e-9 for l in range(4))

    assert cli.run(["sphere", "classify", "--number", "golden", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "UniqueAndSolvable"

    assert cli.run(["sphere", "margin", "--alpha-pi", "1/2", "--n", "3", "--max-degree", "100", "--exponent", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] is False and doc["C"] == 0.0


def test_sphere_margin_reads_2w_exactly_beyond_float_precision(capsys):
    # for even n, 2w = 2l + n - 1 is odd, so no sin(w pi/2) vanishes however
    # large n is; for odd n every even w is a zero.  A float w rounds n - 1
    # from n = 2^53 on, which made 2^53 + 2 and 10^23 look odd.
    for n, passes in ((10**23, True), (2**53 + 2, True), (100, True), (10**23 + 1, False), (2**53 + 1, False)):
        assert cli.run(["sphere", "margin", "--alpha-pi", "1/2", "--n", str(n), "--max-degree", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passes"] is passes, n
        assert (doc["C"] > 0) is passes, n


def _verb_rows():
    """(command, group, row) for every verb row of `cli.VERBS`: the command is "group verb", or the
    group alone for a group without verbs, and the row is (handler, field-file flags, flags)."""
    for group, (_, *rest) in cli.VERBS.items():
        if not isinstance(rest[0], dict):
            yield group, group, rest
            continue
        for verb, (_, *row) in rest[0].items():
            yield f"{group} {verb}", group, row


def test_json_verbs_write_what_json_dumps_writes(wave_files, capsys):
    """Every verb of `cli.VERBS` is run once and names itself in its
    header.  Every JSON verb writes the text `json.dumps(doc, indent=2)`
    writes for its own parse; a field output loads back as the field written."""
    tmp, pf, pg = wave_files
    s0 = sphere_field(2, [(l, 1, 0.5**l) for l in range(4)])
    sg = sphere_field(2, [(l, 1, 1.0) for l in range(4)])
    ps0, psg, pz0, pzg = (str(tmp / f"{name}.json") for name in ("s0", "sg", "z0", "zg"))
    save_sphere_field(s0, ps0)
    save_sphere_field(sg, psg)
    save_sphere_field(sphere_field(3, [(l, 1, 0.5**l) for l in range(4)]), pz0)  # zonal, on an odd sphere
    save_sphere_field(sphere_field(3, [(1, 1, 1.0)]), pzg)
    f1, fa, sa = str(tmp / "f1.json"), str(tmp / "fa.json"), str(tmp / "sa.json")
    w3, sneg, s3 = str(tmp / "w3.json"), str(tmp / "sneg.json"), str(tmp / "s3.json")
    def verb(argv):
        return " ".join(argv[:1] if argv[0] == "reproduce" else argv[:2])

    runs = [
        ["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "1.0", "--out", f1],
        ["wave", "evolve", "--field", pf, "--velocity", pg, "--t", "0.4", "--out", fa],
        ["wave", "snapshot", "--ua", pf, "--ub", f1, "--m", "3", "--out", w3],
        ["wave", "two-solve", "--f0", pf, "--f1", f1],
        ["wave", "three-solve", "--f0", pf, "--f1", f1, "--falpha", fa, "--alpha-frac", "2/5"],
        ["wave", "rational-solve", "--f0", pf, "--fp", pg, "--fq", f1, "--p", "2", "--q", "3"],
        ["wave", "compat", "--f0", pf, "--f1", f1, "--falpha", fa, "--alpha", "0.4"],
        ["dio", "cfrac", "--value", "415/93"],
        ["dio", "class", "--number", "liouville:10:3"],
        ["dio", "probe-mu", "--number", "golden", "--depth", "4"],
        ["dio", "oddtype", "--qmax", "200"],
        ["dio", "jointbound", "--xmax", "100"],
        ["dio", "doubled-bound", "--number", "binary:7", "--exponent", "2"],
        ["sphere", "evolve", "--f0", ps0, "--g", psg, "--t-pi", "1/3", "--out", sa],
        ["sphere", "evolve", "--f0", ps0, "--g", psg, "--t", "-0.7", "--out", sneg],
        ["sphere", "snapshot", "--ua", ps0, "--ualpha", sneg, "--alpha", "-0.7", "--m", "3", "--out", s3],
        ["sphere", "solve", "--f0", ps0, "--falpha", sa, "--alpha-pi", "1/3"],
        ["sphere", "huygens", "--f0", pz0, "--g", pzg, "--t-count", "3", "--c-count", "3"],
        ["sphere", "classify", "--number", "golden", "--n", "3"],
        ["sphere", "margin", "--alpha-pi", "1/2", "--n", "3", "--max-degree", "100", "--exponent", "3"],
        ["reproduce", "sdprobe"],
    ]
    for i, argv in enumerate(runs):
        out = argv[-1] if argv[-2] == "--out" else str(tmp / f"out{i}.json")
        assert cli.run(argv if argv[-2] == "--out" else argv + ["--out", out]) == 0, argv
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text, argv
        assert json.loads(text)["verb"] == verb(argv), argv
    csv_runs = [
        ["wave", "liouville-demo", "--kmax", "2"],
        ["wave", "symbol", "--kind", "S", "--count", "3"],
        ["dio", "smallden", "--number", "2/3", "--count", "9"],
        ["dio", "sdprobe", "--ximax", "20", "--samples", "8"],
    ]
    capsys.readouterr()
    for argv in csv_runs:
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr().out.splitlines()[1] == f"# verb: {verb(argv)}", argv
    assert {verb(argv) for argv in runs + csv_runs} == {command for command, _, _ in _verb_rows()}
    for t, path in ((1.0, f1), (0.4, fa)):
        assert load_field(path) == evolve(CauchyData(load_field(pf), load_field(pg)), t)
    assert load_sphere_field(sa) == evolve(CauchyData(s0, sg), math.pi * (1 / 3))
    assert load_field(w3) == general_integer_snapshot(load_field(pf), load_field(f1), 0.0, 1.0, 3)
    assert load_sphere_field(s3) == general_integer_snapshot(s0, load_sphere_field(sneg), 0.0, -0.7, 3)
    capsys.readouterr()
    assert cli.run(["wave", "snapshot", "--ua", pf, "--ub", f1, "--m", "3", "--a", "1", "--b", "1"]) == 1
    assert capsys.readouterr().err.startswith("wavesnap: error: need a != b")


def test_reproduce_suite(capsys):
    assert cli.run(["reproduce", "sdprobe"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS sdprobe:")


def test_suite_names_are_the_experiments(capsys, monkeypatch):
    # the parser lists the suites without importing the experiments, so its copy of their names
    # is pinned here, and the texts that show them keep their bytes
    assert cli.SUITES == tuple(experiments.ALL)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    choices = "{recursion,identities,three-snapshot,liouville,rational,oddtype,jointbound,sphere,sdprobe,all}"
    usage = f"usage: wavesnap reproduce [-h] [--seed SEED] [--out OUT]\n{' ' * 26}{choices}\n"
    assert cli.run(["reproduce", "--help"]) == 0
    assert capsys.readouterr().out.startswith(usage + f"\npositional arguments:\n  {choices}\n\n")
    assert cli.run(["reproduce", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(usage + "wavesnap reproduce: error: argument suite: invalid choice: 'nosuch'"), err


def test_module_entry_point_runs_from_checkout():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "wavesnap", "reproduce", "sdprobe"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS sdprobe:")


def test_cli_module_runs_as_script(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "sdprobe.txt"
    done = subprocess.run(
        [sys.executable, "-m", "wavesnap.cli", "reproduce", "sdprobe", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert out.exists() and out.stat().st_size > 0


def test_exit_codes(tmp_path, capsys):
    assert cli.run(["no-such-group"]) == 2
    assert cli.run(["wave", "no-such-verb"]) == 2
    assert cli.run(["reproduce", "no-such-suite"]) == 2
    # the sphere solve's degree cap is gone, and so is its flag
    assert cli.run(["sphere", "solve", "--f0", "a.json", "--falpha", "b.json", "--alpha", "0.7", "--max-degree", "10"]) == 2
    assert "unrecognized arguments: --max-degree 10" in capsys.readouterr().err
    # domain error: unreadable input
    rc = cli.run(["wave", "two-solve", "--f0", str(tmp_path / "missing.json"), "--f1", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    # domain error: unclassifiable input
    assert cli.run(["sphere", "classify", "--number", "liouville:10:3", "--n", "2"]) == 1
    # domain error: a time so large that the symbols overflow
    pf = tmp_path / "f.json"
    save_field(field(1, [((10.0,), 1.0)]), str(pf))
    capsys.readouterr()
    assert cli.run(["wave", "evolve", "--field", str(pf), "--velocity", str(pf), "--t", "1e308"]) == 1
    assert "error" in capsys.readouterr().err
    # domain error: a margin weight (1+l)^200 beyond the float range
    assert cli.run(["sphere", "margin", "--alpha", "0.7", "--n", "3", "--max-degree", "100", "--exponent", "200"]) == 1
    assert "wavesnap: error:" in capsys.readouterr().err
    # domain error: a NaN time, which no margin scan can score
    out = tmp_path / "margin.json"
    assert cli.run(["sphere", "margin", "--alpha", "nan", "--n", "3", "--max-degree", "100", "--out", str(out)]) == 1
    assert "wavesnap: error:" in capsys.readouterr().err
    assert not out.exists()
    assert cli.run(["sphere", "margin", "--alpha", "inf", "--n", "3", "--max-degree", "100", "--out", str(out)]) == 1
    assert "wavesnap: error:" in capsys.readouterr().err
    assert not out.exists()
    # domain error: a non-finite third time, which no three-snapshot solve can check
    f1 = tmp_path / "f1.json"
    save_field(evolve(CauchyData(field(1, [((10.0,), 1.0)]), field(1, [((10.0,), 1.0)])), 1.0), str(f1))
    for alpha in ("nan", "inf", "-inf"):
        argv = ["wave", "three-solve", "--f0", str(pf), "--f1", str(f1), "--falpha", str(f1), f"--alpha={alpha}"]
        assert cli.run(argv + ["--out", str(out)]) == 1, alpha
        assert capsys.readouterr().err.startswith("wavesnap: error: alpha must be finite"), alpha
        assert not out.exists()
    # domain error: a non-finite two-snapshot time, which ended in a bare "math domain error"
    z = tmp_path / "z.json"
    save_sphere_field(sphere_field(3, [(1, 1, 1.0)]), str(z))
    for alpha in ("nan", "inf", "-inf"):
        argv = ["sphere", "solve", "--f0", str(z), "--falpha", str(z), f"--alpha={alpha}", "--out", str(out)]
        assert cli.run(argv) == 1, alpha
        assert capsys.readouterr().err.startswith(f"wavesnap: error: time must be finite, got {alpha}"), alpha
        assert not out.exists()
    # domain error: a solve time so large that S_t overflows names the symbol, as evolve does
    for argv in (["sphere", "solve", "--f0", str(z), "--falpha", str(z)],
                 ["wave", "three-solve", "--f0", str(pf), "--f1", str(f1), "--falpha", str(f1)]):
        assert cli.run([*argv, "--alpha", "1e308", "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err.startswith("wavesnap: error: symbol S[1e+308] failed at lambda="), argv
        assert not out.exists()
    # a Psi index of 10^23 at a kernel radius, where Psi takes the Chebyshev branch:
    # the snapshot and the Bezout solve finish (U_m takes O(log m) steps, not |m|)
    k3 = (3 * math.pi, 0.0)
    kernel = CauchyData(field(2, [(k3, 1.0), ((1.0, 2.0), 0.5j)]), field(2, [(k3, 0.3)]))
    snaps = {t: tmp_path / f"k{t}.json" for t in (0, 1, 2, 3)}
    for t, path in snaps.items():
        save_field(evolve(kernel, float(t)), str(path))
    argv = ["wave", "snapshot", "--ua", str(snaps[0]), "--ub", str(snaps[1]), "--a", "0", "--b", "1"]
    assert cli.run([*argv, "--m", str(10**23), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verb"] == "wave snapshot"
    argv = ["wave", "rational-solve", "--f0", str(snaps[0]), "--fp", str(snaps[2]), "--fq", str(snaps[3])]
    assert cli.run([*argv, "--p", str(2 * 10**20), "--q", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "Obstructed"
    out.unlink()
    capsys.readouterr()
    # domain error: fewer than two antipodal evaluation points
    for count in ("1", "0", "-3"):
        argv = ["sphere", "huygens", "--f0", str(z), "--g", str(z), f"--c-count={count}", "--out", str(out)]
        assert cli.run(argv) == 1, count
        assert capsys.readouterr().err.startswith(f"wavesnap: error: c_count must be at least 2, got {count}"), count
        assert not out.exists()
    # domain error: a joint-bound sweep with no finite grid, or too large a one
    for xmax in ("inf", "nan", "1e7"):
        assert cli.run(["dio", "jointbound", "--xmax", xmax]) == 1, xmax
        err = capsys.readouterr().err
        assert err.startswith("wavesnap: error: x_max must be in") and "Warning" not in err, err
    # domain error: a field file of the other kind, named by the kinds of its basis and of the verb group
    s0 = tmp_path / "s0.json"
    save_sphere_field(sphere_field(3, [(1, 1, 1.0)]), str(s0))
    for argv, message in (
        (["wave", "two-solve", "--f0", str(s0), "--f1", str(s0)],
         f"{s0} holds a sphere field; wave verbs read a flat field"),
        (["sphere", "solve", "--f0", str(pf), "--falpha", str(pf), "--alpha", "0.5"],
         f"{pf} holds a flat field; sphere verbs read a sphere field"),
    ):
        assert cli.run(argv) == 1, argv
        assert capsys.readouterr().err == f"wavesnap: error: {message}\n"
    # usage error: malformed fraction
    assert cli.run(["dio", "cfrac", "--value", "abc"]) == 2
    # usage error: number specs beyond the stored precision, or with a zero denominator
    for spec in ("liouville:10:9", "oddtype:8", "rational:1/0", "1/0", "3/0"):
        assert cli.run(["dio", "class", "--number", spec]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--number" in err and "Traceback" not in err
        if spec.endswith("/0"):
            assert err.endswith(f"error: argument --number: number spec {spec!r} has a zero denominator\n"), err


@pytest.fixture()
def one_mode_files(tmp_path):
    """A 1-mode flat field and a 1-coefficient S^3 field, and an --out path."""
    flat, on_sphere = tmp_path / "f.json", tmp_path / "s.json"
    save_field(field(1, [((3.0,), 1.0)]), str(flat))
    save_sphere_field(sphere_field(3, [(1, 1, 1.0)]), str(on_sphere))
    return str(flat), str(on_sphere), tmp_path / "out.json"


def assert_invalid_time(capsys, argv, out, value):
    # a non-finite time is InvalidTime, exit 1, before any symbol is evaluated
    assert cli.run([*argv, "--out", str(out)]) == 1, argv
    assert capsys.readouterr().err == f"wavesnap: error: time must be finite, got {value}\n", argv
    assert not out.exists()


def test_wave_evolve_rejects_non_finite_times(one_mode_files, capsys):
    # was "symbol S'[inf] failed at lambda=3.0" and "symbol S'[nan] returned (nan+0j) at lambda=3.0"
    flat, _, out = one_mode_files
    for t in ("inf", "-inf", "nan"):
        assert_invalid_time(capsys, ["wave", "evolve", "--field", flat, "--velocity", flat, f"--t={t}"], out, t)


def test_sphere_evolve_rejects_non_finite_times(one_mode_files, capsys):
    # was "symbol S'[inf] failed at lambda=2.0"
    _, on_sphere, out = one_mode_files
    for t in ("inf", "nan"):
        assert_invalid_time(capsys, ["sphere", "evolve", "--f0", on_sphere, "--g", on_sphere, f"--t={t}"], out, t)


def test_wave_snapshot_rejects_non_finite_times(one_mode_files, capsys):
    # --b inf was "symbol Psi[2,inf] failed", and --b nan failed the order check a < b, which is gone
    flat, _, out = one_mode_files
    argv = ["wave", "snapshot", "--ua", flat, "--ub", flat, "--m", "2"]
    for flags, value in ((["--b", "inf"], "inf"), (["--b", "nan"], "nan"), (["--a=-inf"], "-inf")):
        assert_invalid_time(capsys, argv + flags, out, value)


def test_wave_snapshot_takes_its_pair_in_either_order(wave_files, capsys):
    # a > b was "need a < b", exit 1; only a = b is refused now
    tmp, pf, pg = wave_files
    data = CauchyData(load_field(pf), load_field(pg))
    ua, ub, out = str(tmp / "ua.json"), str(tmp / "ub.json"), str(tmp / "out.json")
    save_field(evolve(data, 1.15), ua)
    save_field(evolve(data, 0.3), ub)
    assert cli.run(["wave", "snapshot", "--ua", ua, "--ub", ub, "--a", "1.15", "--b", "0.3", "--m", "3", "--out", out]) == 0
    got, want = load_field(out), evolve(data, 1.15 + 3 * (0.3 - 1.15))
    assert got.keys == want.keys
    assert max(abs(x - y) for x, y in zip(got.amps, want.amps)) < 1e-12
    capsys.readouterr()
    assert cli.run(["wave", "snapshot", "--ua", ua, "--ub", ua, "--a", "1", "--b", "1", "--m", "3"]) == 1
    assert capsys.readouterr().err == "wavesnap: error: need a != b, got a = b = 1.0\n"


def test_sphere_verbs_reject_a_degree_whose_frequency_no_float_holds(one_mode_files, capsys):
    # at n = 2 and l = 2^52 the float frequency is 2^52, not 2^52 + 1/2: an exact time read it as a zero
    _, on_sphere, out = one_mode_files
    with open(on_sphere, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["n"], doc["coeffs"][0]["l"] = 2, 2**52
    huge = str(out.parent / "huge.json")
    with open(huge, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert cli.run(["sphere", "evolve", "--f0", huge, "--g", huge, "--t-pi", "1/2", "--out", str(out)]) == 1
    assert f"degree l={2**52}, n=2" in capsys.readouterr().err
    assert not out.exists()


def test_wave_compat_rejects_non_finite_times(one_mode_files, capsys):
    # was "symbol S[nan] returned (nan+0j)" and "symbol S[inf] failed"
    flat, _, out = one_mode_files
    for alpha in ("nan", "inf"):
        argv = ["wave", "compat", "--f0", flat, "--f1", flat, "--falpha", flat, f"--alpha={alpha}"]
        assert_invalid_time(capsys, argv, out, alpha)


def assert_names_flag(capsys, argv, out, message):
    assert cli.run([*argv, "--out", str(out)]) == 1, argv
    assert capsys.readouterr().err == f"wavesnap: error: {message}\n", argv
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        # exited 0 with nan rows
        (["--kind", "S", "--min=nan"], "--min must be finite, got nan"),
        (["--kind", "Psi", "--s=nan"], "--s must be finite, got nan"),
        # exited 1 with "math domain error"
        (["--kind", "Sprime", "--t=inf"], "--t must be finite, got inf"),
        (["--kind", "S", "--max=inf"], "--max must be finite, got inf"),
        (["--kind", "Psi", "--m", "0", "--s", "1e308"],
         "Psi[0,1e+308] has no finite value on the grid up to --max 10.0: --m or --s too large"),
        (["--kind", "Sprime", "--t", "1e308"], "S'[1e+308] has no finite value on the grid up to --max 10.0: --t too large"),
        (["--kind", "S", "--min=-1e308", "--max=1e308"], "--max minus --min must be finite, got inf"),
    ],
)
def test_wave_symbol_names_the_flag_that_is_not_finite(tmp_path, capsys, flags, message):
    assert_names_flag(capsys, ["wave", "symbol", *flags], tmp_path / "out.csv", message)


@pytest.mark.parametrize(
    "flags, message",
    [
        # exited 0 with "all windows pass: True": (A + xi)^(-A) underflowed to a threshold of 0.0
        (["--symbol", "zero", "--a-const", "200", "--ximax", "10", "--samples", "2"],
         "--a-const 200.0, --ximax 10.0, --samples 2: the threshold (A + xi)^(-A) underflows to 0 at xi = 10.0"),
        # exited 1 with "cannot convert float NaN to integer"
        (["--a-const", "nan"], "--a-const nan, --ximax 1000.0, --samples 512: A must be finite, got nan"),
        (["--ximax", "inf"], "--a-const 4.0, --ximax inf, --samples 512: sampled xi inf is not finite"),
        (["--ximax", "nan"], "--a-const 4.0, --ximax nan, --samples 512: sampled xi nan is not finite"),
        (["--ximax", "1e308", "--samples", "3"], "--a-const 4.0, --ximax 1e+308, --samples 3: sampled xi inf is not finite"),
        # never finished: a list of ~1e307 half-period points was built before the first window
        (["--a-const", "1e308"],
         "--a-const 1e+308, --ximax 1000.0, --samples 512: the threshold (A + xi)^(-A) underflows to 0 at xi = 1000.0"),
    ],
)
def test_dio_sdprobe_names_the_flags_of_a_vacuous_or_non_finite_probe(tmp_path, capsys, flags, message):
    assert_names_flag(capsys, ["dio", "sdprobe", *flags], tmp_path / "out.csv", message)


def test_wave_compat_names_alpha_where_a_product_overflows(tmp_path, capsys):
    # was the bare "non-finite amplitude (1e+308-infj)": S_{alpha-1} is 1e308 at frequency 0, times -2j overflows
    z, big, out = tmp_path / "z.json", tmp_path / "big.json", tmp_path / "out.json"
    save_field(field(1, [((0.0,), 1 - 2j)]), str(z))
    argv = ["wave", "compat", "--f0", str(z), "--f1", str(z), "--falpha", str(z), "--alpha", "1e308"]
    message = "--alpha 1e+308: S[1e+308] times the amplitude (1-2j) at frequency 0.0 leaves the float range"
    assert_names_flag(capsys, argv, out, message)
    # finite products whose sum overflows keep their message: 1.8e308 at frequency 0
    save_field(field(1, [((0.0,), 1e308)]), str(big))
    save_field(field(1, [((0.0,), -1e308)]), str(z))
    argv = ["wave", "compat", "--f0", str(big), "--f1", str(z), "--falpha", str(big), "--alpha", "0.9"]
    assert_names_flag(capsys, argv, out, "non-finite amplitude (inf+0j)")


def test_sphere_huygens_names_a_non_finite_tmax(one_mode_files, capsys):
    # was "time must be finite, got nan", the product inf * 0 at the first time
    _, on_sphere, out = one_mode_files
    for tmax in ("inf", "nan"):
        argv = ["sphere", "huygens", "--f0", on_sphere, "--g", on_sphere, f"--tmax={tmax}"]
        assert_names_flag(capsys, argv, out, f"--tmax must be finite, got {tmax}")


def test_quadratic_number_specs_take_no_parameters(capsys):
    # "sqrt2:-1" and "golden:<anything>" exited 0, the text after the colon ignored
    for spec in ("sqrt2:-1", "sqrt2:", "golden:7", "golden:x:y", "doubled:sqrt2:3"):
        assert cli.run(["dio", "class", "--number", spec]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "unknown number spec" in err and "Traceback" not in err, spec
    for spec in ("sqrt2", "golden", "doubled:golden"):
        assert cli.run(["dio", "class", "--number", spec]) == 0, spec
    capsys.readouterr()


def test_unwritable_out_is_a_domain_error(tmp_path, capsys):
    # the output is written inside the domain-error handling, so a missing directory is exit 1, not a traceback
    out = str(tmp_path / "no-such-dir" / "out")
    json_verb, csv_verb = ["dio", "cfrac", "--value", "415/93"], ["wave", "liouville-demo", "--kmax", "2"]
    for argv in (json_verb, csv_verb, ["reproduce", "sdprobe"]):
        assert cli.run([*argv, "--out", out]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("wavesnap: error:") and "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv, code, line",
    [
        # the Bezout solve names the symbol that failed: S'_{p} at p = 10^306 + 1 overflows at lambda = 1000
        (["wave", "rational-solve", "--f0", "k.json", "--fp", "k.json", "--fq", "k.json", "--p", str(10**306 + 1),
          "--q", "3"], 1, "wavesnap: error: symbol S'[1e+306] failed at lambda=1000.0"),
        # an --out naming a directory: the temp file beside it is removed
        (["dio", "cfrac", "--value", "1/3", "--out", "adir"], 1,
         "wavesnap: error: [Errno 21] Is a directory: '.tmp-*~' -> 'adir'"),
        (["sphere", "classify", "--number", "sqrt2", "--n", "2"], 0,
         "finite irrationality measure rules out odd-type behavior of beta/2"),
        (["dio", "class", "--number", "liouville:10:0"], 2,
         "wavesnap dio class: error: argument --number: depth must be >= 1, got 0"),
        (["dio", "class", "--number", "liouville:10:3:1,1"], 2,
         "wavesnap dio class: error: argument --number: need 3 digits, got 2"),
        (["dio", "class", "--number", "rational:abc"], 2,
         "wavesnap dio class: error: argument --number: Invalid literal for Fraction: 'abc'"),
        (["dio", "cfrac", "--value", "1/3", "--max-terms", "0"], 1, "wavesnap: error: max_terms must be >= 1"),
        (["dio", "probe-mu", "--number", "golden", "--depth", "0"], 1, "wavesnap: error: depth must be >= 1"),
        (["dio", "smallden", "--number", "golden", "--shift", "1/3"], 1,
         "wavesnap: error: shift must be 0 or 1/2, got 1/3"),
        (["dio", "smallden", "--number", "golden", "--count", "0"], 1,
         "wavesnap: error: count must be in [1, 1e6], got 0"),
        (["sphere", "margin", "--alpha", "0.7", "--n", "3", "--exponent", "-1"], 1,
         "wavesnap: error: exponent must be >= 0"),
        (["sphere", "margin", "--alpha", "0.7", "--n", "3", "--max-degree", "0"], 1,
         "wavesnap: error: max_degree must be in [1, 1e6], got 0"),
        (["dio", "jointbound", "--exponent", "-1"], 1, "wavesnap: error: exponent must be >= 0"),
        (["dio", "sdprobe", "--a-const", "0"], 1,
         "wavesnap: error: --a-const 0.0, --ximax 1000.0, --samples 512: need A > 0, xi_max > 0, samples >= 2"),
        (["dio", "oddtype", "--qmax", "10"], 1, "wavesnap: error: qmax must be in [65, 1e5], got 10"),
        (["dio", "doubled-bound", "--number", "golden"], 1,
         "wavesnap: error: doubled bound needs a factorial-series construction"),
        (["dio", "doubled-bound", "--number", "oddtype:3", "--exponent", "0"], 1,
         "wavesnap: error: exponent must be >= 1"),
        (["sphere", "classify", "--number=-1/2", "--n", "2"], 1, "wavesnap: error: beta must be positive, got -1/2"),
        (["wave", "symbol", "--kind", "S", "--count", "1"], 1, "wavesnap: error: --count must be at least 2"),
    ],
)
def test_error_exits_name_their_cause(tmp_path, capsys, monkeypatch, argv, code, line):
    monkeypatch.chdir(tmp_path)
    save_field(field(1, [((1000.0,), 1.0)]), "k.json")
    os.mkdir("adir")
    assert cli.run(argv) == code
    got = capsys.readouterr()
    if code == 0:
        doc = json.loads(got.out)
        assert (doc["verdict"], doc["reason"], got.err) == ("UniqueAndSolvable", line, "")
    else:
        assert re.sub(r"'[^']*\.tmp-\w+~'", "'.tmp-*~'", got.err.splitlines()[-1]) == line
    assert sorted(os.listdir()) == ["adir", "k.json"] and os.listdir("adir") == []


def test_negative_values_in_any_spelling_reach_their_flag(one_mode_files, capsys):
    # argparse alone read -1e-07 and -7/31 as options: "expected one argument", exit 2, where --flag=-1e-07 ran
    flat, on_sphere, out = one_mode_files
    runs = [
        (["sphere", "snapshot", "--ua", on_sphere, "--ualpha", on_sphere, "--m", "3"], "--alpha", "-1e-07"),
        (["wave", "evolve", "--field", flat, "--velocity", flat], "--t", "-2.5e3"),
        (["sphere", "margin", "--n", "3", "--max-degree", "50"], "--alpha-pi", "-7/31"),
        (["dio", "cfrac"], "--value", "-355/113"),
        (["dio", "cfrac"], "--value", "-.5"),
    ]
    for argv, flag, value in runs:
        assert cli.run([*argv, f"{flag}={value}", "--out", str(out)]) == 0, (flag, value)
        want = out.read_bytes()
        out.unlink()
        assert cli.run([*argv, flag, value, "--out", str(out)]) == 0, (flag, value)
        assert out.read_bytes() == want, (flag, value)
        out.unlink()
    assert capsys.readouterr().err == ""
    # a word that starts with - and a letter is still an option: -inf needs its = form
    argv = ["sphere", "snapshot", "--ua", on_sphere, "--ualpha", on_sphere, "--m", "3", "--alpha", "-inf"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.endswith("error: argument --alpha: expected one argument\n")


def test_time_flag_pairs_are_exclusive_and_required(capsys):
    # giving both spellings of a time used to run on one of them, giving neither was a domain error (exit 1)
    pairs = [
        (["sphere", "evolve", "--f0", "a.json", "--g", "b.json"], ["--t", "0.5"], ["--t-pi", "1/3"]),
        (["sphere", "solve", "--f0", "a.json", "--falpha", "b.json"], ["--alpha", "0.5"], ["--alpha-pi", "1/3"]),
        (["sphere", "margin", "--n", "3"], ["--alpha", "0.5"], ["--alpha-pi", "1/3"]),
        (["wave", "three-solve", "--f0", "a.json", "--f1", "b.json", "--falpha", "c.json"],
         ["--alpha", "0.5"], ["--alpha-frac", "1/3"]),
    ]
    for verb, radians, exact in pairs:
        for argv in (verb + radians + exact, verb):
            assert cli.run(argv) == 2, argv
            assert capsys.readouterr().err.startswith("usage:"), argv


def test_exact_times_past_the_float_range_name_their_flag(one_mode_files, capsys):
    # were a bare "integer division result too large for a float" (as_radians) or "int too large to convert
    # to float" (the Bezout solve's P times its step 1/Q), exit 1, naming neither the flag nor the time;
    # pi 10^308 is inf without an exception: evolve was "symbol S'[inf] failed at lambda=1.0", exit 1,
    # and solve an Obstructed report, exit 0
    flat, on_sphere, out = one_mode_files
    huge = f"{10**400}/1"
    cases = [
        (["sphere", verb, "--f0", on_sphere, files, on_sphere, flag, time],
         f"{flag}: time {time} pi leaves the float range")
        for time in (huge, f"{10**308}/1")
        for verb, files, flag in (("evolve", "--g", "--t-pi"), ("solve", "--falpha", "--alpha-pi"))
    ]
    cases.append((["wave", "three-solve", "--f0", flat, "--f1", flat, "--falpha", flat, "--alpha-frac", huge],
                  f"--alpha-frac: time {huge} leaves the float range: its P or Q is past 1.8e308"))
    for argv, message in cases:
        assert cli.run([*argv, "--out", str(out)]) == 2, argv[:2]
        err = capsys.readouterr().err
        assert err.startswith("usage:") and err.endswith(f" error: argument {message}\n"), err
        assert not out.exists()
    # the margin scan reads the same time exactly, and keeps its output
    assert cli.run(["sphere", "margin", "--alpha-pi", huge, "--n", "3", "--max-degree", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["alpha"], doc["max_degree"]) == (huge, 100)


def test_an_exact_sine_that_underflows_is_an_invalid_time(one_mode_files, capsys):
    # sin(pi/10^400) is nonzero but 0.0 as a float: the solve was "complex division by zero", the margin
    # a false exact zero (C = 0.0, exit 0) and smallden "math domain error"
    _, on_sphere, out = one_mode_files
    tiny = f"1/{10**400}"
    message = f"time {tiny} pi: a nonzero sine underflows to 0.0, which would read as an exact zero"
    for argv in (
        ["sphere", "solve", "--f0", on_sphere, "--falpha", on_sphere, "--alpha-pi", tiny],
        ["sphere", "margin", f"--alpha-pi={tiny}", "--n", "3", "--max-degree", "100"],
        ["dio", "smallden", "--number", f"rational:{tiny}", "--count", "10"],
    ):
        assert_names_flag(capsys, argv, out, message)
    # a subnormal sine is no zero, and evolving to the tiny time takes no sine of it
    assert cli.run(["sphere", "margin", f"--alpha-pi=1/{10**320}", "--n", "3", "--max-degree", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["C"], doc["passes"]) == (3.142e-320, True)
    assert cli.run(["sphere", "evolve", "--f0", on_sphere, "--g", on_sphere, "--t-pi", tiny, "--out", str(out)]) == 0


def test_size_flags_are_bounded_from_above(one_mode_files, capsys):
    # each built a list of its length first: 10^9 asked for tens of GB
    _, on_sphere, out = one_mode_files
    over = str(cli.COUNT_MAX + 1)
    huygens = ["sphere", "huygens", "--f0", on_sphere, "--g", on_sphere]
    for argv, flag in (
        (["wave", "symbol", "--kind", "S", "--count", over], "--count"),
        (["dio", "sdprobe", "--samples", over], "--samples"),
        (huygens + ["--t-count", over], "--t-count"),
        (huygens + ["--c-count", over], "--c-count"),
    ):
        assert_names_flag(capsys, argv, out, f"{flag} must be at most {cli.COUNT_MAX}, got {over}")


def test_every_field_verb_checks_the_kind_of_every_file(tmp_path, capsys):
    """For each verb row with field-file flags, a file of the other kind at
    each flag in turn is exit 1, named by its kind and the verb group's; the
    rows come from `cli.VERBS`, so a row added later is covered unlisted."""
    flat, on_sphere = str(tmp_path / "flat.json"), str(tmp_path / "sphere.json")
    save_field(field(1, [((3.0,), 1.0)]), flat)
    save_sphere_field(sphere_field(3, [(1, 1, 1.0)]), on_sphere)
    kinds = {
        "wave": (flat, on_sphere, "sphere field", "flat field"),
        "sphere": (on_sphere, flat, "flat field", "sphere field"),
    }
    values = {int: "2", float: "0.5"}  # the files are read before any other flag's value is used
    checked = set()
    for command, group, (_, files, flags) in _verb_rows():
        if not files:
            continue
        right, wrong, holds, reads = kinds[group]
        required = []
        for spelling, kw in flags:
            if isinstance(spelling, tuple):  # a float/exact time pair: its float spelling
                required += [spelling[0], "0.5"]
            elif kw.get("required"):
                required += [spelling, values[kw["type"]]]
        spellings = [flag if isinstance(flag, str) else flag[0] for flag in files]
        for odd in spellings:
            argv = [*command.split(), *required]
            for spelling in spellings:
                argv += [spelling, wrong if spelling == odd else right]
            assert cli.run(argv) == 1, argv
            message = f"{wrong} holds a {holds}; {group} verbs read a {reads}"
            assert capsys.readouterr().err == f"wavesnap: error: {message}\n", argv
            checked.add(command)
    assert {command.split()[0] for command in checked} == set(kinds), checked


TOP_HELP = """usage: wavesnap [-h] [--version] {wave,dio,sphere,reproduce} ...

Command-line front end.

positional arguments:
  {wave,dio,sphere,reproduce}
    wave                Euclidean evolution, snapshots, and solvers
    dio                 Diophantine toolkit
    sphere              waves on the round sphere
    reproduce           run an acceptance experiment bundle

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out == TOP_HELP


SOLVE_VERBS_WITHOUT_NUMPY = r"""
import math, os, sys
from wavesnap import cli
from wavesnap.fields import field, save_field
from wavesnap.snapshots import CauchyData, evolve
from wavesnap.sphere import sphere_field

d = sys.argv[1]
flat = CauchyData(field(2, [((0.9, 0.2), 1.0), ((math.pi, 0.0), 0.5j), ((2.2, -1.0), 1j)]),
                  field(2, [((0.9, 0.2), 0.5), ((2.2, -1.0), -1.0)]))
on_sphere = CauchyData(sphere_field(3, [(0, 1, 1.0), (2, 3, 0.5j)]), sphere_field(3, [(1, 2, 1.0), (2, 3, -1.0)]))
files = {"f0": flat.position, "g": flat.velocity, "s0": on_sphere.position, "sg": on_sphere.velocity,
         "salpha": evolve(on_sphere, 0.7), **{f"f{t}": evolve(flat, t) for t in (1, 2, 3)}, "f2_3": evolve(flat, 2 / 3)}
for name, f in files.items():
    save_field(f, os.path.join(d, name + ".json"))
p = {name: os.path.join(d, name + ".json") for name in files}
runs = [
    ["wave", "evolve", "--field", p["f0"], "--velocity", p["g"], "--t", "0.5"],
    ["wave", "snapshot", "--ua", p["f0"], "--ub", p["f1"], "--m", "5"],
    ["wave", "two-solve", "--f0", p["f0"], "--f1", p["f1"]],
    ["wave", "compat", "--f0", p["f0"], "--f1", p["f1"], "--falpha", p["f2_3"], "--alpha", str(2 / 3)],
    ["wave", "three-solve", "--f0", p["f0"], "--f1", p["f1"], "--falpha", p["f2_3"], "--alpha-frac", "2/3"],
    ["wave", "rational-solve", "--f0", p["f0"], "--fp", p["f2"], "--fq", p["f3"], "--p", "2", "--q", "3"],
    ["sphere", "evolve", "--f0", p["s0"], "--g", p["sg"], "--t", "0.7"],
    ["sphere", "snapshot", "--ua", p["s0"], "--ualpha", p["salpha"], "--alpha", "0.7", "--m", "4"],
    ["sphere", "solve", "--f0", p["s0"], "--falpha", p["salpha"], "--alpha", "0.7"],
]
codes = [cli.run(argv + ["--out", os.path.join(d, "out.json")]) for argv in runs]
print(codes, *(name in sys.modules for name in ("numpy", "mpmath", "wavesnap.diophantine", "wavesnap.experiments")))
code = cli.run(["dio", "cfrac", "--value", "355/113", "--out", os.path.join(d, "out.json")])
print(code, *(name in sys.modules for name in ("wavesnap.diophantine", "wavesnap.experiments")))
"""


def test_solve_verbs_leave_numpy_unloaded(tmp_path):
    # the field verbs run in plain floats: numpy's import would add ~10 MB to their
    # peak memory, and mpmath's (which no verb needs) a few more;
    # nor do they run the Diophantine toolkit or the experiments, each compiled
    # from source at every cold start where no bytecode is written, and a dio verb
    # runs no experiment
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", SOLVE_VERBS_WITHOUT_NUMPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    expected = ["[0,", "0,", "0,", "0,", "0,", "0,", "0,", "0,", "0]", "False", "False", "False", "False"]
    expected += ["0", "True", "False"]
    assert done.stdout.split() == expected, done.stdout + done.stderr


NO_VERB_LOADS_MPMATH = r"""
import os, sys
from wavesnap import cli

out = os.path.join(sys.argv[1], "out")
runs = [
    ["reproduce", "all", "--seed", "1"],
    ["wave", "liouville-demo", "--kmax", "6"],
    ["dio", "oddtype", "--qmax", "200"],
    ["dio", "smallden", "--number", "golden", "--count", "100"],
    ["dio", "jointbound", "--xmax", "100"],
    ["sphere", "classify", "--number", "sqrt2", "--n", "2"],
    ["sphere", "margin", "--alpha-pi", "19/10", "--n", "2", "--max-degree", "1000"],
]
codes = [cli.run(argv + ["--out", out]) for argv in runs]
print(codes, "mpmath" in sys.modules)
"""


def test_no_verb_loads_mpmath(tmp_path):
    # the Liouville demo computes its display strings with the standard library's
    # decimal, which fractions loads anyway: importing mpmath would add about 3.7 MB
    # to the peak memory of `reproduce all` and a few MB to the dio and sphere scans
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", NO_VERB_LOADS_MPMATH, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] False", done.stdout + done.stderr


EACH_MODULE_ALONE = r"""
import importlib, sys

def purge():
    for name in [name for name in sys.modules if name == "wavesnap" or name.startswith("wavesnap.")]:
        del sys.modules[name]

for module in ("fields", "propagators", "diophantine", "snapshots", "sphere", "experiments", "cli"):
    purge()
    importlib.import_module("wavesnap." + module)
    assert "numpy" not in sys.modules and "mpmath" not in sys.modules, module
purge()
import wavesnap
print(wavesnap.__version__, sorted(name for name in sys.modules if name.startswith("wavesnap")))
"""


def test_each_submodule_imports_alone():
    # `import wavesnap` defines only __version__, so no submodule may lean on
    # another having been imported first, and none may pull in numpy or mpmath
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, "-c", EACH_MODULE_ALONE],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert done.stdout.split() == [version, "['wavesnap']"], done.stdout


def test_parser_reuse_is_stateless(tmp_path, capsys, monkeypatch):
    # one process, one parser: each call writes what it writes first in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    data = CauchyData(field(1, [((0.9,), 1.0), ((2.2,), 1j)]), field(1, [((0.9,), 0.5), ((2.2,), -1.0)]))
    paths = {}
    for name, t in (("f0", 0.0), ("f1", 1.0), ("fa", 2 / 3), ("fb", 1.41)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_field(evolve(data, t), paths[name])
    on_sphere = CauchyData(sphere_field(3, [(0, 1, 1.0), (2, 3, 0.5j)]), sphere_field(3, [(2, 3, -1.0)]))
    for name, f in (("s0", on_sphere.position), ("sa", evolve(on_sphere, Fraction(1, 3)))):
        paths[name] = str(tmp_path / f"{name}.json")
        save_sphere_field(f, paths[name])
    three = ["wave", "three-solve", "--f0", paths["f0"], "--f1", paths["f1"]]
    runs = [
        three + ["--falpha", paths["fa"], "--alpha-frac", "2/3"],
        three + ["--falpha", paths["fb"], "--alpha", "1.41"],
        ["wave", "three-solve", "--f0", paths["f0"], "--alpha", "1.41"],
        ["sphere", "solve", "--f0", paths["s0"], "--falpha", paths["sa"], "--alpha-pi", "1/3"],
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for argv, want_code in zip(runs, (0, 0, 2, 0)):
        code = cli.run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "wavesnap", *argv],
            env={**os.environ, "PYTHONPATH": src, "COLUMNS": "80"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr) and code == want_code, argv
