import json
import math
from fractions import Fraction

import pytest

from wavesnap import cli, diophantine as dio
from wavesnap.fields import field, save_field
from wavesnap.sphere import save_sphere_field, sphere_field


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
    assert doc["status"] == "IncompatibleData"
    assert doc["residual"] > 1e-9
    assert doc["solution"] is None


def test_liouville_demo_csv_shape(tmp_path):
    out = tmp_path / "demo.csv"
    assert cli.run(["wave", "liouville-demo", "--kmax", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert header[0] == "# wavesnap 0.1.0"
    assert any("verb: wave liouville-demo" in ln for ln in header)
    assert any("seed: 0" in ln for ln in header)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "k,q_k,sin_abs,amplitude"
    assert body[1].startswith("1,10,")
    assert body[3].startswith("3,1000000,")


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


def test_reproduce_suite(capsys):
    assert cli.run(["reproduce", "sdprobe"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS sdprobe:")


def test_exit_codes(tmp_path, capsys):
    assert cli.run(["no-such-group"]) == 2
    assert cli.run(["wave", "no-such-verb"]) == 2
    assert cli.run(["reproduce", "no-such-suite"]) == 2
    capsys.readouterr()
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
    # usage error: malformed fraction
    assert cli.run(["dio", "cfrac", "--value", "abc"]) == 2


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "wave" in capsys.readouterr().out
