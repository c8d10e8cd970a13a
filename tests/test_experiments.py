"""The recursion experiment's residuals, against the field-by-field loop it
replaces, and the negative controls of the experiments' gates: each makes
its gate fail and name the failing check, without an exception."""

import dataclasses
import itertools
import random

import pytest

from wavesnap import diophantine, experiments, propagators, snapshots, sphere
from wavesnap.fields import MultiplierSymbol, apply_multiplier, field, linear_combine, union_columns
from wavesnap.propagators import symbol_Sprime
from wavesnap.snapshots import CauchyData

from references import evolve_series, max_abs_amp, snapshot_series, subtract


def reference_trial(data, a, b):
    """One trial as a residual field per m: `subtract` for the closed form
    and the general step, `linear_combine` of `apply_multiplier` for the
    three-term recursion, each field's largest amplitude taken."""
    snaps = dict(zip(range(-21, 22), evolve_series(data, [float(m) for m in range(-21, 22)])))
    closed = snapshot_series(data.position, snaps[1], 0.0, 1.0, range(-20, 21))
    worst_closed = 0.0
    for m, via in zip(range(-20, 21), closed):
        worst_closed = max(worst_closed, max_abs_amp(subtract(via, snaps[m])))
    cos1 = symbol_Sprime(1.0)
    worst_recur = 0.0
    for m in range(-20, 20):
        residual = linear_combine([1.0, 1.0, -2.0], [snaps[m + 2], snaps[m], apply_multiplier(snaps[m + 1], cos1)])
        worst_recur = max(worst_recur, max_abs_amp(residual))
    ua, ub, *direct = evolve_series(data, [a, b] + [a + m * (b - a) for m in range(-8, 9)])
    worst_general = 0.0
    for via, want in zip(snapshot_series(ua, ub, a, b, range(-8, 9)), direct):
        worst_general = max(worst_general, max_abs_amp(subtract(via, want)))
    return worst_closed, worst_general, worst_recur


def reference_residuals(seed):
    rng = random.Random(seed)
    worst = (0.0, 0.0, 0.0)
    for _ in range(100):
        a = rng.uniform(0.0, 1.0)
        b = a + rng.uniform(0.3, 1.2)
        steps = (1.0, b - a)
        dim = rng.randint(1, 3)
        u0 = experiments._random_field(rng, dim, rng.randint(4, 16), steps)
        g = experiments._random_field(rng, dim, rng.randint(4, 16), steps)
        worst = tuple(map(max, worst, reference_trial(CauchyData(u0, g), a, b)))
    return worst


def hexes(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("seed", range(4))
def test_recursion_residuals_match_field_reference(seed):
    assert hexes(experiments.recursion_residuals(seed)) == hexes(reference_residuals(seed))


def rows_drop_keys_cases():
    """Three trials (data, a, b) whose rows drop keys, in dimensions 2 and 1."""
    # a position-only, a velocity-only, a shared and a zero-frequency key
    u0 = field(2, [((0.6, 0.8), 0.3 - 0.2j), ((1.5, -2.0), 0.7j), ((0.0, 0.0), -0.4)])
    g = field(2, [((0.6, 0.8), 0.5), ((-2.2, 0.1), 1.0 + 0.25j), ((0.0, 0.0), 0.9j)])
    a, b = 0.25, 1.1
    return [
        (CauchyData(u0, g), a, b),
        # a trial whose data share no key at all
        (CauchyData(field(1, [((1.3,), 1.0)]), field(1, [((2.9,), -1j)])), a, b),
        # a velocity-only amplitude that underflows at t = 1, a and b: u_1, u_a and u_b
        # drop its key, so both snapshot grids are narrower than the evolve grid
        (CauchyData(u0, field(2, [((0.6, 0.8), 0.5), ((-2.2, 0.1), 5e-324)])), a, b),
    ]


def test_recursion_trial_matches_reference_where_rows_drop_keys():
    (data, a, b), _, (underflow, _, _) = trials = rows_drop_keys_cases()
    u0, g = data.position, data.velocity
    keys = union_columns((u0, g))[0]
    # the rows the residuals read drop keys: u_0 and the closed form at m = 0
    # have no velocity-only key, the general step at m = 0 is u_a
    assert snapshots.evolve(data, 0.0).keys == u0.keys != keys
    assert snapshots.general_integer_snapshot(u0, snapshots.evolve(data, 1.0), 0.0, 1.0, 0).keys == u0.keys
    assert snapshots.evolve(underflow, 1.0).keys == snapshots.evolve(underflow, a).keys == u0.keys
    for trial in trials:
        assert hexes(experiments.recursion_trials([trial])) == hexes(reference_trial(*trial))


def test_recursion_batch_is_the_max_of_its_trials_in_any_order():
    # dim 2 with dropped keys, dim 1 with disjoint keys and the underflowing velocity, side by side,
    # and the same three at a step b - a of their own
    trials = rows_drop_keys_cases()
    trials += [(data, a + 0.125 * k, b + 0.25 * k) for k, (data, a, b) in enumerate(trials, 1)]
    residuals = [reference_trial(*trial) for trial in trials]
    for order in itertools.permutations(range(3)):
        for batch in (list(order), [*order, 3, 4, 5]):
            want = [max(column) for column in zip(*(residuals[i] for i in batch))]
            assert hexes(experiments.recursion_trials([trials[i] for i in batch])) == hexes(want)


def nudged(grid, row, column):
    """A copy of a grid with the real part of one amplitude in `row` and `column` moved by 1e-9."""
    keys, freqs, re, im = grid
    re = re.copy()
    re[row, column] += 1e-9
    return keys, freqs, re, im


@pytest.mark.parametrize("which", ["closed-form", "general step", "three-term"])
def test_recursion_gate_fails_on_a_perturbed_amplitude(monkeypatch, which):
    # column 0 is the first trial's first key, column -1 the last trial's last key
    snapshot_grid_columns, evolve_grid = snapshots.snapshot_grid_columns, snapshots.evolve_grid
    residuals = experiments.recursion_residuals

    def nudged_snapshot_grid_columns(s, freqs, x, y, ms):
        grid = (None, None, *snapshot_grid_columns(s, freqs, x, y, ms))
        if which == ("closed-form" if len(ms) == 41 else "general step"):  # |m| <= 20 or |m| <= 8
            grid = nudged(grid, len(grid[2]) // 2, column)
        return grid[2:]

    def nudged_evolve_grid(data, times):
        grid = evolve_grid(data, times)
        if which == "three-term":
            # u_21 enters only the three-term residual at m = 19
            grid = nudged(grid, times[0].index(21.0), column)
        return grid

    seen = []

    def recursion_residuals(seed):
        seen.append(residuals(seed))
        return seen[-1]

    monkeypatch.setattr(snapshots, "snapshot_grid_columns", nudged_snapshot_grid_columns)
    monkeypatch.setattr(snapshots, "evolve_grid", nudged_evolve_grid)
    monkeypatch.setattr(experiments, "recursion_residuals", recursion_residuals)
    for column in (0, -1):
        r = experiments.recursion_roundtrip(seed=1)
        assert not r["passed"], (column, r["details"])
        closed, general, recur = seen[-1]
        assert (closed > 1e-10, general > 1e-10, recur > 1e-11) == (
            which == "closed-form",
            which == "general step",
            which == "three-term",
        ), column
    assert len(seen) == 2


def value(details, label):
    """The number that follows `label`, and a colon if there is one, in an experiment's details."""
    return float(details.split(label)[1].lstrip(":").split()[0].rstrip(";,"))


def test_identities_gate_fails_on_a_perturbed_psi(monkeypatch):
    psi_grid = propagators.psi_grid
    monkeypatch.setattr(propagators, "psi_grid", lambda ms, us: psi_grid(ms, us) * (1 + 1e-9))
    r = experiments.identity_suite(seed=0)
    assert r["passed"] is False
    assert value(r["details"], "product rule") > 1e-10
    assert value(r["details"], "snapshot-pair symmetry") > 1e-10


def test_rational_gate_fails_on_a_nudged_solution(monkeypatch):
    solve = snapshots.rational_reconstruct

    def nudged_solve(*args):
        rep = solve(*args)
        if rep.solution is None:  # the violating data, rejected
            return rep
        amps = (rep.solution.amps[0] + 1e-6, *rep.solution.amps[1:])
        return dataclasses.replace(rep, solution=dataclasses.replace(rep.solution, amps=amps))

    monkeypatch.setattr(snapshots, "rational_reconstruct", nudged_solve)
    r = experiments.rational_reconstruction_suite(seed=0)
    assert r["passed"] is False
    assert value(r["details"], "worst err/tol") > 1.0
    # the other two checks still pass: the post-check is the solver's own, before the nudge
    assert value(r["details"], "post-verified residual") <= 1e-9
    assert r["details"].endswith("violating data rejected: True")


def banded_sine(t):
    """The sine symbol S_t, set to zero for lam in [100, 200]."""
    sine = propagators.symbol_S(t)
    return MultiplierSymbol(sine.label, lambda lam: 0.0 if 100.0 <= lam <= 200.0 else sine.fn(lam))


def test_sdprobe_gate_fails_on_a_zero_band_and_names_its_windows(monkeypatch):
    monkeypatch.setattr(experiments, "symbol_S", banded_sine)
    r = experiments.slow_decrease_suite(seed=0)
    assert r["passed"] is False
    rows = diophantine.slowly_decreasing_probe(banded_sine(1.0), 4.0, 1e3, samples=512)
    missed = [f"{row.xi:.6g}" for row in rows if not row.ok]
    assert missed and all(100.0 < float(xi) < 200.0 for xi in missed)
    want = f"sine symbol: 512 windows, {len(missed)} unwitnessed, at xi = {', '.join(missed)}; zero symbol: all 32 fail"
    assert r["details"] == want
    assert "all witnessed" not in r["details"]


@pytest.mark.parametrize("defect", ["uncertified", "no exhaustion"])
def test_liouville_gate_names_what_failed(monkeypatch, defect):
    demo = snapshots.liouville_obstruction_demo

    def broken_demo(k_max):
        if k_max == 7 and defect == "no exhaustion":
            return demo(6)
        rows = demo(k_max)
        return tuple(dataclasses.replace(row, certified=False) if row.k == 3 and defect == "uncertified" else row
                     for row in rows)

    monkeypatch.setattr(snapshots, "liouville_obstruction_demo", broken_demo)
    r = experiments.liouville_demo_certified()
    assert r["passed"] is False
    if defect == "uncertified":
        assert "not certified > 1 at k=3; k=7 raises PrecisionExhausted" in r["details"]
    else:
        assert "all certified > 1 up to k=6; k=7 does not raise PrecisionExhausted" in r["details"]


def obstructed(solve):
    """`solve`, its reports made Obstructed: no solution, the rest as the solver gave it."""
    return lambda *args, **kwargs: dataclasses.replace(
        solve(*args, **kwargs), status=snapshots.STATUS_OBSTRUCTED, solution=None
    )


@pytest.mark.parametrize(
    "suite, module, solver, failing",
    [
        ("three_snapshot_suite", snapshots, "three_snapshot_solve",
         ["alpha=1.414214: worst err/tol inf", "status=Obstructed, off-kernel err inf"]),
        ("sphere_suite", sphere, "sphere_two_snapshot_solve", ["solver round trip err/tol: inf"]),
    ],
    ids=["three-snapshot", "sphere"],
)
def test_an_obstructed_solve_fails_its_gate_without_raising(monkeypatch, suite, module, solver, failing):
    # both suites read the solution of each report they judge: an Obstructed one ended in AttributeError
    monkeypatch.setattr(module, solver, obstructed(getattr(module, solver)))
    r = getattr(experiments, suite)(seed=1)
    assert r["passed"] is False
    for check in failing:
        assert check in r["details"], r["details"]


def test_oddtype_gate_fails_on_the_ternary_series(monkeypatch):
    # sum 3^(-j!) has an odd q = 3^6 = 729 at margin ratio 1.0, not above q^(-3); the base-10 series
    # would not do as a control: its least ratio is 7604.3, at q = 91
    truncation = diophantine.liouville_truncation
    monkeypatch.setattr(diophantine, "liouville_truncation", lambda base, coeffs, depth: truncation(3, coeffs, depth))
    r = experiments.odd_type_margins()
    assert r["passed"] is False
    assert r["details"].endswith("min margin ratio 1.0 at q=729; violations: 1"), r["details"]
