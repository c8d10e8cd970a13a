"""Self-test of the benchmark's output checks: wrong answers must count as failures.

Usage (from the repository root): python3 bench/selftest.py

Runs small versions of the workload requests through the real CLI, then
shows that the checker rejects a tampered output file, a changed output
byte stream, and the Obstructed report that a perturbed falpha input
produces.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import BENCH, SRC, Runner, run_request


def _tamper_json(path: str, edit) -> str:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import CheckFailed, build_bigfield, build_exactscan, build_reproduce

    work = BENCH / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    results: list[tuple[str, bool]] = []

    def rejects(label: str, check, text: str) -> None:
        try:
            check(text)
        except (CheckFailed, KeyError, TypeError, ValueError):
            results.append((label, True))
        else:
            results.append((label, False))

    try:
        big = build_bigfield(7, str(work), n_modes=200)
        exact = build_exactscan(7, str(work), tiny=True)
        repro = build_reproduce(7, str(work), tiny=True)
        runner = Runner()
        runner.run_pass(big.requests + exact.requests + repro.requests)
        results.append(("genuine outputs pass every check", not runner.failures))
        reqs = {r.name: r for r in big.requests + exact.requests + repro.requests}

        three = reqs["wave_three_solve"]

        def bump_amp(doc):
            doc["solution"]["modes"][0]["amp"][0] += 1e-3

        rejects("tampered three-solve amplitude", three.check, _tamper_json(three.out, bump_amp))
        rejects("tampered three-solve status", three.check,
                _tamper_json(three.out, lambda d: d.update(status="NonUniqueKernel")))
        ev = reqs["wave_evolve"]
        rejects("evolve output missing a mode", ev.check, _tamper_json(ev.out, lambda d: d["modes"].pop()))
        rejects("oddtype reporting a violation", reqs["dio_oddtype"].check,
                _tamper_json(reqs["dio_oddtype"].out, lambda d: d.update(passes=False, violations=[65])))
        margin = reqs["sphere_margin_exact"]
        rejects("margin disagreeing with classify_alpha", margin.check,
                _tamper_json(margin.out, lambda d: d.update(passes=False, C=0.0)))
        liou = reqs["wave_liouville_demo"]
        rejects("uncertified liouville table", liou.check,
                Path(liou.out).read_text(encoding="utf-8").replace("certified: True", "certified: False"))
        rejects("a FAIL in reproduce", repro.requests[0].check,
                _tamper_json(repro.requests[0].out, lambda d: d["results"][0].update(passed=False)))

        runner.reference[three.name] = "0" * 64
        out = runner.request(three)
        results.append(("changed output bytes are a failure", out.error is not None and "differ" in out.error))

        fpath = big.paths["fsqrt2"]
        doc = json.loads(Path(fpath).read_text(encoding="utf-8"))
        doc["modes"][10]["amp"][0] += 1e-3
        Path(fpath).write_text(json.dumps(doc), encoding="utf-8")
        out = run_request(three)
        status = json.loads(Path(three.out).read_text(encoding="utf-8"))["status"]
        results.append((f"perturbed falpha comes back Obstructed (got {status}) and is flagged",
                        status == "Obstructed" and out.error is not None))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    failed = sum(not ok for _, ok in results)
    print(f"selftest: {len(results) - failed} of {len(results)} expectations hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
