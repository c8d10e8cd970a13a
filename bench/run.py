"""wavesnap benchmark: seeded workloads run through the real CLI entry point.

Usage (from the repository root, nothing installed):

    python3 bench/run.py --workload {reproduce,bigfield,exactscan} --seed N --seconds S --trace {0,1}

One client sends one request at a time (closed loop, in process, no threads).
With --trace 0 the run measures set-up time, the median time of a verified
pass, and peak memory; pass and set-up times are divided by reference work
timed next to them, which cancels drift in machine speed (see README.md), and
the raw seconds are reported beside them.  With --trace 1 it replays every workload's
requests as the library calls they make, under spans, and reports per-layer
self times, counts, and the tracing overhead.  Every output is checked.
Human-readable lines go first; the last line of stdout is one JSON object
with the metrics listed in BENCHMARK.json.  A fuller record, with the
environment, input digests and per-request output digests, is written to
bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
# The reference cold start (setup_probe.py --reference) took about this long
# on the development box; setup_s is the set-up time scaled to that speed.
COLD_REFERENCE_S = 0.1


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    direct = _read(str(ROOT / ".git" / ref))
    if direct:
        return direct.strip()
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(loadavg: str | None) -> dict:
    import mpmath
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": loadavg.split()[:3] if loadavg else None,
    }


@dataclass
class Outcome:
    seconds: float
    error: str | None
    sha256: str | None = None
    nbytes: int = 0


def run_request(req, tracer=None) -> Outcome:
    """Run one request through cli.run, then check its output off the clock."""
    from wavesnap import cli
    from workloads import CheckFailed

    if os.path.exists(req.out):
        os.unlink(req.out)
    gc.collect()
    captured = io.StringIO()
    span = tracer.span("cli." + req.name) if tracer is not None else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), span:
            code = cli.run(req.argv)
    except Exception as exc:  # a traceback out of the program is a failed request
        code = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if code != 0:
        return Outcome(seconds, f"exit status {code}")
    try:
        data = Path(req.out).read_bytes()
    except OSError as exc:
        return Outcome(seconds, f"no output file: {exc}")
    try:
        req.check(data.decode("utf-8"))
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return Outcome(seconds, f"check failed: {type(exc).__name__}: {exc}")
    data += captured.getvalue().encode("utf-8")
    return Outcome(seconds, None, hashlib.sha256(data).hexdigest(), len(data))


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work, about 50 ms on the development box."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(90_000):
        x = (i * 2654435761) % 1000003
        table[x & 1023] = table.get(x & 1023, 0) + x
        acc += len(str(x))
    return perf_counter() - t0


class Runner:
    """Counts attempts and failures; remembers each request's first output
    digest so later passes must reproduce it byte for byte."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.reference: dict[str, str] = {}
        self.bytes_out: dict[str, int] = {}
        self.pass_log: list[dict] = []

    def request(self, req, tracer=None) -> Outcome:
        out = run_request(req, tracer)
        self.attempted += 1
        if out.error is None:
            ref = self.reference.setdefault(req.name, out.sha256)
            self.bytes_out[req.name] = out.nbytes
            if ref != out.sha256:
                out.error = "output bytes differ from the first pass"
        if out.error is not None:
            self.failures.append((req.name, out.error))
            print(f"FAIL {req.name}: {out.error}", file=sys.stderr)
        return out

    def run_pass(self, requests, tracer=None) -> tuple[float, bool, float]:
        """(seconds, all verified, seconds in reference-loop units).  Each
        request is divided by the mean of the reference loops timed right
        before and after it, which cancels drift in machine speed."""
        ref = [reference_loop()]
        outs = []
        for r in requests:
            outs.append(self.request(r, tracer))
            ref.append(reference_loop())
        norm = sum(o.seconds * 2.0 / (ref[i] + ref[i + 1]) for i, o in enumerate(outs))
        self.pass_log.append({"request_s": [o.seconds for o in outs], "reference_s": ref})
        return sum(o.seconds for o in outs), all(o.error is None for o in outs), norm


def _child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_prober(builders, name: str, seed: int, work: Path, runner: Runner):
    """A function that times one cold start in a fresh child process and
    one reference cold start right after it (see setup_probe.py), and
    returns both in seconds."""
    tiny = work / "setup"
    tiny.mkdir()
    wl = builders[name](seed, str(tiny), tiny=True)
    argv_file = tiny / "argv.json"
    argv_file.write_text(json.dumps([r.argv for r in wl.requests]), encoding="utf-8")

    def probe() -> tuple[float, float]:
        res = _child(str(argv_file), str(SRC))
        for req, code in zip(wl.requests, res["exit_codes"]):
            runner.attempted += 1
            if code != 0:
                runner.failures.append((f"setup:{req.name}", f"exit status {code}"))
        return res["seconds"], _child("--reference")["seconds"]

    return probe


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, if any."""
    if len(samples) < 20:
        return None
    k = len(samples) - 11
    return 100.0 * (k + 1) / len(samples), sorted(samples)[k]


def untraced(args, builders, work: Path, runner: Runner) -> tuple[dict, dict]:
    wl = builders[args.workload](args.seed, str(work))
    probe = setup_prober(builders, args.workload, args.seed, work, runner)
    setups = [probe()]
    runner.run_pass(wl.requests)  # warm-up; its outputs are the byte reference
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(runner.run_pass(wl.requests))
        setups.append(probe())  # spread over the run, so one slow spell cannot set the median
    while len(setups) < SETUP_RUNS:
        setups.append(probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verified = [p for p in passes if p[1]] or passes
    metrics = {
        "pass_ref": statistics.median(p[2] for p in verified),
        "setup_s": COLD_REFERENCE_S * statistics.median(s / r for s, r in setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {"inputs": wl.inputs, "pass_s": statistics.median(p[0] for p in verified),
              "pass_times_s": [p[0] for p in passes],
              "setup_raw_s": statistics.median(s for s, _ in setups), "setup_probes_s": setups,
              "verified_passes": sum(p[1] for p in passes),
              "pass_tail_s": tail_percentile([p[0] for p in verified])}
    return metrics, detail


def traced(args, builders, work: Path, runner: Runner) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import SMALL_OP_REPS, layer_probes

    start = perf_counter()
    wls = {}
    for name, build in builders.items():
        (work / name).mkdir()
        wls[name] = build(args.seed, str(work / name))
    tr = Tracer()
    for wl in wls.values():
        for req in wl.requests:
            tr.request = req.name
            runner.request(req, tr)
            runner.attempted += 1
            with tr.span("replay." + req.name):
                try:
                    req.replay(tr)
                except Exception as exc:  # same rule as a request: record and go on
                    runner.failures.append((f"replay:{req.name}", f"{type(exc).__name__}: {exc}"))
    tr.request = "probes"
    with tr.span("probes"):
        layer_probes(tr, wls["bigfield"], args.seed)

    # tracing overhead: alternate untraced and traced passes of the chosen workload
    requests = wls[args.workload].requests
    pass_tracer = Tracer()
    plain, spanned = [], []
    while not plain or perf_counter() - start < args.seconds:
        order = [None, pass_tracer] if len(plain) % 2 == 0 else [pass_tracer, None]
        for t in order:
            (plain if t is None else spanned).append(runner.run_pass(requests, t)[0])

    covered = tr.child_time()
    replay_ids = {rec[5]: rec[0] for rec in tr.spans if rec[1].startswith("replay.")}
    overhead = sum((rec[3] - rec[2]) - covered[replay_ids[rec[5]]]
                   for rec in tr.spans if rec[1].startswith("cli."))
    metrics = {f"{name}_s": v for name, v in tr.self_times().items()
               if not name.startswith(("replay.", "probes"))}
    metrics["fields.small_op_s"] /= SMALL_OP_REPS
    metrics.update(tr.counts)
    metrics["cli.overhead_s"] = overhead
    metrics["cli.bytes_out"] = sum(runner.bytes_out.values())
    metrics["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)

    big = [r.name for r in wls["bigfield"].requests]
    big_cli = sum(tr.durations(f"cli.{n}")[0] for n in big)
    big_layers = sum(covered[replay_ids[n]] for n in big)
    detail = {
        "inputs": {n: wl.inputs for n, wl in wls.items()},
        "untraced_pass_s": plain,
        "traced_pass_s": spanned,
        "bigfield_layer_share": big_layers / big_cli,
        "spans": tr.spans,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = _read("/proc/loadavg")

    if not (SRC / "wavesnap" / "__init__.py").is_file():
        print(f"bench: no wavesnap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    import wavesnap

    if Path(wavesnap.__file__).resolve().parent != SRC / "wavesnap":
        print(f"bench: imported wavesnap from {wavesnap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import BUILDERS

    work = BENCH / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner()
    try:
        measure = traced if args.trace else untraced
        metrics, detail = measure(args, BUILDERS, work, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_share = len(runner.failures) / runner.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(loadavg), "request_sha256": runner.reference,
        "attempted": runner.attempted, "failures": runner.failures, "fail_share": fail_share,
        "pass_log": runner.pass_log,
        "metrics": report, **detail,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    for name, m in report.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_share = {fail_share:.6g} ({len(runner.failures)} failed of {runner.attempted} attempted)")
    for key, unit in (("pass_s", " s"), ("setup_raw_s", " s"), ("pass_tail_s", ""), ("verified_passes", ""), ("bigfield_layer_share", "")):
        if detail.get(key) is not None:
            print(f"{key} = {detail[key]}{unit}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
