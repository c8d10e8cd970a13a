"""Before/after benchmark pairs: run two checkouts' bench/run.py alternately.

Usage (from any directory):

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload exactscan --seed 1 --pairs 10 --seconds 25 --out BENCH_12.json

Both trees are first copied into one temporary directory, as parent/ and
change/, leaving out .git, every __pycache__, bench/results and bench/.work,
and each run happens in its copy: the set-up time and the peak memory move
with the length of the checkout's path, so both sides get paths of one
length.  Each pair runs
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` once in
each copy, the parent first on even-numbered pairs (counting from 0) and the
change first on odd ones.  Every run starts in the same bytecode state:
PYTHONDONTWRITEBYTECODE=1 in copies that hold no __pycache__, so each process
compiles the package from source.

The summary goes into --out, in the shape of the earlier BENCH_<pr>.json
files: per workload and seed, the median and the quartiles (inclusive
method) of each side for every end-to-end metric, the number of pairs in
which the change reads lower, each request's median time in reference-loop
units, whether the per-request output digests (`request_sha256`) match
between the trees, and the names of the requests whose digests differ.  A metric's `claim_met` is true when the change reads
lower in at least nine tenths of the pairs (ties count for neither) and its
median is lower than the parent's by more than the distance between the
parent's quartiles.  An existing --out file is
updated: other workloads' entries and its notes are kept.  Seed 1 is stored
under the workload's name, any other seed under "<workload>-seed<S>".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

METRICS = ("pass_ref", "setup_s", "peak_rss_mb")
LEFT_OUT = {".git", "bench/results", "bench/.work"}  # paths from the tree's root; and every __pycache__


def copy_tree(tree: Path, dest: Path) -> None:
    """Copy `tree` to `dest`, leaving out LEFT_OUT and bytecode caches."""
    def ignore(directory: str, names: list[str]) -> set[str]:
        here = Path(directory).relative_to(tree)
        return {n for n in names if n == "__pycache__" or (here / n).as_posix() in LEFT_OUT}

    shutil.copytree(tree, dest, ignore=ignore)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`: its metrics, pass seconds and output digests."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "bench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    # each request in reference-loop units, as run.py sums them into pass_ref (warm-up pass left out)
    per_pass = [[t * 2.0 / (p["reference_s"][i] + p["reference_s"][i + 1]) for i, t in enumerate(p["request_s"])]
                for p in record["pass_log"][1:]]
    return {
        "correct": summary["correct"] and record["fail_share"] == 0,
        "metrics": {m: summary["metrics"][m]["value"] for m in METRICS},
        "pass_s": record["pass_s"],
        "reference_s": statistics.median(r for p in record["pass_log"][1:] for r in p["reference_s"]),
        "request_ref": dict(zip(record["request_sha256"], map(statistics.median, zip(*per_pass)))),
        "request_sha256": record["request_sha256"],
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(seed: int, runs: list[tuple[dict, dict]]) -> dict:
    metrics = {}
    for m in METRICS:
        parent = [p["metrics"][m] for p, _ in runs]
        change = [c["metrics"][m] for _, c in runs]
        pm, cm = statistics.median(parent), statistics.median(change)
        (p1, p3), lower = quartiles(parent), sum(c < p for p, c in zip(parent, change))
        metrics[m] = {
            "parent_median": round(pm, 4),
            "change_median": round(cm, 4),
            "parent_quartiles": [round(p1, 4), round(p3, 4)],
            "change_quartiles": [round(q, 4) for q in quartiles(change)],
            "change_over_parent": round(cm / pm, 4),
            "change_lower_in_pairs": lower,
            "claim_met": lower >= 0.9 * len(runs) and pm - cm > p3 - p1,
            "parent_runs": [round(v, 4) for v in parent],
            "change_runs": [round(v, 4) for v in change],
        }
    digests = {side: {json.dumps(r[i]["request_sha256"], sort_keys=True) for r in runs} for i, side in
               enumerate(("parent", "change"))}
    return {
        "seed": seed,
        "pairs": len(runs),
        "metrics": metrics,
        "pass_s_median": {
            "parent": round(statistics.median(p["pass_s"] for p, _ in runs), 4),
            "change": round(statistics.median(c["pass_s"] for _, c in runs), 4),
        },
        "reference_s_median": {
            "parent": round(statistics.median(p["reference_s"] for p, _ in runs), 5),
            "change": round(statistics.median(c["reference_s"] for _, c in runs), 5),
        },
        "request_ref_median": {
            name: {side: round(statistics.median(r[i]["request_ref"][name] for r in runs), 4)
                   for i, side in enumerate(("parent", "change"))}
            for name in runs[0][0]["request_ref"]
        },
        "request_sha256_match": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
        "request_sha256_differs": sorted({name for p, c in runs for name in p["request_sha256"].keys()
                                          | c["request_sha256"].keys()
                                          if p["request_sha256"].get(name) != c["request_sha256"].get(name)}),
        "all_runs_correct": all(p["correct"] and c["correct"] for p, c in runs),
    }


def commit_of(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to write or update")
    parser.add_argument("--note", action="append", default=[], help="a line for the notes list (repeatable)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp) / side for side in trees}
        for side, tree in trees.items():
            copy_tree(tree, copies[side])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(copies[side], args.workload, args.seed, args.seconds) for side in order}
            runs.append((pair["parent"], pair["change"]))
            p, c = (pair[s]["metrics"]["pass_ref"] for s in ("parent", "change"))
            print(f"{args.workload} seed {args.seed} pair {i}: pass_ref parent {p:.4f} change {c:.4f}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.update({
        "description": "bench/run.py --trace 0, alternating parent/change pairs (even-numbered pairs parent "
                       "first, counting from 0), each tree run from a copy under one temporary directory (parent/ "
                       "and change/), written by scripts/bench_pairs.py. Medians and quartiles "
                       "(inclusive method) of each side; change_lower_in_pairs = pairs where the change reads "
                       "lower; claim_met = lower in >= 9/10 of the pairs and the medians further apart than the "
                       "parent's quartiles; request_sha256_match = every run of both trees gave the same output "
                       "digests; request_sha256_differs = the requests whose digests differ between the trees in "
                       "some pair.",
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
        "parent_commit": commit_of(trees["parent"]),
        "change_commit": commit_of(trees["change"]) or "the commit that adds this file",
        "machine": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
    })
    doc.setdefault("notes", []).extend(args.note)
    key = args.workload if args.seed == 1 else f"{args.workload}-seed{args.seed}"
    entry = summarize(args.seed, runs)
    entry["seconds_per_run"] = args.seconds
    doc.setdefault("workloads", {})[key] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if entry["all_runs_correct"] and entry["request_sha256_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
