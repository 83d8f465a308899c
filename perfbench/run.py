#!/usr/bin/env python3
"""The mtriples benchmark: end-to-end job timings and per-module traced self times.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record --workload NAME --seed N

Load model: a closed loop with one client in one process.  Each job starts
after the previous one has finished, and each pass over a workload's jobs
runs in a fresh worker interpreter (worker.py), so every pass starts with
nothing imported and every program cache empty.  Passes repeat until the
next one would end after ``--seconds`` (at least the workload's minimum
number of passes).  BLAS and OpenMP pools are pinned to one thread.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
(self times from span proxies around every public function of the
program, see spans.py) plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Traced passes keep their spans under perfbench/results/.  ``--record``
stores one pass's verdicts, key numbers and report digests as the
reference for that seed in perfbench/golden/.

Only the standard library is imported here; the program is imported by
the workers, from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# minimum passes per run; the job-tail percentile is fixed from it (see _tail_q)
WORKLOADS = {
    "estimate-sweep": 4,
    "surface-synth": 5,
    "expr-probe": 4,
    "cli-cold": 3,
}
END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_pass(workload: str, seed: int, traced: bool, index: int) -> dict:
    out_dir = os.path.join(RESULTS, workload)
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"seed{seed}-{'traced' if traced else 'plain'}{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", out]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out) as fh:
        record = json.load(fh)
    if not traced:
        os.remove(out)
    return record


def _import_breakdown() -> tuple:
    """(import of mtriples.cli, scipy's part of it) in seconds, from ``-X importtime``.

    Entries are printed after their children and indented by depth, so
    reading them backwards meets every parent before its children.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mtriples.cli"],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, check=True)
    entries = re.findall(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", proc.stderr)
    cli = scipy = 0.0
    stack = []  # (depth, package) of the enclosing imports
    for cumulative, indent, name in reversed(entries):
        depth, package = len(indent), name.split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "mtriples.cli":
            cli = int(cumulative) * 1e-6
        if package == "scipy" and not (stack and stack[-1][1] == "scipy"):
            scipy += int(cumulative) * 1e-6
        stack.append((depth, package))
    return cli, scipy


def _tail_q(samples: int) -> float:
    """Highest percentile with at least ten of ``samples`` beyond it."""
    return 100.0 * (1.0 - 10.0 / samples)


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _passes(workload: str, seed: int, seconds: float, traced_too: bool) -> list:
    """Run passes until the next one would end after ``seconds``."""
    start = time.perf_counter()
    done, took = [], []
    while True:
        t = time.perf_counter()
        group = [_run_pass(workload, seed, False, len(done))]
        if traced_too:
            group.append(_run_pass(workload, seed, True, len(done)))
            group[-1]["imports"] = _import_breakdown()
        done.append(group)
        took.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        enough = len(done) >= (1 if traced_too else WORKLOADS[workload])
        if enough and elapsed + statistics.median(took) > seconds:
            return done


def _tally(records: list) -> tuple:
    jobs = [j for r in records for j in r["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    return len(jobs), failed


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    plain = [g[0] for g in _passes(workload, seed, seconds, traced_too=False)]
    latencies = [j["latency_s"] for r in plain for j in r["jobs"]]
    per_pass = len(plain[0]["jobs"])
    q = _tail_q(WORKLOADS[workload] * per_pass)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": _percentile(latencies, q),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    attempted, failed = _tally(plain)
    beyond = sum(1 for v in latencies if v > metrics["job_tail_s"])
    notes = {
        "passes": len(plain),
        "jobs_per_pass": per_pass,
        "tail": f"p{q:.4g} of {len(latencies)} samples, {beyond} beyond",
        "fail_frac": f"{len(failed)}/{attempted} = {len(failed) / attempted:.4g}",
        "golden": plain[0]["golden"],
        "digests_changed": sum(j["digest_changed"] for r in plain for j in r["jobs"]),
    }
    return metrics, attempted, failed, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    groups = _passes(workload, seed, seconds, traced_too=True)
    plain = [g[0] for g in groups]
    traced = [g[1] for g in groups]
    rows = []
    for r in traced:
        m = dict(r["layers"])
        m["cli.import_s"], m["cli.import.scipy_s"] = r["imports"]
        m["cli.report_digest_changed"] = sum(j["digest_changed"] for j in r["jobs"])
        rows.append(m)
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    metrics["trace.overhead_frac"] = (statistics.median(r["wall_s"] for r in traced)
                                      / statistics.median(r["wall_s"] for r in plain) - 1.0)
    attempted, failed = _tally(plain + traced)
    modules = {k[:-len(".self_s")]: v for k, v in metrics.items()
               if k.endswith(".self_s") and k.count(".") == 1}
    total = sum(modules.values()) or 1.0
    shares = sorted(modules.items(), key=lambda kv: -kv[1])
    notes = {"pairs": len(groups), "fail_frac": f"{len(failed)}/{attempted}",
             "spans": os.path.relpath(os.path.join(RESULTS, workload), ROOT),
             "self-time shares": ", ".join(f"{k} {100 * v / total:.0f}%" for k, v in shares),
             "job_sizes": traced[-1]["job_sizes"]}
    return metrics, attempted, failed, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_ratio", "reuse")):
        return "ratio"
    return "count"


def _print_workload(workload: str, metrics: dict, units: dict, notes: dict, failed: list) -> None:
    print(f"== {workload}  " + "  ".join(f"{k}={v}" for k, v in notes.items()
                                        if k not in ("job_sizes", "self-time shares")))
    if "self-time shares" in notes:
        print(f"   self-time shares: {notes['self-time shares']}")
    for name, value in metrics.items():
        print(f"   {name:38s} {value:14.6g} {units[name]}")
    for job, sizes in notes.get("job_sizes", {}).items():
        print(f"   size {job:30s} " + " ".join(f"{k}={v:g}" for k, v in sorted(sizes.items())))
    for j in failed[:20]:
        print(f"   FAILED {j['name']}: {'; '.join(j['problems'])[:500]}")


def record(workload: str, seed: int) -> None:
    rec = _run_pass(workload, seed, False, 0)
    bad = [j for j in rec["jobs"] if not j["ok"]]
    if bad:
        raise SystemExit(f"not recording {workload} seed {seed}: {[j['name'] for j in bad]}")
    path = os.path.join(HERE, "golden", f"{workload.replace('-', '_')}.json")
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data[str(seed)] = {
        j["name"]: {k: j[k] for k in ("verdict", "numbers", "digest") if j[k] is not None}
        for j in rec["jobs"]
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(rec['jobs'])} jobs of {workload} seed {seed} in {os.path.relpath(path, ROOT)}")


def _run_seconds() -> float:
    """The default of ``--seconds``: ``run_seconds`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def main(argv=None) -> int:
    # --workload, --seed, --seconds and --trace are how the benchmark is
    # invoked (one workload per run); without --workload every workload runs.
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="store reference outputs for --seed")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtriples", "__init__.py")):
        print(f"perfbench: no program source at {SRC}/mtriples; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds or _run_seconds()
    if args.record:
        for name in names:
            record(name, args.seed)
        return 0

    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            if args.trace:
                metrics, n, bad, notes = per_layer(name, args.seed, seconds)
            else:
                metrics, n, bad, notes = end_to_end(name, args.seed, seconds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        units = {k: END_TO_END_UNITS.get(k) or _unit(k) for k in metrics}
        _print_workload(name, metrics, units, notes, bad)
        attempted += n
        failed += len(bad)
        prefix = "" if len(names) == 1 else f"{name}."
        for k, v in metrics.items():
            all_metrics[prefix + k] = {"value": v, "unit": units[k]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
