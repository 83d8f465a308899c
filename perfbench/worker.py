"""One pass of one workload in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED TRACE OUT_JSON

run.py starts one worker per pass, so every pass begins with the same
process state: nothing imported, an empty ``derivative`` cache and no cached
CSR matrices.  The worker times ``import mtriples`` plus input generation
(set-up), then runs the jobs one after another (closed loop, one client),
checks each result outside the timed region and writes a JSON record.
"""

import time

_T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from common import Outcome  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = {
    "estimate-sweep": "estimate_sweep",
    "surface-synth": "surface_synth",
    "expr-probe": "expr_probe",
    "cli-cold": "cli_cold",
}


def _golden(workload: str, seed: int) -> dict:
    path = os.path.join(HERE, "golden", f"{MODULES[workload]}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(str(seed), {})


def _compare(outcome, record: dict, rtol: float) -> list:
    """Problems of ``outcome`` against the recorded reference of its job."""
    problems = []
    if record.get("verdict") != outcome.verdict:
        problems.append(f"verdict {outcome.verdict!r}, recorded {record.get('verdict')!r}")
    for name, want in record.get("numbers", {}).items():
        got = outcome.numbers.get(name)
        tol = rtol * abs(want) + outcome.atol.get(name, 0.0)
        if got is None or not abs(got - want) <= tol:
            problems.append(f"{name} = {got!r}, recorded {want!r} (tolerance {tol:.3g})")
    return problems


def main() -> int:
    workload, seed, traced, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    sys.path.insert(0, SRC)
    import mtriples

    if not os.path.abspath(mtriples.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported mtriples from {mtriples.__file__}, not from {SRC}")
    tracer = None
    if traced:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)  # before the workload module binds program functions
    module = importlib.import_module(MODULES[workload])
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{MODULES[workload]}-", dir=work_root)
    try:
        jobs = module.generate(seed, workdir)
        setup_s = time.perf_counter() - _T0
        golden = _golden(workload, seed)
        state = {"cli": _cli_prefix(traced, workdir)}
        records = []
        checking = 0.0
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            span = None
            if tracer is not None:
                tracer.current_job = k
                span = tracer.open("bench.job")
            t0 = time.perf_counter()
            try:
                result, error = job.run(state), None
            except Exception as exc:  # a failed job is counted, the pass goes on
                result, error = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.current_job = -1
                child = os.path.join(workdir, f"{job.name}.spans.json")
                if os.path.exists(child):
                    with open(child) as fh:
                        tracer.merge(json.load(fh), span, k)
            records.append(_judge(job, result, error, golden, module.TOLERANCE))
            records[-1]["latency_s"] = t1 - t0
            checking += time.perf_counter() - t1
        wall = time.perf_counter() - start - checking
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "golden": bool(golden),
        "jobs": records,
    }
    if tracer is not None:
        from spans import layer_metrics

        out["spans"] = tracer.to_json()
        out["layers"], sizes = layer_metrics(out["spans"])
        out["job_sizes"] = {jobs[k].name: v for k, v in sorted(sizes.items())}
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


def _cli_prefix(traced: bool, workdir: str):
    if not traced:
        return lambda name: [sys.executable, "-m", "mtriples.cli"]
    script = os.path.join(HERE, "clitrace.py")
    return lambda name: [sys.executable, script, os.path.join(workdir, f"{name}.spans.json")]


def _judge(job, result, error, golden: dict, rtol: float) -> dict:
    if error is None:
        try:
            outcome = job.check(result)
        except Exception as exc:  # a check that cannot read the result fails the job
            outcome = Outcome(verdict="error", errors=[f"check raised {type(exc).__name__}: {exc}"])
    else:
        outcome = Outcome(verdict="error", errors=[error])
    problems = list(outcome.errors)
    record = golden.get(job.name)
    digest_changed = False
    if record is not None:
        problems += _compare(outcome, record, rtol)
        digest_changed = record.get("digest") is not None and record["digest"] != outcome.digest
    return {
        "name": job.name,
        "ok": not problems,
        "problems": problems,
        "verdict": outcome.verdict,
        "numbers": outcome.numbers,
        "digest": outcome.digest,
        "digest_changed": digest_changed,
    }


if __name__ == "__main__":
    sys.exit(main())
