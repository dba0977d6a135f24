"""One workload process: set up, run whole rounds of the job list, check.

Started by ``run.py``, never by hand.  It prints ``READY`` on stdout the
moment set-up is done (the parent times set-up from process start to that
line) and, unless ``--setup-only``, one JSON line with the measurements at
the end.  weylkit is imported from ``src/`` of the checkout this file sits
in, never from an installed copy.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np                                            # noqa: E402
from scipy.linalg import lapack                               # noqa: E402

import weylkit                                                # noqa: E402

if not os.path.abspath(weylkit.__file__).startswith(SRC + os.sep):
    sys.exit(f"weylkit imported from {weylkit.__file__}, not from {SRC}")

import tracing                                                # noqa: E402
import workloads                                              # noqa: E402


def warm_blas():
    """Start the BLAS thread pool and LAPACK buffers before timing.

    The first threaded factorization in a fresh process costs 0.7-0.9 s on
    two cores against ~0.02 s afterwards; without this it lands in the
    first timed job.
    """
    rng = np.random.default_rng(0)
    for n in (256, 1024):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = n * np.eye(n) + a + a.conj().T
        c, _ = lapack.zpotrf(s, lower=1, clean=1)
        lapack.ztrtri(c, lower=1)
        np.linalg.solve(s, a[:, :8])
        a @ a[:, :64]


def files_digest(path):
    """Hash of every file under a CLI job's output directory."""
    h = hashlib.blake2b()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.digest()


def answer_digest(obj, h=None):
    """Hash of a job's answer: arrays, numbers and the fields of result objects."""
    top = h is None
    h = hashlib.blake2b() if top else h
    if isinstance(obj, np.ndarray):
        h.update(str((obj.dtype, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            answer_digest(item, h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            answer_digest(obj[key], h)
    elif hasattr(obj, "__dict__"):
        answer_digest({k: v for k, v in vars(obj).items() if not k.startswith("_")}, h)
    else:
        h.update(repr(obj).encode())
    return h.digest() if top else None


def run_job(job, tracer, trace):
    """Timed call of one job; returns (seconds, answer, error message)."""
    stderr = io.StringIO()
    tracer.enabled = trace
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            out = job.run()
        err = None
        if job.outdir is not None and out != 0:
            err = f"exit code {out}: {stderr.getvalue().strip()}"
    except Exception as exc:  # a job that raises counts as a failed operation
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    tracer.enabled = False
    return t1 - t0, out, err


def check(job, answer):
    try:
        return job.check(answer)
    except Exception as exc:  # a check that cannot run fails its job
        print(f"check of {job.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return workloads.verdict(False)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    trace = bool(args.trace)

    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    jobs = workloads.build(args.workload, args.seed, os.path.join(args.workdir, "jobs"))
    warm = workloads.build(args.workload, args.seed, os.path.join(args.workdir, "warm"),
                           small=True)
    warm_blas()
    for job in warm:
        run_job(job, tracer, False)
    gc.collect()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ref = {}                 # job name -> (digest, verdict) of its first answer
    round_s, job_s = [], []
    attempted = failed = 0
    correct = True
    errors = {}
    t_begin = time.perf_counter()
    while len(round_s) < 2 or time.perf_counter() - t_begin < args.seconds:
        gc.collect()
        total = 0.0
        for job in jobs:
            dt, out, err = run_job(job, tracer, trace)
            total += dt
            job_s.append(dt)
            attempted += 1
            if err is not None:
                failed += 1
                errors.setdefault(job.name, err)
                continue
            answer = job.outdir if job.outdir is not None else out
            key = files_digest(answer) if job.outdir is not None else answer_digest(out)
            if job.name not in ref:
                ref[job.name] = (key, check(job, answer))
            elif key != ref[job.name][0]:
                # CLI reruns must be byte-identical; other answers are re-checked
                v = check(job, answer)
                v.ok = v.ok and job.outdir is None
                ref[job.name] = (key, v)
            v = ref[job.name][1]
            if not v.ok:
                failed += 1
                correct = False
                errors.setdefault(job.name, "check failed")
            out = answer = None
        round_s.append(total)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for name, err in errors.items():
        print(f"job {name} failed: {err}", file=sys.stderr)
    verdicts = [v for _, v in ref.values() if v.ok]
    if trace:
        metrics = layer_metrics(tracer, round_s, verdicts)
        if args.trace_file:
            tracer.write(args.trace_file, {
                "workload": args.workload, "seed": args.seed, "rounds": len(round_s),
                "jobs": [j.name for j in jobs],
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    else:
        scored = [v.digits for v in verdicts if v.digits is not None]
        metrics = {
            "wall_s": (statistics.median(round_s), "s"),
            "job_s_p50": (statistics.median(job_s), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "accuracy_digits": (min(scored) if scored else 0.0, "digits"),
        }
    answers = hashlib.blake2b(b"".join(ref[j.name][0] for j in jobs if j.name in ref))
    print(f"{args.workload}: {len(round_s)} rounds of {len(jobs)} jobs, "
          f"blas threads {os.environ.get('OPENBLAS_NUM_THREADS')}, "
          f"answers {answers.hexdigest()[:16]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def layer_metrics(tracer, round_s, verdicts):
    """Per-round means of self time, calls and work per layer, plus glue.

    The tracer records only inside timed jobs, so its sums cover exactly
    the measured rounds.  Means (not medians) so that the layers' self
    times plus glue add up to the traced wall time exactly.
    """
    n = len(round_s)
    out = {}
    for i, (layer, (work_name, _)) in enumerate(tracing.LAYERS.items()):
        out[f"{layer}.self_s"] = (tracer.self_s[i] / n, "s")
        out[f"{layer}.calls"] = (tracer.calls[i] / n, "count")
        if work_name != "calls":
            out[f"{layer}.{work_name}"] = (tracer.work[i] / n, tracing.WORK_UNITS[work_name])
    for name in tracing.ACCURACY:
        vals = [v.acc[name] for v in verdicts if name in v.acc]
        out[name] = (min(vals) if vals else 0.0, "digits")
    out["trace.wall_s"] = (sum(round_s) / n, "s")
    out["trace.glue_s"] = ((sum(round_s) - tracer.root_s) / n, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
