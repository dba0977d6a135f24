"""weylkit benchmark: one workload per call, timed from outside the program.

    python3 perfbench/run.py --workload weyl-line --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and measures the weylkit in its ``src/``.
The workload itself runs in a child process (``worker.py``) with the BLAS
thread count fixed; this parent times set-up from the child's start to its
READY line, repeating set-up in fresh processes and reporting the median,
and prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
the metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Exits non-zero without a result line when a worker fails or runs out of time;
jobs that fail are counted in the result, not fatal.
"""

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = "2"        # nproc of the reference machine; fixed so runs compare
SETUPS = 5                # set-ups per run: four set-up-only children plus the measured one
DEADLINE_S = 170.0        # the whole run, set-ups included


def start(args, workdir, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--trace-file", os.path.join(OUT, f"trace-{args.workload}.json")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT), time.perf_counter()


def collect(proc, t_start, deadline):
    """Read the child's stdout to EOF; return (set-up seconds, lines, exit code)."""
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    buf, lines, ready = b"", [], None
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not sel.select(timeout=left):
                raise TimeoutError("worker did not finish in time")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if line == b"READY" and ready is None:
                    ready = time.perf_counter() - t_start
                lines.append(line.decode())
    finally:
        sel.close()
    code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    return ready, lines, code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="weyl-line, operator-factor or explicit-system")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.perf_counter() + DEADLINE_S
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    proc = None
    try:
        setups = []
        for i in range(SETUPS):
            proc, t0 = start(args, os.path.join(workdir, str(i)), setup_only=i < SETUPS - 1)
            ready, lines, code = collect(proc, t0, deadline)
            proc = None
            if code != 0 or ready is None:
                print(f"worker exited with code {code}", file=sys.stderr)
                return 1
            setups.append(ready)
        result = json.loads(lines[-1])
        if not args.trace:
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
