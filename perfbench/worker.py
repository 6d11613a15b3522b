"""One measured repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR --mode {full,setup,traced}

Prints one JSON line: set-up time (imports, wavelet families, inputs), the
pipeline's wall time, the process's peak RSS after the pipeline, and the
correctness checks.  `--mode setup` stops after set-up; `--mode traced`
wraps the library's public functions (see spans.py) around the pipeline.
Launched by run.py, which pins the BLAS/OpenMP thread count.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--mode", choices=("full", "setup", "traced"), default="full")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import numpy as np  # imports count into set-up
    import rsbesov  # noqa: F401
    import workloads

    setup, run, checks = workloads.WORKLOADS[args.workload]
    state = setup(args.seed, args.tmp)
    out = {"setup_s": time.perf_counter() - t0}
    import mpmath
    import scipy

    out["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    rec = None
    if args.mode == "traced":
        import spans

        rec = spans.Recorder()
        spans.install(rec)
        rec.enabled = True
    error = None
    t1, c1 = time.perf_counter(), time.process_time()
    try:
        result = run(state)
    except Exception:  # a failed operation is counted, not fatal
        error = traceback.format_exc()
    wall = time.perf_counter() - t1
    out["cpu_s"] = time.process_time() - c1
    if rec is not None:
        rec.enabled = False
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_checks = workloads.CHECK_COUNTS[args.workload]
    if error is None:
        try:
            results = checks(state, result)
            if len(results) != n_checks:
                raise RuntimeError(f"expected {n_checks} checks, got {len(results)}")
            out["checks"] = [[name, bool(ok)] for name, ok in results]
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        out["checks"] = [[f"check_{i}", False] for i in range(n_checks)]
        out["error"] = error
    else:
        out["wall_s"] = wall
    if rec is not None:
        out["trace"] = rec.summary(wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
