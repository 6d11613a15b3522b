"""rsbesov benchmark: four pipeline workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the library is imported from ./src).
Every repetition is a fresh worker process, so the library's insert-only
caches start cold as in a user's run.  Repetitions are started until the
next one would end after S seconds (at least one always runs), then
set-up-only workers top the set-up samples up to nine, while the run
is shorter than 1.2 S.

--trace 0 prints the end-to-end metrics: median pipeline wall time, median
set-up time, median peak RSS and the fraction of correctness checks passed.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of spans.LAYER_METRICS (medians over traced repetitions)
plus the trace's own overhead and uncovered time.

The last stdout line is the result object; the line before it records the
samples, thread pinning, versions and code identity.  See README.md for the
workloads, metric definitions and the predictions each metric serves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("report-d1", "pairing-d1", "parabolic", "heat-kernel")
MIN_SETUP_SAMPLES = 9
SETUP_PROBE_LIMIT = 1.2  # probes stop once a run reaches this multiple of --seconds
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_rev(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, root: Path, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            self.env[var] = str(BLAS_THREADS)
        self.t_start = time.perf_counter()
        self.reps: list[dict] = []
        self.setup_s: list[float] = []
        self.errors: list[str] = []
        self.versions: dict = {}
        self.n_workers = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def worker(self, mode: str) -> dict | None:
        """One fresh worker process; None when it crashed or timed out."""
        self.n_workers += 1
        rep_tmp = self.tmp / f"worker{self.n_workers}"
        rep_tmp.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--tmp", str(rep_tmp), "--mode", mode]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker timed out")
            return None
        finally:
            shutil.rmtree(rep_tmp, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{mode} worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        out = json.loads(lines[-1])
        self.setup_s.append(out["setup_s"])
        self.versions = out["versions"]
        if "error" in out:
            self.errors.append(out["error"])
        return out

    def repeat(self, modes: tuple[str, ...], seconds: float, n_checks: int) -> None:
        """Run rounds of `modes` until the next round would overrun `seconds`."""
        round_s: list[float] = []
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                out = self.worker(mode)
                self.reps.append(out or {"mode": mode, "checks": [["worker", False]] * n_checks})
                self.reps[-1]["mode"] = mode
            round_s.append(time.perf_counter() - t0)
            if self.elapsed() + statistics.median(round_s) > seconds:
                break
        for _ in range(MIN_SETUP_SAMPLES - len(self.setup_s)):
            if self.elapsed() > min(SETUP_PROBE_LIMIT * seconds, RUN_LIMIT_S - 10):
                break
            self.worker("setup")

    def timed(self, mode: str, key: str) -> list[float]:
        return [r[key] for r in self.reps if r["mode"] == mode and key in r]


def _layer_value(metric: str, summaries: list[dict]):
    prefix, stat = metric.rsplit(".", 1)
    vals = []
    for s in summaries:
        if prefix == "trace":
            vals.append(s[stat])
        else:
            vals.append(s["layers"].get(prefix, {}).get(stat, 0))
    return statistics.median(vals)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rsbesov" / "__init__.py").is_file():
        print("run.py: no rsbesov sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    n_checks = workloads.CHECK_COUNTS[args.workload]
    tmp = root / ".perfbench_tmp" / f"{os.getpid()}"
    runner = Runner(args.workload, args.seed, root, tmp)
    try:
        modes = ("full", "traced") if args.trace else ("full",)
        runner.repeat(modes, args.seconds, n_checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    checks = [ok for r in runner.reps for _, ok in r["checks"]]
    attempted, failed = len(checks), checks.count(False)
    walls = runner.timed("full", "wall_s")
    if not walls or not runner.setup_s:
        print(json.dumps({"errors": runner.errors}), file=sys.stderr)
        return 1
    metrics = {}
    if args.trace:
        traced = [r for r in runner.reps if r["mode"] == "traced" and "trace" in r]
        if not traced:
            print(json.dumps({"errors": runner.errors}), file=sys.stderr)
            return 1
        summaries = [r["trace"] for r in traced]
        base = statistics.median(walls)
        for s, r in zip(summaries, traced):
            s["overhead_frac"] = (r["wall_s"] - base) / base
        for m in spans.LAYER_METRICS:
            metrics[m] = {"value": _layer_value(m, summaries), "unit": spans.unit_of(m)}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(runner.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(runner.timed("full", "peak_rss_mb")), "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "full_reps": len(walls), "wall_s_samples": walls, "cpu_s_samples": runner.timed("full", "cpu_s"), "setup_s_samples": runner.setup_s,
        "traced_reps": len(runner.timed("traced", "wall_s")),
        "checks_attempted": attempted, "checks_failed": failed,
        "last_checks": runner.reps[-1]["checks"], "errors": runner.errors,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "versions": runner.versions,
        "git_rev": _git_rev(root), "src_sha256_16": _src_digest(root / "src"),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
