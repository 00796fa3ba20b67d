#!/usr/bin/env python3
"""vlinetomo benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lt-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from the
checkout's ``src/`` directory and nowhere else.  Workloads are described
in ``perfbench/workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate run: set-up and every case under the layer
trace of ``perfbench/tracer.py``, which gives the per-layer metrics, then
cases 1 and 2 again untraced for the tracing overhead.

Every case's reconstructions are checked against their analytic oracles,
and case 0 is run a second time: its outputs (for ``lt-cli`` every file
and manifest the CLI wrote) must repeat bit for bit, and under the trace
its exact work counts must repeat too.  Human-readable lines come first;
the last line of standard output is one JSON object.  A full record of
the run (environment, every case's inputs, timings and errors) is written
to ``perfbench/out/``.
"""

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads, so the
# CLI's own --threads 2 stays within the two cores the sizing assumed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3
# tracing overhead compares these cases traced and, afterwards, untraced;
# case 0 is left out because the first full-size case of a process runs cold
OVERHEAD_CASES = (1, 2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lt-cli", "moment-oblique", "star-radon"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal measuring time; fixes the case count")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_library():
    """Import numpy, scipy and vlinetomo from the checkout; seconds taken."""
    if not (SRC / "vlinetomo" / "__init__.py").is_file():
        sys.exit(f"error: no vlinetomo sources under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vlinetomo
    import vlinetomo.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(vlinetomo.__file__).resolve().parent != SRC / "vlinetomo":
        sys.exit(f"error: vlinetomo imported from {vlinetomo.__file__}")
    return elapsed


def environment(workload):
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {**{v: os.environ[v] for v in THREAD_VARS},
                    "cli_threads": getattr(workload, "THREADS", None),
                    "library_workers": 1},
    }


def check_output(out, tolerance):
    """Relative L2 error of the larger component on the r1 disc, gated."""
    import numpy as np
    if out.error is not None:
        return {"pipeline": out.pipeline, "rel_l2": None, "ok": False,
                "finite": False, "reason": out.error}
    if not all(np.all(np.isfinite(c)) for c in out.recon):
        return {"pipeline": out.pipeline, "rel_l2": None, "ok": False,
                "finite": False, "reason": "non-finite output"}
    rel = max(float(np.linalg.norm((r - o)[out.mask]) / np.linalg.norm(o[out.mask]))
              for r, o in zip(out.recon, out.oracle))
    ok = rel <= tolerance[out.pipeline]
    return {"pipeline": out.pipeline, "rel_l2": rel, "ok": ok, "finite": True,
            "reason": None if ok else
            f"rel L2 {rel:.4g} above gate {tolerance[out.pipeline]}"}


class Run:
    """One benchmark run: cases, checks and the repeat of case 0."""

    def __init__(self, workload, seed, n_cases, workdir):
        import workloads
        self.w, self.seed, self.n, self.workdir = workload, seed, n_cases, workdir
        self.tolerance = workloads.TOLERANCE
        self.records = []
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def setup(self):
        t0 = time.perf_counter()
        self.state = self.w.setup(self.seed, self.n, self.workdir)
        return time.perf_counter() - t0

    def case(self, i, record=True):
        run = self.w.run_case(self.w.case(self.state, i))
        checks = [check_output(o, self.tolerance) for o in run.outputs]
        if record:
            self.attempted += len(checks)
            self.failed += sum(not c["ok"] for c in checks)
            if not all(c["finite"] for c in checks):
                self.correct = False
            self.records.append({
                "case": i, "inputs": self.w.describe(self.state, i),
                "case_s": run.case_s, "forward_s": run.forward_s,
                "invert_s": run.invert_s, "checks": checks})
        run.outputs = None  # drop the arrays; keep stamps and fingerprint
        return run

    def repeat_matches(self, first, again, what):
        self.attempted += 1
        if first == again:
            return True
        self.failed += 1
        self.correct = False
        self.notes.append(f"case 0 repeat: {what} differ")
        return False

    def pipeline_medians(self):
        out = {}
        for p in self.w.pipelines:
            vals = [c["rel_l2"] for r in self.records for c in r["checks"]
                    if c["pipeline"] == p and c["rel_l2"] is not None]
            if vals:
                out[p] = statistics.median(vals)
        return out


def timed(workload, args, n, import_s):
    run = Run(workload, args.seed, n, OUT / f"work-{workload.name}-{os.getpid()}")
    try:
        setups = [run.setup() for _ in range(SETUP_REPS)]
        runs = [run.case(i) for i in range(n)]
        # the repeat of case 0 is a check and one more timing sample
        runs.append(run.case(0, record=False))
        run.repeat_matches(runs[0].fingerprint, runs[-1].fingerprint, "outputs")
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    med = run.pipeline_medians()
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "case_s": (statistics.median(r.case_s for r in runs), "s"),
        "forward_s": (statistics.median(r.forward_s for r in runs), "s"),
        "invert_s": (statistics.median(r.invert_s for r in runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    if med:
        metrics["rel_l2_worst"] = (max(med.values()), "1")
        metrics["rel_l2_best"] = (min(med.values()), "1")
    extra = {"import_s": import_s, "setup_reps_s": setups,
             "repeat_case_s": runs[-1].case_s, "rel_l2_median": med}
    return run, metrics, extra


def traced(workload, args, n):
    import tracer as tracing
    run = Run(workload, args.seed, n, OUT / f"work-{workload.name}-{os.getpid()}")
    tr = tracing.Tracer()
    try:
        tr.install()
        try:
            tr.case = "setup"
            run.setup()
            runs = []
            for i in range(n):
                tr.case = i
                runs.append(run.case(i))
                tr.windows[i] = (runs[-1].start, runs[-1].end)
            tr.case = "repeat"
            again = run.case(0, record=False)
            tr.windows["repeat"] = (again.start, again.end)
            tr.case = None
        finally:
            tr.uninstall()
        run.repeat_matches(runs[0].fingerprint, again.fingerprint, "outputs")
        plain = [run.case(i, record=False).case_s for i in OVERHEAD_CASES]
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    per_case = [tracing.case_metrics(tr, i) for i in range(n)]
    counts0 = {m: per_case[0][m] for m in tracing.COUNT_METRICS}
    counts_again = {m: tracing.case_metrics(tr, "repeat")[m]
                    for m in tracing.COUNT_METRICS}
    run.repeat_matches(counts0, counts_again, "exact counts")
    units = tracing.metric_units()
    # counts report a measured case (median_low), not a mean of two
    metrics = {m: ((statistics.median_low if units[m] in ("count", "bytes")
                    else statistics.median)([c[m] for c in per_case]), units[m])
               for m in per_case[0]}
    metrics["phantoms.make_s"] = (
        sum(s.end - s.start for s in tr.case_spans("setup").values()
            if s.name == "phantoms.make_phantom"), "s")
    traced_s = statistics.median(runs[i].case_s for i in OVERHEAD_CASES)
    metrics["trace.overhead_frac"] = (traced_s / statistics.median(plain), "1")
    extra = {"untraced_case_s": plain, "spans": len(tr.spans),
             "counts_case0": counts0, "counts_repeat": counts_again}
    return run, metrics, extra


def main(argv=None):
    args = parse_args(argv)
    import_s = import_library()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    n = workload.n_cases(args.seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        run, metrics, extra = traced(workload, args, n)
    else:
        run, metrics, extra = timed(workload, args, n, import_s)

    env = environment(workload)
    print(f"# vlinetomo benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} cases={n}")
    print("# " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:36s} {shown} {unit}")
    for p, v in extra.get("rel_l2_median", {}).items():
        over = sum(1 for r in run.records for c in r["checks"]
                   if c["pipeline"] == p and not c["ok"])
        print(f"  rel_l2.{p:29s} {v:.6g} (median of {len(run.records)} cases; "
              f"gate {run.tolerance[p]}, {over} over)")
    print(f"  {'fail_frac':36s} {run.failed}/{run.attempted} "
          f"= {run.failed / run.attempted:.4g}")
    for note in run.notes:
        print(f"  NOTE {note}")

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "cases": n,
              "environment": env, "correct": run.correct,
              "attempted": run.attempted, "failed": run.failed,
              "notes": run.notes, "metrics": metrics, **extra,
              "records": run.records}
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
