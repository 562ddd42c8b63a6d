"""Benchmark of the shrinker-index pipeline, one workload per process.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The workload's inputs come from --seed.  After set-up (import,
input generation and one untimed warm-up operation, repeated up to
SETUP_REPS times) operations run one at a time, closed loop with one client, until
--seconds have passed.  A fixed reference computation runs just before
and after each operation (untimed).  Every sub-operation's outputs are
checked, and every output file's sha256 must equal that of the first
operation that had the same input.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones, plus trace.overhead_s; its spans are written
to .perfbench_out/<workload>-seed<seed>-spans.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `attempted` and `failed` count
sub-operations of the measured operations; `correct` is false when any
output check failed, warm-ups included.  The full result, provenance
included, goes to .perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-ups per untraced run, repeated while those so far took less than
#: half of --seconds; setup_s reports their median.
SETUP_REPS = 3

#: BLAS threads, pinned before numpy loads: at most 2, at most nproc.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

UNITS = {"wall_norm": "ref", "wall_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "failed_frac": "1", "max_eig_residual": "1",
         "known_mode_err": "1"}

#: End-to-end metrics gated in BENCHMARK.json; the others are printed.
GATED = ("wall_norm", "setup_s", "peak_rss_mb")


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "1"
    return "count"


def import_package():
    """Import shrinker_index from this checkout's src/, or exit."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import shrinker_index
        import shrinker_index.cli  # noqa: F401  (binds .cli and .render)
    except ImportError as exc:
        sys.exit("error: cannot import shrinker_index from %s: %s"
                 % (src, exc))
    if not os.path.abspath(shrinker_index.__file__).startswith(src + os.sep):
        sys.exit("error: shrinker_index was not imported from %s" % src)
    return shrinker_index


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """OpenBLAS thread counts as numpy's and scipy's libraries report them."""
    import ctypes
    import numpy
    import scipy.linalg._fblas
    core = getattr(numpy, "_core", None) or numpy.core
    found = {}
    for label, path, symbols in (
            ("scipy", scipy.linalg._fblas.__file__,
             ("scipy_openblas_get_num_threads", "openblas_get_num_threads")),
            ("numpy", core._multiarray_umath.__file__,
             ("scipy_openblas_get_num_threads64_",
              "openblas_get_num_threads64_", "openblas_get_num_threads"))):
        found[label] = None
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[label] = fn()
                break
    return found


def provenance(package, workload, seed):
    import numpy
    import scipy
    return {
        "package_version": package.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "workload": workload.name,
        "seed": seed,
        "inputs": workload.describe(),
        "M_values": workload.m_values(),
    }


def reference_seconds():
    """Fastest of three runs of a fixed computation unrelated to the package.

    It mixes the pipeline's kinds of work (a dense symmetric eigensolve,
    numpy vector arithmetic, float formatting).  Run beside each operation,
    it measures how fast the machine is at that moment: on a shared
    machine that speed drifts by tens of percent over tens of seconds,
    and dividing by it removes most of the drift from wall_norm.
    """
    import numpy as np
    import scipy.linalg
    a = np.arange(256 * 256, dtype=float).reshape(256, 256) % 7.0
    a = a + a.T
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        scipy.linalg.eigh(a)
        v = np.linspace(0.0, 1.0, 20000)
        for _ in range(20):
            v = np.sqrt(v * v + 1.0) - 0.5
        "\n".join("v %.17g" % x for x in v[:4000])
        best = min(best, time.perf_counter() - start)
    return best


class Runner:
    """Runs operations in fresh directories and checks what they wrote."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.probe = workloads.ResidualProbe(workload.api.spectral)
        self.reference = {}
        self.inputs = None
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.residuals = []
        self.values = {}
        self.normalized = []
        self.references = []

    def operation(self, counted, tracer=None):
        """Run, time and check one operation; returns its seconds."""
        slot = os.path.join(self.workdir, "op%d" % self.count)
        os.makedirs(slot)
        if tracer is not None:
            tracer.op = self.count
        self.count += 1
        before = reference_seconds()
        start = time.perf_counter()
        with tracer or contextlib.nullcontext(), self.probe:
            calls = self.workload.operation(slot, self.probe)
        elapsed = time.perf_counter() - start
        reference = 0.5 * (before + reference_seconds())
        if counted and tracer is None:
            self.normalized.append(elapsed / reference)
            self.references.append(reference)

        for call in calls:
            problems = workloads.check_call(call)
            for path in call.files():
                key = "%s:%s" % (call.label, os.path.relpath(path, slot))
                digest = sha256(path)
                if self.reference.setdefault(key, digest) != digest:
                    problems.append("%s differs between operations" % key)
            self.problems.extend("%s: %s" % (call.label, p) for p in problems)
            if counted:
                self.attempted += 1
                self.failed += int(call.rc != 0 or bool(problems))
                self.residuals.extend(call.residuals)
                for key, value in call.values.items():
                    self.values.setdefault(key, []).append(value)
        shutil.rmtree(slot)
        return elapsed

    def setup(self, rep):
        """Input generation plus one warm-up operation; returns seconds."""
        workdir = os.path.join(self.workdir, "setup%d" % rep)
        os.makedirs(workdir)
        start = time.perf_counter()
        files = self.workload.setup(workdir)
        seconds = time.perf_counter() - start
        digests = [sha256(p) for p in files]
        if self.inputs is None:
            self.inputs = digests
        elif digests != self.inputs:
            self.problems.append("set-up inputs differ between set-ups")
        return seconds + self.operation(counted=False)


def percentile_line(samples):
    """Highest of p50..p99 with at least ten samples beyond it, if any."""
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return "no high percentile: needs >= 10 samples beyond it"
    value = statistics.quantiles(samples, n=100, method="inclusive")[best - 1]
    return "p%d %.6g s" % (best, value)


def measure(args, package, import_s):
    import tracer as tracing  # loads numpy, so after the thread pinning

    workload = workloads.WORKLOADS[args.workload](args.seed, package)
    workdir = os.path.join(OUT_DIR, "work-%s-%d" % (args.workload,
                                                    os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workload, workdir)
    try:
        setups = [runner.setup(0)]
        while (not args.trace and len(setups) < SETUP_REPS
               and sum(setups) < args.seconds / 2.0):
            setups.append(runner.setup(len(setups)))
        tracer = tracing.Tracer(package) if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or not plain
               or (tracer is not None and not traced)):
            if tracer is not None and len(traced) < len(plain):
                traced.append(runner.operation(True, tracer))
            else:
                plain.append(runner.operation(True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if tracer is None:
        metrics["wall_norm"] = statistics.median(runner.normalized)
        metrics["wall_s"] = statistics.median(plain)
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        per_op = [tracing.layer_metrics(spans)
                  for spans in tracing.per_operation(tracer.spans)]
        metrics.update(tracing.median_metrics(per_op))
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_jsonl(os.path.join(
            OUT_DIR, "%s-seed%d-spans.jsonl" % (args.workload, args.seed)))
    metrics["failed_frac"] = runner.failed / runner.attempted
    if runner.residuals:
        metrics["max_eig_residual"] = max(runner.residuals)
    if "known_mode_err" in runner.values:
        metrics["known_mode_err"] = max(runner.values["known_mode_err"])
    return {
        "provenance": provenance(package, workload, args.seed),
        "samples_s": plain,
        "reference_samples_s": runner.references,
        "traced_samples_s": traced,
        "setup_samples_s": setups,
        "import_s": import_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "values": runner.values,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(BLAS_THREADS))
    start = time.perf_counter()
    package = import_package()
    import_s = time.perf_counter() - start

    result = measure(args, package, import_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    metrics = result["metrics"]
    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                            args.trace))
    print("provenance %s" % json.dumps(result["provenance"]))
    for problem in result["problems"]:
        print("check failed: %s" % problem)
    if not args.trace:
        print("wall_s %.6g s (median of %d operations; %s)"
              % (metrics["wall_s"], len(result["samples_s"]),
                 percentile_line(result["samples_s"])))
        print("wall_norm %.6g ref (median operation time / reference time;"
              " reference %.4g s)" % (metrics["wall_norm"], statistics.median(
                  result["reference_samples_s"])))
        print("setup_s %.6g s (import %.3g s + median of %d set-ups)"
              % (metrics["setup_s"], import_s,
                 len(result["setup_samples_s"])))
        print("peak_rss_mb %.6g MB" % metrics["peak_rss_mb"])
    print("failed_frac %.6g (%d of %d sub-operations)"
          % (metrics["failed_frac"], result["failed"], result["attempted"]))
    for name in ("max_eig_residual", "known_mode_err"):
        print("%s %s" % (name, "%.6g" % metrics[name] if name in metrics
                         else "n/a (no such output in this workload)"))
    if args.trace:
        for name in sorted(metrics):
            if name not in UNITS:
                print("%s %.6g %s" % (name, metrics[name], layer_unit(name)))

    if args.trace:
        shown = {k: v for k, v in metrics.items() if k not in UNITS}
        units = {k: layer_unit(k) for k in shown}
    else:
        shown = {k: metrics[k] for k in GATED}
        units = UNITS
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
