"""Benchmark of amoh: three workloads, CPU times scaled to a reference
speed, independent output checks, and a traced run for per-layer numbers.

    python3 bench/run.py --workload line-survey --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; amoh is imported from its src/.  Load is
a closed loop with one caller: one op at a time, from one thread, with at
most one CLI child alive.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
line before it holds the raw figures: unscaled times, the reference
kernel time k_run, nproc, the Python version and the commit.  Both lines
are also written to bench/out/.

Times are CPU times of the process doing the work (this thread for the
library workloads, each CLI child's own usage for cli-batch), multiplied
by k_ref / k.  k is the time of a fixed Fraction kernel measured just
before and just after that op (or set-up), on the same core: the speed of
a shared box drifts by tens of percent within a second, and the drift
cancels out of the scaled figures.  k_run, the median of all kernel
samples of the run, is printed with the raw figures.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
PINNED = "AMOH_BENCH_PINNED"

SETUP_REPEATS = 5
KERNEL_REPEATS = 3  # kernel runs per sample, of which the median counts
FRESH = 0.05  # wall seconds after which a kernel sample is taken again
# Whole rounds run until --seconds have passed and at least MIN_OPS ops are
# done, so that ten op times lie beyond the 90th percentile.
MIN_OPS = 100

# --- reference kernels --------------------------------------------------------
#
# Both are fixed runs of Fraction multiply-adds, written here without amoh.
# They differ in how far the work walks memory, to match the work they
# scale.  `resident` multiplies two 24-term sequences whose operands stay
# in cache, like amoh's in-process arithmetic.  `scattered` multiplies 1000
# pairs that were allocated in one order and are read in another, like a
# fresh CLI process that starts, unmarshals and imports.  Against blocks of
# 25 empty CLI invocations, `resident` left 4.8% spread and `scattered`
# 1.7%.  On the library workloads `resident` tracks better.

_RA = [Fraction(7 * i + 3, 2 * i + 5) for i in range(24)]
_RB = [Fraction(5 * i + 1, 3 * i + 4) for i in range(24)]


def resident_kernel():
    """CPU time of the schoolbook product of two 24-term Fraction sequences."""
    t0 = time.thread_time()
    out = [Fraction(0)] * (len(_RA) + len(_RB) - 1)
    for i, x in enumerate(_RA):
        for j, y in enumerate(_RB):
            out[i + j] += x * y
    return time.thread_time() - t0


def _scattered_operands(n=1000):
    rng = random.Random(0)
    pool = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(2 * n)]
    rng.shuffle(pool)
    return pool[:n], pool[n:]


_SA, _SB = _scattered_operands()


def scattered_kernel():
    """CPU time of 1000 Fraction products over scattered operands, summed
    in groups of 8."""
    t0 = time.thread_time()
    acc = Fraction(0)
    for i, (x, y) in enumerate(zip(_SA, _SB)):
        if i % 8 == 0:
            acc = Fraction(0)
        acc += x * y
    return time.thread_time() - t0


# Reference kernel times (k_ref): fixed constants at or below the lowest
# kernel times seen on a shared 2-vCPU Xeon box with Python 3.11.7.
KERNELS = {"resident": (resident_kernel, 0.00155), "scattered": (scattered_kernel, 0.0050)}


class Speed:
    """Kernel samples taken all through the run.  The speed of a shared
    machine drifts within a second, so each timed piece of work is scaled
    by the kernel time measured just before and just after it."""

    def __init__(self, kernel):
        self.kernel, self.k_ref = KERNELS[kernel]
        self.samples = []  # (wall seconds, kernel seconds)
        self.last = None

    def sample(self):
        k = statistics.median(self.kernel() for _ in range(KERNEL_REPEATS))
        self.last = (time.monotonic(), k)
        self.samples.append(self.last)
        return k

    def timed(self, work):
        """Run work(), which returns raw CPU seconds; return them with the
        kernel time around the work."""
        if self.last is None or time.monotonic() - self.last[0] > FRESH:
            self.sample()
        before = self.last[1]
        raw = work()
        return raw, (before + self.sample()) / 2

    def scaled(self, raw, k):
        return raw * self.k_ref / k

    @property
    def k_run(self):
        return statistics.median(k for _, k in self.samples)


# --- environment --------------------------------------------------------------


def pinned_env():
    """Environment of this process (after re-exec) and of every child: a
    fixed hash seed, block-buffered output, and a bytecode cache under
    bench/out/ (written, so that imports read bytecode)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=SRC,
        PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"),
    )
    env[PINNED] = "1"
    return env


def warm_bytecode_cache():
    """Compile amoh, and import every module the timed processes import, in
    a child with the pinned environment.  The cache under bench/out/ is then
    full before the timed process starts, so compiling counts neither in
    its times nor in its peak memory."""
    subprocess.run(
        [sys.executable, "-c", "import run, workloads, spans, setup_child, amoh.cli"],
        cwd=BENCH, env=pinned_env(), check=True,
    )


def commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- set-up probes ------------------------------------------------------------


def setup_sample(workloads, name, env):
    """Raw CPU seconds of one set-up, in a fresh process."""
    if name == workloads.CliBatch.name:
        # one CLI invocation that answers no query
        (status, _), cpu, _ = workloads.run_cli(workloads.CliBatch.argv("m5-7"), "", env)
        if status != 0:
            raise RuntimeError(f"empty CLI invocation exited {status}")
        return cpu
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_child.py"), name],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return float(out.strip().splitlines()[-1])


# --- metrics ----------------------------------------------------------------


def end_to_end(times, setup, peak_kb, terms):
    """Metrics from op times and set-up times in seconds."""
    values = {
        "setup_s": ("s", statistics.median(setup)),
        "ops_per_s": ("ops/s", len(times) / sum(times)),
        "op_p50_ms": ("ms", statistics.median(times) * 1e3),
        "op_p90_ms": ("ms", p90(times) * 1e3),
        "peak_rss_mb": ("MB", peak_kb / 1024),
        "cert_terms": ("terms", statistics.fmean(terms)),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# Per-layer metrics, named "<span>.<measure>".  A measure is the span's
# call count, its self time, or a count the tracer records under that name.
PER_LAYER = (
    ("field_poly.mul", ("calls", "self_ms", "coeff_products", "max_bits")),
    ("field_poly.eval", ("calls", "self_ms", "terms")),
    ("field_poly.bivar_mul", ("calls", "self_ms")),
    ("field_poly.divmod", ("calls", "self_ms")),
    ("field_poly.compose", ("calls", "self_ms")),
    ("subalgebra.sagbi_basis", ("calls", "misses", "hits", "self_ms", "basis_size")),
    ("subalgebra.is_member", ("calls", "self_ms")),
    ("subalgebra.subduct", ("self_ms",)),
    ("line.is_line", ("self_ms",)),
    ("line.reduce_to_line", ("self_ms",)),
    ("line.criterion_check", ("self_ms",)),
    ("decompose.common_parameter", ("calls", "self_ms")),
    ("decompose.left_cofactor", ("calls", "rejected")),
    ("cli.parse_poly", ("calls", "self_ms", "chars")),
    ("cli.render", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)
UNITS = {"self_ms": "ms", "max_bits": "bits", "basis_size": "elements"}


def per_layer(tracer, cache_hits, cache_misses):
    calls, self_ns = tracer.totals()
    counts = dict(tracer.counts)
    counts["subalgebra.sagbi_basis.hits"] = cache_hits
    counts["subalgebra.sagbi_basis.misses"] = cache_misses
    n_bases = calls.get("subalgebra.sagbi_basis", 0)
    counts["subalgebra.sagbi_basis.basis_size"] = (
        counts.get("subalgebra.sagbi_basis.basis_size", 0) / n_bases if n_bases else 0.0
    )
    out = {}
    for span, whats in PER_LAYER:
        for what in whats:
            if what == "calls":
                v = calls.get(span, 0)
            elif what == "self_ms":
                v = self_ns.get(span, 0) / 1e6
            else:
                v = counts.get(f"{span}.{what}", 0)
            out[f"{span}.{what}"] = {"value": v, "unit": UNITS.get(what, "count")}
    return out


# --- the run ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "amoh", "__init__.py")):
        print(f"error: no amoh sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if os.environ.get(PINNED) != "1":
        os.makedirs(OUT, exist_ok=True)
        warm_bytecode_cache()
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], pinned_env())

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # One core for this process and its children, so that the kernel
    # samples and the work they scale run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = pinned_env()
    cls = workloads.WORKLOADS[args.workload]
    speed = Speed(cls.kernel)
    for _ in range(5):
        speed.sample()
    setup_sample(workloads, args.workload, env)  # warm-up, not counted
    setup = [speed.timed(lambda: setup_sample(workloads, args.workload, env))
             for _ in range(SETUP_REPEATS)]

    t0 = time.process_time()
    import amoh  # noqa: F401
    from amoh import subalgebra

    import_raw = time.process_time() - t0
    if cls is workloads.CliBatch:
        wl = cls(args.seed, env=env, in_process=bool(args.trace))
    else:
        wl = cls(args.seed)
    wl.prepare()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # per op: (kind, raw seconds, kernel seconds around it, child peak rss kB)
    done, failures, errors, terms = [], [], [], []
    attempted = failed = hits = misses = 0
    gc.collect()
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or attempted < MIN_OPS:
        for op in wl.round():
            attempted += 1
            if tracer is not None:
                tracer.op = attempted - 1
                if cls is workloads.CliBatch:
                    subalgebra._sagbi_cached.cache_clear()
                before = subalgebra._sagbi_cached.cache_info()
            try:
                raw, k = speed.timed(lambda: wl.run(op))
            except Exception as exc:  # an op that raises counts as failed
                failed += 1
                failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    after = subalgebra._sagbi_cached.cache_info()
                    hits += after.hits - before.hits
                    misses += after.misses - before.misses
            bad = wl.check(op)
            if bad:
                errors.append(f"{op.kind}: {bad}")
            done.append((op.kind, raw, k, getattr(op, "rss_kb", None)))
            terms.extend(wl.terms(op))
    wall = time.monotonic() - start
    if tracer is not None:
        tracer.uninstall()

    if cls is workloads.CliBatch and not args.trace:
        peak_kb = max(op[3] for op in done)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    k_run = speed.k_run
    raw_times = [raw for _, raw, _, _ in done]
    metrics = end_to_end(
        [speed.scaled(raw, k) for _, raw, k, _ in done],
        [speed.scaled(raw, k) for raw, k in setup],
        peak_kb,
        terms,
    )
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit(),
            "k_run_s": k_run,
            "kernel": cls.kernel,
            "k_ref_s": speed.k_ref,
            "kernel_samples": len(speed.samples),
        },
        "raw": {
            "setup_s": [raw for raw, _ in setup],
            "import_s": import_raw,
            "op_p50_ms": statistics.median(raw_times) * 1e3,
            "op_p90_ms": p90(raw_times) * 1e3,
            "ops_per_s": len(raw_times) / sum(raw_times),
            "wall_s": wall,
        },
        "scaled": {k: v["value"] for k, v in metrics.items()},
        "ops_by_kind": {k: sum(1 for op in done if op[0] == k) for k in sorted({op[0] for op in done})},
        "failures": failures[:10],
        "errors": errors[:10],
    }
    if tracer is not None:
        metrics = per_layer(tracer, hits, misses)
        info["spans"] = len(tracer.start)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}.json"))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "ops": done, "kernel": speed.samples}, fh)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
