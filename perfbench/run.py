"""FedClust repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-serial --seed 0 --seconds 25 --trace 0

Runs one workload (see ``cells.WORKLOADS``) as a closed loop in this
process: one repetition of the workload's cells at a time, the next
starting when the previous one returns, until ``--seconds`` is spent.
Every repetition uses ``--seed``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (``build_cell``
plus round-0 ``setup``), ``round_ms`` (round wall time, eval included),
``round_ms_tail`` (the highest round-time percentile with at least ten
rounds beyond it), ``cell_s`` (build plus run), ``updates_per_s`` (client
updates delivered to aggregation per second of the round phase),
``final_acc`` (mean local test accuracy at the last round), ``total_mb``
(metered communication) and ``ops_ok_frac`` (cells that ran and passed
the output check, over cells attempted).  A workload of several cells
sums ``setup_s``, ``cell_s`` and ``total_mb`` over them and averages
``final_acc``.
An ``extra`` line before the result gives the plain median round time,
the tail's percentile and sample count, and ``ops_failed_frac``; a
``provenance`` line gives nproc, BLAS threads, numpy/BLAS versions, seed
and commit.  Both also go to ``perfbench/out/result-*.json``.

``--trace 1`` alternates untraced and traced repetitions and reports
per-layer self times and counts from the traced ones (see
``layertrace``), the tracing overhead, and the peak resident memory of
an untraced repetition (``run.peak_rss_mb``).  Peak memory is reported
here, without a bound, because it follows the largest warm-up cohort
that the seed's partition produces and so moves by about a quarter
between seeds on ``crowd``.  The traced run also writes a Chrome trace
of its last traced repetition to ``perfbench/out/``.

Each cell's outputs (final accuracy, metered MB, cluster count and
assignment) must repeat exactly across the repetitions of a run, and its
parameters must be finite.  For the pinned seed they must also match
``golden.json``: exactly for serial cells; for vector cells the metered
MB and clusters exactly and the accuracy within ``VECTOR_ACC_ATOL`` of
the serial reference.  A cell that raises or fails a check counts as
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: the seed ``golden.json`` pins
PINNED_SEED = 0
#: a tail percentile needs at least this many rounds beyond it
TAIL_BEYOND = 10
#: BLAS threads (see :func:`cap_blas_threads`)
BLAS_THREADS = 1
#: minimum wall seconds behind one sample of a central timing metric
BATCH_S = 5.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread (before numpy is imported).

    One thread, not ``nproc``: on a shared 2-vCPU machine two BLAS
    threads ran no faster and made round times spread about three times
    wider from run to run (resnet-vector median round time quartile spread
    0.22 with two threads, 0.07 with one, five seeds each).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the cells choose their engine components explicitly
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    return BLAS_THREADS


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def read_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        ref = open(head).read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            return open(path).read().strip()
        for line in open(os.path.join(ROOT, ".git", "packed-refs")):
            if line.rstrip().endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the benchmarked source tree (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                h.update(open(path, "rb").read())
    return h.hexdigest()


def provenance(seed: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # pragma: no cover - older numpy
        blas = "unknown"
    return {
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": read_commit(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------
def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def golden_mismatch(run, pin: dict) -> str | None:
    """Why a pinned-seed cell's outputs disagree with the pin, or None."""
    from repro.fl.execution import VECTOR_ACC_ATOL

    if run.total_mb != pin["total_mb"]:
        return f"total_mb {run.total_mb!r} != pinned {pin['total_mb']!r}"
    if run.clusters != pin["clusters"]:
        return f"clusters {run.clusters!r} != pinned {pin['clusters']!r}"
    if run.cell.backend == "serial":
        if run.final_acc != pin["final_acc"]:
            return f"final_acc {run.final_acc!r} != pinned {pin['final_acc']!r}"
        if run.assignment != pin["assignment"]:
            return "cluster assignment differs from the pin"
    elif abs(run.final_acc - pin["final_acc"]) > VECTOR_ACC_ATOL:
        return (
            f"final_acc {run.final_acc!r} not within {VECTOR_ACC_ATOL} of "
            f"the serial reference {pin['final_acc']!r}"
        )
    return None


class Checker:
    """Per-cell output checks and failure accounting for one run."""

    def __init__(self, workload: str, seed: int):
        self.first: dict[str, tuple] = {}
        self.pins = load_golden()[workload] if seed == PINNED_SEED else None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        self.reasons.append(f"{key}: {reason}")

    def check(self, run) -> bool:
        key = run.cell.key
        out = run.outputs()
        if not run.finite:
            self.fail(key, "non-finite parameters")
            return False
        ref = self.first.setdefault(key, out)
        if out != ref:
            self.fail(key, f"outputs {out} differ from the first repetition {ref}")
            return False
        if self.pins is not None:
            why = golden_mismatch(run, self.pins[key])
            if why is not None:
                self.fail(key, why)
                return False
        return True


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------
def run_repetition(cells, seed: int, checker: Checker) -> list | None:
    """Run every cell once; ``None`` if any cell raised or failed a check."""
    from cells import run_one

    runs = []
    ok = True
    for cell in cells:
        checker.attempted += 1
        try:
            run = run_one(cell, seed)
        except Exception:
            checker.fail(cell.key, traceback.format_exc(limit=3))
            ok = False
            continue
        ok = checker.check(run) and ok
        runs.append(run)
    return runs if ok else None


def closed_loop(seconds, step):
    """Call ``step(i)`` until ``seconds`` are spent, and at least twice:
    outputs are checked across repetitions, and ``--trace 1`` needs an
    untraced and a traced one.  A step starts only if the median step so
    far still fits."""
    start = time.perf_counter()
    durations: list[float] = []
    i = 0
    while True:
        t0 = time.perf_counter()
        step(i)
        durations.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - start
        if i >= 2 and elapsed + statistics.median(durations) > seconds:
            return


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it, or the median when that
    percentile would lie below it."""
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND - 1
    if 2 * (k + 1) < n:
        return statistics.median(xs), 50.0, n
    return xs[k], 100.0 * (k + 1) / n, n


def batches(reps: list[list]) -> list[list[list]]:
    """Consecutive repetitions grouped into batches of at least
    ``BATCH_S`` wall seconds; a shorter remainder joins the last batch."""
    out: list[list[list]] = []
    cur: list[list] = []
    wall = 0.0
    for rep in reps:
        cur.append(rep)
        wall += sum(r.wall_s for r in rep)
        if wall >= BATCH_S:
            out.append(cur)
            cur, wall = [], 0.0
    if cur:
        if out:
            out[-1].extend(cur)
        else:
            out.append(cur)
    return out


def end_to_end(reps: list[list], checker: Checker) -> tuple[dict, dict]:
    """The end-to-end metrics of one run.

    Central timings are medians over batches (:func:`batches`) of each
    batch's mean, so that every sample spans several seconds: on a shared
    machine whose speed switches every second or two, a median of single
    rounds or of one-second cells jumps between the fast and the slow
    mode.  The tail is taken over single rounds.
    """
    groups = batches(reps)

    def per_batch(value) -> float:
        return statistics.median(
            statistics.fmean(value(rep) for rep in group) for group in groups
        )

    def mean_round(group) -> float:
        rounds = [s for rep in group for run in rep for s in run.round_s]
        return statistics.fmean(rounds)

    rounds = [s for rep in reps for run in rep for s in run.round_s]
    delivered = sum(run.delivered for rep in reps for run in rep)
    tail_s, tail_pct, tail_n = tail(rounds)
    m = {
        "setup_s": (
            per_batch(lambda rep: sum(r.build_s + r.setup_s for r in rep)),
            "s"),
        "round_ms": (
            1e3 * statistics.median(mean_round(g) for g in groups), "ms"),
        "round_ms_tail": (1e3 * tail_s, "ms"),
        "cell_s": (per_batch(lambda rep: sum(r.wall_s for r in rep)), "s"),
        "updates_per_s": (delivered / sum(rounds), "1/s"),
        "final_acc": (statistics.fmean(r.final_acc for r in reps[0]), "frac"),
        "total_mb": (sum(r.total_mb for r in reps[0]), "MB"),
        "ops_ok_frac": (
            (checker.attempted - checker.failed) / checker.attempted, "frac"),
    }
    extra = {
        "round_ms_p50": 1e3 * statistics.median(rounds),
        "round_ms_tail_percentile": tail_pct,
        "round_samples": tail_n,
        "repetitions": len(reps),
        "batches": len(groups),
        "ops_failed_frac": checker.failed / checker.attempted,
    }
    return m, extra


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter for this process (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cells, seed, seconds, checker):
    reps: list[list] = []

    def step(_i):
        rep = run_repetition(cells, seed, checker)
        if rep is not None:
            reps.append(rep)

    closed_loop(seconds, step)
    if not reps:
        return {}, {}
    return end_to_end(reps, checker)


def run_traced(workload, cells, seed, seconds, checker):
    """Alternate untraced and traced repetitions; per-layer metrics are
    means per traced repetition."""
    from layertrace import SPAN_METRICS, Tracer, install

    tracer = Tracer()
    plain_s: list[float] = []
    peaks: list[float] = []
    traced_s: list[float] = []
    totals: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    extra_sums = {"sim_s": 0.0, "wire_up": 0, "logical_up": 0}

    def step(i):
        if i % 2 == 0:
            reset_peak_rss()
            rep = run_repetition(cells, seed, checker)
            if rep is not None:
                plain_s.append(sum(r.wall_s for r in rep))
                peaks.append(peak_rss_mb())
            return
        tracer.clear()
        install(tracer)
        try:
            root = tracer.open("bench.cell")
            try:
                rep = run_repetition(cells, seed, checker)
            finally:
                tracer.close(root)
        finally:
            tracer.restore()
        if rep is None:
            return
        traced_s.append(sum(r.wall_s for r in rep))
        for name, (self_s, calls) in tracer.self_times().items():
            acc = totals.setdefault(name, [0.0, 0])
            acc[0] += self_s
            acc[1] += calls
        for name, n in tracer.counts.items():
            counts[name] = counts.get(name, 0) + n
        for r in rep:
            extra_sums["sim_s"] += r.sim_s
            extra_sums["wire_up"] += r.wire_up
            extra_sums["logical_up"] += r.logical_up
        os.makedirs(OUT, exist_ok=True)
        tracer.write_chrome(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))

    closed_loop(seconds, step)
    if not traced_s or not plain_s:
        return {}, {}
    n = len(traced_s)
    m: dict[str, tuple] = {}
    for name in SPAN_METRICS:
        self_s, calls = totals.get(name, (0.0, 0))
        m[f"{name}.self_ms"] = (1e3 * self_s / n, "ms")
        m[f"{name}.calls"] = (calls / n, "count")
    tasks = counts.get("execution.tasks", 0)
    executed = counts.get("scheduler.executed", 0)
    delivered = totals.get("scheduler.deliver", (0.0, 0))[1]
    m["execution.tasks"] = (tasks / n, "count")
    m["execution.fallback_tasks"] = (
        counts.get("execution.fallback_tasks", 0) / n, "count")
    m["execution.batched_frac"] = (
        counts.get("execution.batched_tasks", 0) / tasks if tasks else 0.0,
        "frac")
    m["codecs.wire_ratio"] = (
        extra_sums["wire_up"] / extra_sums["logical_up"]
        if extra_sums["logical_up"] else 0.0, "frac")
    m["scheduler.useful_frac"] = (
        delivered / executed if executed else 0.0, "frac")
    m["scheduler.sim_s"] = (extra_sums["sim_s"] / n, "s")
    traced = statistics.median(traced_s)
    plain = statistics.median(plain_s)
    m["trace.cell_s"] = (traced, "s")
    m["trace.untraced_cell_s"] = (plain, "s")
    m["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    m["run.peak_rss_mb"] = (max(peaks), "MB")
    return m, {"traced_repetitions": n, "untraced_repetitions": len(plain_s)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    blas_threads = cap_blas_threads()
    try:
        import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from cells import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cells = WORKLOADS[args.workload]
    prov = provenance(args.seed, blas_threads)
    print("provenance " + json.dumps(prov, sort_keys=True))
    checker = Checker(args.workload, args.seed)
    if args.trace:
        metrics, extra = run_traced(
            args.workload, cells, args.seed, args.seconds, checker)
    else:
        metrics, extra = run_untraced(cells, args.seed, args.seconds, checker)
    for reason in checker.reasons:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    os.makedirs(OUT, exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": prov, "extra": extra, **result}
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
