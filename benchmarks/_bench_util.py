"""Shared helpers for the bench scripts' machine-readable outputs.

Every ``bench_*.py`` emits its result row twice: the human-readable
``benchmarks/out/<name>.txt`` (unchanged) and a JSON record written
through :func:`write_bench_json` — ``benchmarks/out/BENCH_<n>.json`` for
the numbered per-PR perf-trajectory files the ROADMAP asks for
(comparable across commits; CI uploads them as artifacts), or any other
stable name for per-bench rows.

Run as a script with ``--collect`` to merge every ``BENCH_*.json``
present under ``benchmarks/out/`` into one ``TRAJECTORY.json`` — the
numbered rows in PR order plus a tiny summary header — which CI uploads
next to the per-bench rows so one artifact tells the whole perf story::

    PYTHONPATH=src python benchmarks/_bench_util.py --collect

``--gate N --baseline <committed BENCH_N.json>`` is the perf-regression
gate: it compares the freshly generated ``benchmarks/out/BENCH_N.json``
against the committed baseline and exits non-zero when any gated wall
clock regressed by more than ``--max-regression`` (default 25%).  Every
timing is first divided by ``calib_s``, the wall clock of a fixed
calibration kernel (:func:`calibration_seconds`) measured in the same
job, so a slower CI runner cannot fail the gate, but a genuinely slower
code path — serial or vectorized — does::

    PYTHONPATH=src python benchmarks/_bench_util.py --gate 10 \\
        --baseline /tmp/BENCH_10.baseline.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).parent / "out"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: the timing keys :func:`gate_regressions` gates, each wherever the
#: baseline row has it (cell wall clocks, per-call codec encode time)
GATED_KEYS = ("serial_s", "vector_s", "encode_us")


def write_bench_json(row: dict, name: str) -> Path:
    """Write one bench row as ``benchmarks/out/<name>.json`` and return
    the path.  Keys are sorted so diffs between commits stay readable."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(row, indent=2, sort_keys=True) + "\n")
    return path


def collect_trajectory(out_dir: Path = OUT_DIR) -> dict:
    """Merge every ``BENCH_<n>.json`` under ``out_dir`` into one record.

    Returns ``{"benches": {"<n>": row, ...}, "count": N, "missing":
    [...]}`` with rows keyed (and ordered) by their PR number; ``missing``
    lists the gaps in the numbered sequence so a trajectory reader can
    tell "bench never ran in this CI job" from "bench was never written".
    """
    rows: dict[int, dict] = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        m = _BENCH_RE.match(path.name)
        if not m:
            continue
        try:
            rows[int(m.group(1))] = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            rows[int(m.group(1))] = {"error": f"unreadable: {exc}"}
    numbers = sorted(rows)
    missing = (
        [n for n in range(numbers[0], numbers[-1] + 1) if n not in rows]
        if numbers
        else []
    )
    return {
        "benches": {str(n): rows[n] for n in numbers},
        "count": len(rows),
        "missing": missing,
    }


def calibration_seconds(iters: int = 2000) -> float:
    """Wall clock of one pass of a fixed numpy calibration kernel.

    One iteration is a 64x64 float32 GEMM plus a transposed copy of the
    product, the size of the simulator's per-step kernels, so the
    calibration tracks both BLAS throughput and per-call interpreter
    overhead, the two costs the bench cells are made of.  Callers take
    the best of several passes interleaved with what they time.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    out = np.empty_like(a)
    t0 = time.perf_counter()
    for _ in range(iters):
        np.copyto(out, (a @ b).T)
    return time.perf_counter() - t0


def gate_regressions(
    fresh: dict, baseline: dict, max_regression: float = 0.25
) -> list[str]:
    """Perf-gate comparison of a fresh bench row against its baseline.

    For every cell in the baseline's ``rows``, each :data:`GATED_KEYS`
    timing the baseline row holds (at least one is required) is divided
    by the record's in-job ``calib_s`` and compared
    against the baseline's calibrated value — machine-speed-independent,
    so only a real slowdown of that code path can trip it.

    Args:
        fresh: the just-generated ``BENCH_N.json`` record.
        baseline: the committed record to compare against.
        max_regression: allowed fractional slowdown (0.25 = 25%).

    Returns:
        Human-readable failure strings; empty when the gate passes.
    """
    failures: list[str] = []
    base_rows = baseline.get("rows", {})
    fresh_rows = fresh.get("rows", {})
    if not base_rows:
        return ["baseline has no 'rows' to gate against"]
    try:
        base_calib = float(baseline["calib_s"])
        fresh_calib = float(fresh["calib_s"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"missing calibration timing 'calib_s' ({exc!r})"]
    for cell, base in base_rows.items():
        row = fresh_rows.get(cell)
        if row is None:
            failures.append(f"{cell}: present in baseline, missing from fresh bench")
            continue
        keys = [key for key in GATED_KEYS if key in base]
        if not keys:
            failures.append(f"{cell}: baseline row has none of {GATED_KEYS}")
        for key in keys:
            try:
                base_rel = float(base[key]) / base_calib
                fresh_rel = float(row[key]) / fresh_calib
            except (KeyError, TypeError, ZeroDivisionError) as exc:
                failures.append(f"{cell}: malformed timing row ({exc!r})")
                continue
            limit = (1.0 + max_regression) * base_rel
            if fresh_rel > limit:
                failures.append(
                    f"{cell}: {key}/calib_s {fresh_rel:.3f} exceeds baseline "
                    f"{base_rel:.3f} by more than {max_regression:.0%} "
                    f"(limit {limit:.3f})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--collect", action="store_true",
        help="merge benchmarks/out/BENCH_*.json into TRAJECTORY.json",
    )
    parser.add_argument(
        "--gate", type=int, metavar="N", default=None,
        help="gate the fresh benchmarks/out/BENCH_N.json against --baseline",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="committed BENCH_N.json to gate against (required with --gate)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional slowdown of each gated path (default 0.25)",
    )
    args = parser.parse_args(argv)
    if args.gate is not None:
        if args.baseline is None:
            parser.error("--gate requires --baseline")
        fresh_path = OUT_DIR / f"BENCH_{args.gate}.json"
        if not fresh_path.exists():
            print(f"gate FAILED: fresh bench {fresh_path} was never written")
            return 1
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(args.baseline.read_text())
        failures = gate_regressions(fresh, baseline, args.max_regression)
        if failures:
            print(f"perf gate FAILED for BENCH_{args.gate}:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print(
            f"perf gate passed for BENCH_{args.gate} "
            f"({len(baseline.get('rows', {}))} cells within "
            f"{args.max_regression:.0%} of baseline)"
        )
        return 0
    if not args.collect:
        parser.error("nothing to do; pass --collect or --gate")
    trajectory = collect_trajectory()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "TRAJECTORY.json"
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    names = ", ".join(f"BENCH_{n}" for n in sorted(trajectory["benches"]))
    print(
        f"collected {trajectory['count']} rows ({names or 'none'}) "
        f"into {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
