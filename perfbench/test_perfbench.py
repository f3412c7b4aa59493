"""Tests of the benchmark itself: the tracer must not change results,
must leave the program as it found it, and must account time sanely; the
seed must reach the cell; the printed metrics must match BENCHMARK.json.

Cells here run at ``SMOKE_SCALE`` so the file takes seconds.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import time
from contextlib import redirect_stdout
from unittest import mock

import pytest

import run as bench

bench.import_repro()

import cells  # noqa: E402
from layertrace import Tracer, install  # noqa: E402
from repro.experiments import SMOKE_SCALE  # noqa: E402

SMOKE = SMOKE_SCALE.scaled(eval_every=1)


def smoke_cell(backend: str, method: str = "fedclust") -> cells.Cell:
    return cells.Cell("cifar10", method, "label_skew_20", SMOKE,
                      {"backend": backend})


def traced_run(cell, seed=0):
    tracer = Tracer()
    install(tracer)
    try:
        t0 = time.perf_counter()
        root = tracer.open("bench.cell")
        try:
            result = cells.run_one(cell, seed)
        finally:
            tracer.close(root)
        wall = time.perf_counter() - t0
        patched = list(tracer._patched)
    finally:
        tracer.restore()
    return result, tracer, wall, patched


@pytest.mark.parametrize("backend", ["serial", "vector"])
def test_traced_outputs_bitwise_equal_untraced(backend):
    cell = smoke_cell(backend)
    plain = cells.run_one(cell, 3)
    traced, tracer, _wall, _patched = traced_run(cell, 3)
    assert traced.outputs() == plain.outputs()
    assert traced.assignment is not None and traced.clusters >= 1
    assert tracer.spans, "the traced run recorded no spans"


def test_wrappers_restored_after_traced_run():
    import repro.fl.server as server
    import repro.nn.layers as layers

    originals = (layers.im2col, vars(layers.Conv2d)["forward"],
                 server.local_sgd)
    _result, _tracer, _wall, patched = traced_run(smoke_cell("serial"))
    assert len(patched) > 50
    for owner, attr, raw in patched:
        assert vars(owner)[attr] is raw, f"{owner}.{attr} not restored"
    assert (layers.im2col, vars(layers.Conv2d)["forward"],
            server.local_sgd) == originals


def test_self_times_do_not_exceed_wall_time():
    _result, tracer, wall, _patched = traced_run(smoke_cell("vector"))
    times = tracer.self_times()
    assert all(self_s >= -1e-9 for self_s, _calls in times.values())
    total = sum(self_s for self_s, _calls in times.values())
    root = tracer.spans[0]
    assert total == pytest.approx(root[3] - root[2], rel=1e-6, abs=1e-9)
    assert total <= wall
    for name in ("nn.Conv2d.forward_many", "training.local_sgd_many",
                 "clustering.agglomerative", "scheduler.deliver"):
        assert times[name][1] > 0, name


def test_reentrant_call_folds_into_outer_span():
    class Base:
        def step(self):
            return 1

    class Child(Base):
        def step(self):
            return super().step() + 1

    tracer = Tracer()
    tracer.patch(Base, "step", "x.step")
    tracer.patch(Child, "step", "x.step")
    try:
        assert Child().step() == 2
    finally:
        tracer.restore()
    assert tracer.self_times()["x.step"][1] == 1


def bench_json_metrics(trace: int) -> list[str]:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_reaches_cell_and_metrics_match_spec(trace, tmp_path, monkeypatch):
    seen = []
    real_build = cells.build_cell

    def spy(dataset, method, setting, scale, seed=0, **kwargs):
        seen.append(seed)
        return real_build(dataset, method, setting, SMOKE, seed=seed, **kwargs)

    monkeypatch.setattr(cells, "build_cell", spy)
    monkeypatch.setattr(bench, "OUT", str(tmp_path))
    monkeypatch.setitem(cells.WORKLOADS, "smoke", [
        smoke_cell("serial"),
        smoke_cell("vector", "fedavg"),
    ])
    out = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out):
        code = bench.main(["--workload", "smoke", "--seed", "7",
                           "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    assert seen and set(seen) == {7}
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 4 and result["failed"] == 0
    assert list(result["metrics"]) == bench_json_metrics(trace)


def test_output_check_counts_a_changed_output_as_failed():
    checker = bench.Checker("paper-serial", seed=5)
    run = cells.run_one(smoke_cell("serial"), 5)
    assert checker.check(run)
    bumped = dataclasses.replace(run, final_acc=run.final_acc + 1e-12)
    assert not checker.check(bumped)
    assert not checker.check(dataclasses.replace(run, finite=False))
    assert checker.failed == 2


def test_pinned_seed_compares_against_golden():
    checker = bench.Checker("paper-serial", seed=bench.PINNED_SEED)
    smoke = cells.run_one(smoke_cell("serial"), bench.PINNED_SEED)
    # a smoke-scale cell under the bench cell's key cannot match the pin
    assert smoke.cell.key in checker.pins
    assert not checker.check(smoke)
    assert "pinned" in checker.reasons[0]


def test_tail_has_ten_samples_beyond_it_and_never_undercuts_the_median():
    assert bench.tail([float(i) for i in range(32)]) == (21.0, 68.75, 32)
    assert bench.tail([float(i) for i in range(20)]) == (9.0, 50.0, 20)
    assert bench.tail([float(i) for i in range(15)]) == (7.0, 50.0, 15)
