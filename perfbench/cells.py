"""The benchmark's workloads: which experiment cells each one runs, and
how one run of a cell is timed and checked.

A workload is a fixed list of cells (``repro.experiments`` coordinates).
One *repetition* runs every cell of the list once, in order, in this
process; the benchmark repeats it in a closed loop.  Every repetition of
a run uses the same seed, so every repetition must produce the same
outputs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments import BENCH_SCALE
from repro.experiments.runner import build_cell
from repro.fl.scheduler import nominal_cohort

#: every workload records one ``History`` entry per round
ROUND_SCALE = BENCH_SCALE.scaled(eval_every=1)

#: 1000 clients of about 25 samples each; full-width LeNet-5.  Twice the
#: bench rounds: the 8-round accuracy still swings with the seed's
#: one-shot clustering, and the tail percentile needs the samples.
CROWD_SCALE = ROUND_SCALE.scaled(
    num_clients=1000,
    rounds=16,
    n_samples=25_000,
    sample_rate=0.1,
    local_epochs=1,
    label_set_pool=10,
    model_width=1.0,
)


@dataclass(frozen=True)
class Cell:
    """One experiment cell: ``build_cell`` coordinates plus engine options."""

    dataset: str
    method: str
    setting: str
    scale: object
    fl_options: dict
    config_overrides: dict = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.fl_options["backend"]

    @property
    def key(self) -> str:
        return f"{self.dataset}/{self.method}/{self.setting}"


CROWD_OPTIONS = {
    "backend": "vector",
    "codec": "topk",
    "aggregator": "trimmed",
    "scheduler": "semisync",
    "network": "stragglers",
    "population": "churn:session=20,gap=5",
}

WORKLOADS: dict[str, list[Cell]] = {
    "paper-serial": [
        Cell("cifar10", "fedclust", "label_skew_20", ROUND_SCALE,
             {"backend": "serial"}),
    ],
    "resnet-vector": [
        Cell("cifar100", "fedclust", "label_skew_20", ROUND_SCALE,
             {"backend": "vector"}),
    ],
    "crowd": [
        Cell("fmnist", "fedclust", "label_skew_20", CROWD_SCALE,
             CROWD_OPTIONS, {"eval_clients": 100}),
    ],
}


@dataclass
class CellRun:
    """Timings and outputs of one finished cell."""

    cell: Cell
    build_s: float
    setup_s: float
    wall_s: float
    round_s: list[float]
    delivered: int
    sim_s: float
    wire_up: int
    logical_up: int
    final_acc: float
    total_mb: float
    clusters: int | None
    assignment: str | None
    finite: bool

    def outputs(self) -> tuple:
        """What must repeat exactly across repetitions of one seed."""
        return (self.final_acc, self.total_mb, self.clusters, self.assignment)


def delivered_updates(algo) -> int:
    """Client updates that reached aggregation, counted from the history.

    Event-driven schedulers list each delivered upload in
    ``extras["events"]``.  The sync scheduler delivers its whole cohort
    minus the clients the network skipped or a deadline cut (the
    workloads run without dropout).
    """
    assert algo.config.dropout_rate == 0.0
    cohort = nominal_cohort(algo.fed.num_clients, algo.config.sample_rate)
    total = 0
    for rec in algo.history.records:
        if "events" in rec.extras:
            total += len(rec.extras["events"])
        else:
            total += cohort - len(rec.extras.get("unavailable", ())) - len(
                rec.extras.get("deadline_dropped", ())
            )
    return total


def params_finite(algo) -> bool:
    """Every client's evaluation model is finite after the run."""
    seen: set[int] = set()
    for cid in range(algo.fed.num_clients):
        params = algo.eval_params_for_client(cid)
        if id(params) in seen:
            continue
        seen.add(id(params))
        if not np.isfinite(params).all():
            return False
    return True


def run_one(cell: Cell, seed: int) -> CellRun:
    """Build and run one cell; time set-up and rounds; read its outputs."""
    t0 = time.perf_counter()
    algo = build_cell(
        cell.dataset, cell.method, cell.setting, cell.scale, seed=seed,
        config_overrides=cell.config_overrides, fl_options=cell.fl_options,
    )
    t1 = time.perf_counter()
    history = algo.run()
    t2 = time.perf_counter()
    assignment = getattr(algo, "cluster_of", None)
    return CellRun(
        cell=cell,
        build_s=t1 - t0,
        setup_s=history.setup_seconds,
        wall_s=t2 - t0,
        round_s=[r.seconds for r in history.records],
        delivered=delivered_updates(algo),
        sim_s=history.total_sim_seconds(),
        wire_up=algo.comm.total_up,
        logical_up=algo.comm.total_logical_up,
        final_acc=float(history.final_accuracy()),
        total_mb=float(algo.comm.total_mb()),
        clusters=getattr(algo, "num_clusters", None),
        assignment=None if assignment is None else hashlib.sha256(
            np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
        ).hexdigest(),
        finite=params_finite(algo),
    )
