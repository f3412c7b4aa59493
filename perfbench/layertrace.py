"""Outside-in layer tracer for the benchmark's traced run.

Nothing in ``repro`` is instrumented.  Instead :func:`install` replaces
each traced function at the binding its caller looks it up through — a
module global such as ``repro.fl.server.local_sgd`` or a class attribute
such as ``Conv2d.forward`` — with a wrapper that records a span, and
:meth:`Tracer.restore` puts every original object back.

Spans live in memory as ``[name, parent, start, end]`` lists.  A span's
self time is its duration minus the durations of its direct children.
Calls are single-threaded (the benchmark runs the serial and vector
backends only), so children never overlap.  A call made while a span of
the same name is innermost (``super()`` chains, wrappers on a base class
and a subclass) is folded into that span instead of opening a new one.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

__all__ = ["SPAN_METRICS", "Tracer", "install"]

_SERIAL_LAYERS = ("Conv2d", "Dense", "MaxPool2d", "BatchNorm", "ReLU")
_COHORT_LAYERS = ("Conv2d", "Dense", "BatchNorm")

#: every span name :func:`install` records, in report order;
#: ``bench.cell`` is the benchmark's own root span per repetition, so its
#: self time is the part of a repetition no traced layer covers
SPAN_METRICS = (
    ["data.build", "nn.im2col", "nn.col2im"]
    + [f"nn.{c}.{op}" for c in _SERIAL_LAYERS for op in ("forward", "backward")]
    + ["nn.SGD.step"]
    + [f"nn.{c}.{op}" for c in _COHORT_LAYERS
       for op in ("forward_many", "backward_many")]
    + [
        "nn.CohortConvWorkspace.gather", "nn.CohortConvWorkspace.scatter",
        "nn.CohortSGD.step",
        "training.local_sgd", "training.local_sgd_many", "training.eval",
        "execution.map",
        "core.warmup", "core.select_weights",
        "clustering.proximity_matrix", "clustering.agglomerative",
        "clustering.cut",
        "codecs.encode", "codecs.decode",
        "aggregation.combine", "aggregation.combine_states",
        "algorithms.aggregate",
        "scheduler.wire_down", "scheduler.encode_upload", "scheduler.deliver",
        "population.advance",
        "server.evaluate", "server.select_clients",
        "bench.cell",
    ]
)


class Tracer:
    """In-memory span recorder with patch/restore bookkeeping."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, fn, name, count, when):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count[0]] += count[1](*args, **kwargs)
            if name is None or (stack and spans[stack[-1]][0] == name) or (
                when is not None and not when(*args, **kwargs)
            ):
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner, attr: str, name: str | None, count=None, when=None):
        """Replace ``owner.attr`` (a module global or a class's own
        attribute) with a span-recording wrapper.

        Args:
            name: span name; ``None`` records only ``count``.
            count: ``(counter, fn)``; ``fn(*args)`` is added to the
                counter on every call.
            when: predicate on the call's arguments; a call for which it
                is false opens no span.
        """
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        wrapped = self._wrap(fn, name, count, when)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put back every object :meth:`patch` replaced."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}`` over the recorded spans."""
        child = [0.0] * len(self.spans)
        for _name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, _parent, t0, t1) in enumerate(self.spans):
            out[name][0] += (t1 - t0) - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write_chrome(self, path: str) -> None:
        """Write the spans as a Chrome trace (``chrome://tracing``)."""
        base = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, parent, t0, t1) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _own(classes, attr):
    """The classes among ``classes`` that define ``attr`` themselves."""
    return [c for c in classes if attr in vars(c)]


def _subclasses_of(base, classes):
    """``base`` plus every class in the MRO of ``classes`` derived from it."""
    found = {base}
    for cls in classes:
        found.update(c for c in cls.__mro__ if issubclass(c, base))
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    import repro.algorithms.cfl as cfl
    import repro.algorithms.ifca as ifca
    import repro.algorithms.pacfl as pacfl
    import repro.algorithms.perfedavg as perfedavg
    import repro.core.fedclust as fedclust
    import repro.core.newcomer as newcomer
    import repro.experiments.configs as configs
    import repro.fl.execution as execution
    import repro.fl.server as server
    import repro.nn.layers as layers
    from repro.clustering.hierarchical import Dendrogram
    from repro.fl import registry
    from repro.fl.aggregation import Aggregator
    from repro.fl.codecs import Codec
    from repro.fl.scheduler import Scheduler
    from repro.fl.server import FederatedAlgorithm
    from repro.nn.conv_utils import CohortConvWorkspace
    from repro.nn.optim import SGD, CohortSGD

    p = tracer.patch

    # data
    p(configs, "make_dataset", "data.build")
    p(configs, "build_federated_dataset", "data.build")

    # nn: serial kernels, then cohort kernels
    p(layers, "im2col", "nn.im2col")
    p(layers, "col2im", "nn.col2im")
    for cls in map(vars(layers).get, _SERIAL_LAYERS):
        for op in ("forward", "backward"):
            p(cls, op, f"nn.{cls.__name__}.{op}")
    p(SGD, "step", "nn.SGD.step")
    for cls in map(vars(layers).get, _COHORT_LAYERS):
        p(cls, "forward_many", f"nn.{cls.__name__}.forward_many")
        p(cls, "backward_many", f"nn.{cls.__name__}.backward_many")
        if "backward_many_params_only" in vars(cls):
            # the first layer's backward: same op, without the input grad
            p(cls, "backward_many_params_only",
              f"nn.{cls.__name__}.backward_many")
    p(CohortConvWorkspace, "gather", "nn.CohortConvWorkspace.gather")
    p(CohortConvWorkspace, "scatter", "nn.CohortConvWorkspace.scatter")
    p(CohortSGD, "step", "nn.CohortSGD.step")

    # fl.training, at each module that calls it
    for mod in (server, newcomer):
        p(mod, "local_sgd", "training.local_sgd")
    for mod in (server, ifca, perfedavg, newcomer):
        p(mod, "evaluate_accuracy", "training.eval")

    p(execution, "local_sgd_many", "training.local_sgd_many",
      count=("execution.batched_tasks",
             lambda model, opt, xs, *args, **kwargs: len(xs)))
    p(execution, "evaluate_accuracy_many", "training.eval",
      count=("execution.batched_tasks", lambda model, xs, ys: len(xs)))

    # fl.execution: every dispatch, and the tasks the vector backend
    # hands back to the serial loop
    def tasks(self, algorithm, method, argslist):
        return len(argslist)

    for cls in registry.classes("backend").values():
        if cls.name in ("serial", "vector"):
            p(cls, "map", "execution.map", count=("execution.tasks", tasks))
    p(execution.CohortRunner, "_serial", None,
      count=("execution.fallback_tasks",
             lambda algorithm, method, argslist: len(argslist)))

    # core (FedClust round 0) and clustering
    p(FederatedAlgorithm, "_map_clients", "core.warmup",
      when=lambda self, method, argslist: method == "client_partial_weights")
    p(fedclust, "select_weights", "core.select_weights")
    for mod in (fedclust, cfl):
        p(mod, "proximity_matrix", "clustering.proximity_matrix")
    p(pacfl, "principal_angle_matrix", "clustering.proximity_matrix")
    for mod in (fedclust, cfl, pacfl):
        p(mod, "agglomerative", "clustering.agglomerative")
    for mod in (fedclust, pacfl):
        p(mod, "largest_gap_threshold", "clustering.cut")
    p(Dendrogram, "cut", "clustering.cut")
    p(Dendrogram, "cut_k", "clustering.cut")

    # fl.codecs and fl.aggregation: every registered implementation
    codecs = _subclasses_of(Codec, registry.classes("codec").values())
    for op in ("encode", "decode"):
        for cls in _own(codecs, op):
            p(cls, op, f"codecs.{op}")
    aggs = _subclasses_of(Aggregator, registry.classes("aggregator").values())
    for op in ("combine", "combine_states"):
        for cls in _own(aggs, op):
            p(cls, op, f"aggregation.{op}")

    # algorithms and fl.server
    algos = _subclasses_of(
        FederatedAlgorithm, registry.classes("algorithm").values()
    )
    for cls in _own(algos, "aggregate"):
        p(cls, "aggregate", "algorithms.aggregate")
    for op in ("evaluate", "select_clients"):
        for cls in _own(algos, op):
            p(cls, op, f"server.{op}")

    # fl.scheduler / fl.population / fl.network
    scheds = _subclasses_of(Scheduler, registry.classes("scheduler").values())
    for op in ("wire_down", "encode_upload", "deliver"):
        for cls in _own(scheds, op):
            p(cls, op, f"scheduler.{op}")
    for cls in _own(scheds, "advance_population"):
        p(cls, "advance_population", "population.advance")
    for cls in _own(scheds, "execute"):
        p(cls, "execute", None,
          count=("scheduler.executed",
                 lambda self, algo, round_idx, survivors: len(survivors)))
