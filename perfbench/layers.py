"""Per-layer numbers from a traced run: span self times and cache deltas.

The serving stack already records spans at its layer boundaries
(``serve.*``, ``stage.<Stage>``, ``engine.pack``, ``engine.forward``).
:class:`LayerProbes` adds benchmark-side spans around the calls a traced run
needs split further: each conv layer's ``forward_packed``, the packed
readout and the trainer's two scalers.  Probes and tracing are installed in
the traced run only; the timed end-to-end runs execute unmodified code.

A span's self time is its duration minus the part of its window that its
children cover.  Every timing metric is the median self time per call, in
milliseconds, except ``gnn.forward_ms``, the whole fused forward (its self
time, what remains after the convs and the readout, is ``gnn.head_ms``).
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.gnn.models as gnn_models
from repro.obs import span as obs_span

#: the spans that run only on a graph-cache miss (the frontend layers)
FRONTEND_SPANS = ("stage.ParseStage", "stage.GraphStage", "stage.EncodeStage")


def covered_s(intervals: Iterable[Tuple[float, float]], lo: float,
              hi: float) -> float:
    """Length of the union of *intervals*, each clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time_s(span) -> float:
    """The span's duration minus the time its children cover."""
    children = [(child.start_s, child.end_s) for child in span.children]
    return span.duration_s - covered_s(children, span.start_s, span.end_s)


def walk_distinct(traces) -> Iterator[Tuple[object, Optional[object]]]:
    """Every ``(span, parent)`` of *traces*, each span once.

    A coalesced micro-batch's ``serve.execute`` span is grafted into every
    request it served, so it is reached once per request; it counts once.
    """
    seen = set()
    stack = [(trace.root, None) for trace in traces]
    while stack:
        node, parent = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node, parent
        stack.extend((child, node) for child in reversed(node.children))


def queue_wait_s(root) -> float:
    """How long a request waited between admission and execution.

    A queued request carries a ``serve.queue`` span.  An inline request
    (the jobs workloads) has no queue: its wait is the gap between the end
    of ``serve.submit`` and the start of the first execution span.
    """
    queue = [child for child in root.children if child.name == "serve.queue"]
    if queue:
        return queue[0].duration_s
    submit = [child for child in root.children if child.name == "serve.submit"]
    later = [child.start_s for child in root.children
             if child.name != "serve.submit"]
    if not submit or not later:
        return 0.0
    return max(min(later) - submit[0].end_s, 0.0)


def hit_share(before, after) -> float:
    """Hits over lookups between two snapshots of one cache's counters
    (0.0 when there was no lookup)."""
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def _median_ms(values: Sequence[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


class LayerProbes:
    """Benchmark-side spans around one trainer's conv layers, the packed
    readout and the scalers; a context manager that restores everything.

    Each probe is an instance attribute shadowing the class method (or, for
    the readout, the module attribute ``repro.gnn.models.packed_readout``
    the model calls through), so removing it restores the original call.
    """

    def __init__(self, trainer) -> None:
        self._trainer = trainer
        self._undo: List = []

    def __enter__(self) -> "LayerProbes":
        for index, conv in enumerate(self._trainer.model.convs):
            self._wrap_attribute(conv, "forward_packed", f"gnn.conv.{index}")
        self._wrap_attribute(self._trainer.aux_scaler, "transform", "ml.scale")
        self._wrap_attribute(self._trainer.target_scaler,
                             "inverse_transform", "ml.scale")
        original = gnn_models.packed_readout
        gnn_models.packed_readout = _spanned(original, "gnn.readout")
        self._undo.append(
            lambda: setattr(gnn_models, "packed_readout", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap_attribute(self, owner, name: str, span_name: str) -> None:
        object.__setattr__(owner, name,
                           _spanned(getattr(owner, name), span_name))
        self._undo.append(lambda: object.__delattr__(owner, name))


def _spanned(function, span_name: str):
    def wrapper(*args, **kwargs):
        with obs_span(span_name):
            return function(*args, **kwargs)
    return wrapper


def span_metrics(timed_traces, frontend_traces) -> Dict[str, float]:
    """Per-layer timing metrics from the timed phase's traces.

    The frontend layers (parse, build, encode) run only on cache misses, so
    their spans also come from *frontend_traces*, the traced cache warm-up:
    on the warm workloads that is the only place they run.  A ParseStage
    span covers one encode batch's misses; every miss batch in these
    workloads holds one kernel, and the division by the enclosing
    ``serve.encode`` batch size keeps the figure per kernel regardless.
    """
    self_s: Dict[str, List[float]] = {}
    duration_s: Dict[str, List[float]] = {}
    attributes: Dict[str, List[float]] = {"pack": [], "encode_batch": []}

    def record(traces, names=None) -> None:
        for node, parent in walk_distinct(traces):
            if names is not None and node.name not in names:
                continue
            value = self_time_s(node)
            if node.name in FRONTEND_SPANS and parent is not None:
                value /= max(int(parent.attributes.get("batch_size", 1)), 1)
            self_s.setdefault(node.name, []).append(value)
            duration_s.setdefault(node.name, []).append(node.duration_s)
            if node.name == "engine.pack" and names is None:
                attributes["pack"].append(node.attributes["num_graphs"])
            if node.name == "serve.encode" and names is None:
                attributes["encode_batch"].append(
                    node.attributes["batch_size"])

    record(timed_traces)
    record(frontend_traces, names=FRONTEND_SPANS)

    roots = [trace.root for trace in timed_traces
             if trace.root.name == "serve.request"]
    waits = [queue_wait_s(root) for root in roots]
    # a queued request's execution overhead is serve.execute's self time;
    # an inline request runs under its root, whose self time is that overhead
    execute = self_s.get("serve.execute") or [
        self_time_s(root) for root in roots
        if root.find("serve.execute") is None]
    metrics = {
        "serve.queue_wait_ms.p50":
            float(np.percentile(waits, 50)) * 1e3 if waits else 0.0,
        "serve.queue_wait_ms.p99":
            float(np.percentile(waits, 99)) * 1e3 if waits else 0.0,
        "serve.execute_ms": _median_ms(execute),
        "serve.submit_ms": _median_ms(self_s.get("serve.submit", [])),
        "serve.batch_size.mean": _mean(attributes["encode_batch"]),
        "api.encode_ms": _median_ms(self_s.get("serve.encode", [])),
        "clang.parse_ms": _median_ms(self_s.get("stage.ParseStage", [])),
        "paragraph.build_ms": _median_ms(self_s.get("stage.GraphStage", [])),
        "paragraph.encode_ms": _median_ms(self_s.get("stage.EncodeStage", [])),
        "gnn.pack_ms": _median_ms(self_s.get("engine.pack", [])),
        "gnn.packs": float(len(attributes["pack"])),
        "gnn.graphs_per_pack.mean": _mean(attributes["pack"]),
        "gnn.forward_ms": _median_ms(duration_s.get("engine.forward", [])),
        "gnn.readout_ms": _median_ms(self_s.get("gnn.readout", [])),
        "gnn.head_ms": _median_ms(self_s.get("engine.forward", [])),
        "ml.scale_ms": _median_ms(self_s.get("ml.scale", [])),
    }
    for name in sorted(self_s):
        if name.startswith("gnn.conv."):
            metrics[f"{name}_ms"] = _median_ms(self_s[name])
    return metrics


def self_time_shares(traces) -> Dict[str, float]:
    """Each span name's share of the total self time of *traces*."""
    totals: Dict[str, float] = {}
    for node, _ in walk_distinct(traces):
        totals[node.name] = totals.get(node.name, 0.0) + self_time_s(node)
    grand = sum(totals.values()) or 1.0
    return {name: value / grand for name, value in totals.items()}


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0
