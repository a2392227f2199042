"""The traced pass and the per-layer metrics it yields.

Counts come from the always-on ``MetricsRegistry`` totals of the pass
(they repeat exactly); ``*_self_s`` is host self time and ``*_virt_us``
virtual inclusive time, both from the layer wrappers of ``layers.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import layers
from layers import LAYERS, LayerTracer
from workloads import Clock, Pass, run_pass

__all__ = ["PER_LAYER", "VIRTUAL", "TracedPass", "traced_pass",
           "layer_metrics", "render_layer_table"]

#: (name, unit, better) of every per-layer metric, grouped by layer.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.self_s", "s", "lower"),
    ("sim.queue_depth_max", "count", "lower"),
    ("sim.slab_reuse_ratio", "ratio", "higher"),
    ("core.runtime.ops", "count", "lower"),
    ("core.runtime.self_s", "s", "lower"),
    ("core.runtime.retries", "count", "lower"),
    ("core.runtime.reroutes", "count", "lower"),
    ("core.runtime.route_fallbacks", "count", "lower"),
    ("core.runtime.retry_ratio", "ratio", "lower"),
    ("core.barrier.calls", "count", "lower"),
    ("core.barrier.self_s", "s", "lower"),
    ("core.barrier.virt_wait_us", "us", "lower"),
    ("core.transfer.sent", "count", "lower"),
    ("core.transfer.acked", "count", "lower"),
    ("core.transfer.failed", "count", "lower"),
    ("core.transfer.inline", "count", "higher"),
    ("core.transfer.ack_ratio", "ratio", "higher"),
    ("core.transfer.self_s", "s", "lower"),
    ("core.transfer.virt_us", "us", "lower"),
    ("core.service.enqueued", "count", "lower"),
    ("core.service.dropped_forwards", "count", "lower"),
    ("core.service.self_s", "s", "lower"),
    ("ntb.dma_requests", "count", "lower"),
    ("ntb.dma_bytes", "bytes", "lower"),
    ("ntb.dma_descriptors", "count", "lower"),
    ("ntb.dma_desc_per_request", "ratio", "lower"),
    ("ntb.dma_failed", "count", "lower"),
    ("ntb.db_rung", "count", "lower"),
    ("ntb.db_irqs", "count", "lower"),
    ("ntb.db_dropped", "count", "lower"),
    ("ntb.pio_master_aborts", "count", "lower"),
    ("ntb.self_s", "s", "lower"),
    ("ntb.dma_virt_us", "us", "lower"),
    ("pcie.transfers", "count", "lower"),
    ("pcie.link_bytes", "bytes", "lower"),
    ("pcie.link_dropped_bytes", "bytes", "lower"),
    ("pcie.link_util_max", "ratio", "lower"),
    ("pcie.self_s", "s", "lower"),
    ("pcie.virt_us", "us", "lower"),
    ("host.calls", "count", "lower"),
    ("host.irqs", "count", "lower"),
    ("host.self_s", "s", "lower"),
    ("host.virt_us", "us", "lower"),
    ("memory.calls", "count", "lower"),
    ("memory.self_s", "s", "lower"),
    ("fabric.route_calls", "count", "lower"),
    ("fabric.distance_calls", "count", "lower"),
    ("fabric.self_s", "s", "lower"),
    ("fabric.heartbeat_misses", "count", "lower"),
    ("faults.severs", "count", "lower"),
    ("obsv.spans", "count", "lower"),
    ("obsv.span_calls", "count", "lower"),
    ("obsv.spans_self_s", "s", "lower"),
    ("obsv.metric_calls", "count", "lower"),
    ("obsv.metrics_self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
#: Printed but not in the JSON result (nor in ``BENCHMARK.json``): virtual
#: time is deterministic, so on the fault-free workloads these read the
#: same for every seed, and a listed time must be measured afresh.
VIRTUAL = frozenset(name for name, unit, _better in PER_LAYER
                    if unit == "us")

#: layer -> the metric name of its host self time.
SELF_METRIC = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_METRIC["obsv.spans"] = "obsv.spans_self_s"
SELF_METRIC["obsv.metrics"] = "obsv.metrics_self_s"


class _TracedClock(Clock):
    """Clock on the tracer's checkpoints that also splits each layer's
    self time into the excluded intervals (set-up, bookkeeping) and the
    body."""

    def __init__(self, tracer: LayerTracer):
        super().__init__(tracer.checkpoint)
        self.tracer = tracer
        self.excluded_self = [0.0] * len(LAYERS)
        self._snapshot: list = []

    def exclude_begin(self, kind: str) -> None:
        super().exclude_begin(kind)
        self._snapshot = list(self.tracer.self_s)

    def exclude_end(self) -> None:
        if self._begin is None:
            return
        super().exclude_end()
        for i, (before, after) in enumerate(zip(self._snapshot,
                                                self.tracer.self_s)):
            self.excluded_self[i] += after - before


@dataclass
class TracedPass:
    ps: Pass
    tracer: LayerTracer
    #: host self seconds per layer (order of LAYERS), set-up and
    #: bookkeeping excluded.
    body_self_s: list


def traced_pass(workload: str, seed: int) -> TracedPass:
    """One pass with every layer wrapped; wrappers go in before the first
    cluster is built and come out when the pass ends."""
    tracer = LayerTracer()
    installed = layers.install(tracer)
    try:
        tracer.start()
        tracer.checkpoint()
        tracer.self_s[:] = [0.0] * len(LAYERS)
        clock = _TracedClock(tracer)
        ps = run_pass(workload, seed, clock, lambda body:
                      tracer.wrap_generator_function(body, "bench",
                                                     "bench.body"))
        tracer.stop()
    finally:
        layers.uninstall(installed)
    body = [total - setup for total, setup
            in zip(tracer.self_s, clock.excluded_self)]
    return TracedPass(ps, tracer, body)


def _sum(counts: dict, pattern: str) -> float:
    regex = re.compile(pattern)
    return float(sum(v for k, v in counts.items() if regex.match(k)))


def layer_metrics(tp: TracedPass, reference: Pass) -> tuple[dict, float]:
    """Per-layer metrics of a traced pass; also returns the residual of
    the layer table against the traced wall_s, as a share of it."""
    counts, tracer = tp.ps.counts, tp.tracer
    calls, virt = tracer.calls, tracer.virt_us

    def layer_calls(layer: str, prefix: str = "") -> float:
        return float(sum(n for name, n in calls.items()
                         if tracer.name_layer.get(name) == layer
                         and not name.startswith("process:")
                         and name.startswith(prefix)))

    def layer_virt(layer: str, prefix: str = "") -> float:
        return float(sum(v for name, v in virt.items()
                         if tracer.name_layer.get(name) == layer
                         and name.startswith(prefix)))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    pe = r"^pe\d+\."
    channel = pe + r"[^.]+\.(data|bypass)\."
    ntb = r"^host\d+\.ntb\.[^.<]+\."
    ops = sum(_sum(counts, pe + key + "$")
              for key in ("puts", "gets", "amos", "barriers"))
    retries = _sum(counts, pe + "retries$")
    sent = _sum(counts, channel + "sent$")
    acked = _sum(counts, channel + "acked$")
    requests = _sum(counts, ntb + r"dma\.requests$")
    descriptors = _sum(counts, ntb + r"dma\.descriptors$")
    events = counts.get("sim.events_dispatched", 0.0)
    values = {
        "sim.events": events,
        "sim.events_per_s": ratio(events, reference.wall_s),
        "sim.queue_depth_max": float(tracer.queue_depth_max),
        "sim.slab_reuse_ratio": ratio(counts.get("sim.slab_reused", 0.0),
                                      counts.get("sim.events_scheduled", 0)),
        "core.runtime.ops": ops,
        "core.runtime.retries": retries,
        "core.runtime.reroutes": _sum(counts, pe + "reroutes$"),
        "core.runtime.route_fallbacks": _sum(counts, pe + "route_fallbacks$"),
        "core.runtime.retry_ratio": ratio(retries, ops),
        "core.barrier.calls": _sum(counts, pe + "barriers$"),
        "core.barrier.virt_wait_us": layer_virt("core.barrier"),
        "core.transfer.sent": sent,
        "core.transfer.acked": acked,
        "core.transfer.failed": _sum(counts, channel + "failed$"),
        "core.transfer.inline": _sum(counts, channel + "inline$"),
        "core.transfer.ack_ratio": ratio(acked, sent),
        "core.transfer.virt_us": layer_virt("core.transfer"),
        "core.service.enqueued": float(calls.get("ShmemService.enqueue", 0)),
        "core.service.dropped_forwards": _sum(
            counts, pe + r"service\.dropped_forwards$"),
        "ntb.dma_requests": requests,
        "ntb.dma_bytes": _sum(counts, ntb + r"dma\.bytes$"),
        "ntb.dma_descriptors": descriptors,
        "ntb.dma_desc_per_request": ratio(descriptors, requests),
        "ntb.dma_failed": _sum(counts, ntb + r"dma\.failed$"),
        "ntb.db_rung": _sum(counts, ntb + r"db\.rung$"),
        "ntb.db_irqs": _sum(counts, ntb + r"db\.irqs$"),
        "ntb.db_dropped": _sum(counts, ntb + r"db\.dropped$"),
        "ntb.pio_master_aborts": _sum(counts, ntb + r"pio\.master_aborts$"),
        "ntb.dma_virt_us": layer_virt("ntb", "NtbDriver.dma_"),
        "pcie.transfers": float(calls.get("Link.transfer", 0)),
        "pcie.link_bytes": _sum(counts, r".*<->.*\.(a2b|b2a)\.bytes$"),
        "pcie.link_dropped_bytes": _sum(
            counts, r".*<->.*\.(a2b|b2a)\.dropped_bytes$"),
        "pcie.link_util_max": tp.ps.link_util_max,
        "pcie.virt_us": layer_virt("pcie"),
        "host.calls": layer_calls("host", "Cpu."),
        "host.irqs": float(calls.get("InterruptController.raise_msi", 0)),
        "host.virt_us": layer_virt("host", "Cpu."),
        "memory.calls": layer_calls("memory"),
        "fabric.route_calls": float(sum(
            n for name, n in calls.items()
            if name.endswith((".resolve", ".forward_port"))
            and tracer.name_layer.get(name) == "fabric")),
        "fabric.distance_calls": float(calls.get("Router.live_distances", 0)),
        "fabric.heartbeat_misses": counts.get("heartbeat.misses", 0.0),
        "faults.severs": counts.get("faults.severs", 0.0),
        "obsv.spans": float(calls.get("ShmemScope.span_open", 0)
                            + calls.get("ShmemScope.instant", 0)),
        "obsv.span_calls": layer_calls("obsv.spans"),
        "obsv.metric_calls": layer_calls("obsv.metrics"),
        "trace.overhead_ratio": ratio(tp.ps.wall_s, reference.wall_s),
    }
    for layer, seconds in zip(LAYERS, tp.body_self_s):
        values[SELF_METRIC[layer]] = seconds
    residual = ratio(sum(tp.body_self_s) - tp.ps.wall_s, tp.ps.wall_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in PER_LAYER}
    return metrics, residual


def render_layer_table(tp: TracedPass, metrics: dict) -> str:
    """The exclusive host-time split (sums to 100% of the traced
    wall_s), then every per-layer metric."""
    wall = tp.ps.wall_s
    lines = [f"  layer split of traced wall_s = {wall:.4f} s "
             "(exclusive host self time)"]
    for layer, seconds in sorted(zip(LAYERS, tp.body_self_s),
                                 key=lambda item: -item[1]):
        lines.append(f"    {layer:<14}{seconds:>10.4f} s "
                     f"{100 * seconds / wall:>6.1f}%")
    lines.append(f"    {'total':<14}{sum(tp.body_self_s):>10.4f} s "
                 f"{100 * sum(tp.body_self_s) / wall:>6.1f}%")
    lines.append("  per-layer metrics")
    for name, entry in metrics.items():
        lines.append(f"    {name:<32}{entry['value']:>16.6g}  "
                     f"{entry['unit']}")
    return "\n".join(lines)
