"""Outside-in layer tracing for the benchmark's traced run.

:func:`install` wraps the public entry points of every ``src/repro``
layer from here, outside the program: each call becomes a span with a
name, host start and end, virtual start and end, a parent and the op id
shared by all spans of one ``PE`` call.  Generator entry points get a
wrapper generator that times each resume.  Processes started through
``Environment.process`` are wrapped the same way and charged to the
layer whose module defines the process body, so a service thread's
resumes land in ``core.service`` rather than in the kernel.

Self time is kept exactly as it happens: a resume's duration minus the
part its child spans cover, added to the span's layer.  Every host
second between :meth:`LayerTracer.start` and :meth:`LayerTracer.stop`
therefore lands in exactly one layer; what no wrapper covers stays with
the caller (``bench`` for the benchmark's own code and the wrappers'
overhead).  :func:`uninstall` puts every original back.
"""

from __future__ import annotations

import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["LAYERS", "ENTRY_POINTS", "LayerTracer", "install", "uninstall"]

#: the layers of the split, named by ``src/repro`` module.
LAYERS = ("sim", "core.runtime", "core.barrier", "core.transfer",
          "core.service", "ntb", "pcie", "host", "memory", "fabric",
          "faults", "obsv.spans", "obsv.metrics", "bench")

#: ``repro`` sub-module prefix -> layer (longest prefix wins).
MODULE_LAYERS = {
    "sim": "sim",
    "core": "core.runtime",
    "core/barrier": "core.barrier",
    "core/transfer": "core.transfer",
    "core/fastpath": "core.transfer",
    "core/service": "core.service",
    "ntb": "ntb",
    "pcie": "pcie",
    "host": "host",
    "memory": "memory",
    "fabric": "fabric",
    "faults": "faults",
    "obsv": "obsv.spans",
    "obsv/metrics": "obsv.metrics",
}

#: (module, class, methods) of each layer's public entry points.  ``None``
#: means every public method the class itself defines.  Base classes come
#: before subclasses; a subclass only gets wrappers for methods it
#: overrides or inherits from an unlisted (private) base.
ENTRY_POINTS = (
    ("repro.sim.core", "Environment", ("run",)),
    ("repro.core.api", "PE", None),
    ("repro.core.barrier", "RingBarrier",
     ("wait", "on_token", "on_notify", "on_link_event")),
    ("repro.core.barrier", "ChainBarrier",
     ("wait", "on_token", "on_notify", "on_link_event")),
    ("repro.core.barrier", "DisseminationBarrier",
     ("wait", "on_token", "on_notify", "on_link_event")),
    ("repro.core.barrier", "CentralizedBarrier",
     ("wait", "on_token", "on_notify", "on_link_event")),
    ("repro.core.transfer", "DataMailbox",
     ("send", "recv_header", "ack", "on_ack", "fail_outstanding")),
    ("repro.core.transfer", "BypassMailbox",
     ("send", "send_inline", "ack", "on_ack", "fail_outstanding")),
    ("repro.core.service", "ShmemService",
     ("enqueue", "stop", "apply_amo_local")),
    ("repro.ntb.driver", "NtbDriver", None),
    ("repro.ntb.dma", "DmaEngine", ("submit",)),
    ("repro.pcie.link", "Link", ("transfer",)),
    ("repro.pcie.link", "DuplexLink", ("sever", "restore")),
    ("repro.host.cpu", "Cpu", None),
    ("repro.host.interrupts", "InterruptController", ("raise_msi",)),
    ("repro.host.thread", "KernelThread", ("kick", "wait_work")),
    ("repro.host.node", "Host",
     ("alloc_pinned", "mmap", "user_segments", "write_user", "read_user")),
    ("repro.memory.mmu", "VirtualAddressSpace",
     ("translate", "extents", "phys_segments", "read", "write")),
    ("repro.memory.address_space", "PhysicalMemory",
     ("read", "read_bytes", "write", "fill", "view", "read_u32",
      "write_u32", "read_u64", "write_u64", "copy_within")),
    ("repro.memory.allocator", "RegionAllocator", ("alloc", "free")),
    ("repro.fabric.router", "Router",
     ("resolve", "forward_port", "route_edges", "live_ports", "bfs_path",
      "live_distances")),
    ("repro.fabric.router", "PolicyRouter",
     ("resolve", "forward_port", "route_edges")),
    ("repro.fabric.router", "DimensionOrderRouter",
     ("resolve", "forward_port", "route_edges")),
    ("repro.fabric.router", "AdaptiveRouter",
     ("resolve", "forward_port", "route_edges")),
    ("repro.fabric.heartbeat", "HeartbeatMonitor", ("start", "stop")),
    ("repro.faults.injector", "FaultInjector", ("install",)),
    ("repro.obsv.spans", "ShmemScope",
     ("span", "span_open", "span_close", "instant", "bind_msg",
      "adopt_msg", "bind_process")),
    ("repro.obsv.metrics", "MetricsRegistry",
     ("inc", "observe", "counter", "gauge")),
    ("repro.obsv.metrics", "ScopedMetrics", ("inc", "observe")),
    ("repro.obsv.metrics", "Counter", ("inc",)),
)

#: methods of ``PE`` that are not operations (no op id of their own).
_PE_LOCAL = frozenset({"my_pe", "num_pes", "local_alloc", "read_symmetric",
                       "read_symmetric_array", "write_symmetric"})

_WRAPPED = "__perfbench_wrapped__"
_HERE = Path(__file__).resolve().parent


def layer_of_file(filename: str) -> Optional[str]:
    """The layer of a source file: by ``src/repro`` module, ``bench`` for
    the benchmark's own files, None for anything else."""
    import repro

    path = Path(filename).resolve()
    if path.parent == _HERE:
        return "bench"
    try:
        rel = path.relative_to(Path(repro.__file__).resolve().parent)
    except ValueError:
        return None
    module = rel.with_suffix("").as_posix()
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "/"):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class LayerTracer:
    """Span store plus exact per-layer self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.names: list[str] = []
        #: span name -> layer, for per-layer call counts and virtual time.
        self.name_layer: dict[str, str] = {}
        self._name_ids: dict[str, int] = {}
        self.self_s = [0.0] * len(LAYERS)
        self.virt_us: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.queue_depth_max = 0
        #: open frames: [layer, resume start, child seconds, span row].
        self.stack: list[list] = []
        self.env = None
        self.next_op = 1
        # One row per span, columnar so a few million stay small.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_host = array("d")   # start, end pairs
        self.span_virt = array("d")   # start, end pairs

    # ------------------------------------------------------------ accounting
    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def start(self) -> None:
        """Open the root frame: from here on every second is charged."""
        self.stack.append([self.index["bench"], self.clock(), 0.0, -1])

    def stop(self) -> float:
        """Close the root frame; returns the clock reading."""
        return self.checkpoint(close=True)

    def checkpoint(self, close: bool = False) -> float:
        """Charge every open frame up to now and restart its segment,
        so that a snapshot of :attr:`self_s` splits time exactly at this
        instant.  Returns the instant."""
        now = self.clock()
        self_s = self.self_s
        for frame in self.stack:
            self_s[frame[0]] += (now - frame[1]) - frame[2]
            frame[1] = now
            frame[2] = 0.0
        if close:
            self.stack.pop()
        return now

    def _new_span(self, name_id: int, virt: float) -> int:
        row = len(self.span_name)
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self.span_op[parent] if parent >= 0 else 0)
        now = self.clock()
        self.span_host.extend((now, now))
        self.span_virt.extend((virt, virt))
        return row

    def _now_virt(self) -> float:
        env = self.env
        return env.now if env is not None else 0.0

    # ------------------------------------------------------------- wrappers
    def wrap_function(self, fn: Callable, layer: str, name: str,
                      is_op: bool = False) -> Callable:
        tracer = self
        li = self.index[layer]
        nid = self.name_id(name)
        self.name_layer[name] = layer
        clock = self.clock

        def wrapper(*args, **kwargs):
            calls = tracer.calls
            calls[name] = calls.get(name, 0) + 1
            row = tracer._new_span(nid, tracer._now_virt())
            if is_op:
                tracer._begin_op(row, args)
            frame = [li, clock(), 0.0, row]
            tracer.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close_resume(frame, row, None, True)

        return _dress(wrapper, fn)

    def wrap_generator_function(self, fn: Callable, layer: str, name: str,
                                is_op: bool = False) -> Callable:
        tracer = self
        li = self.index[layer]
        nid = self.name_id(name)
        self.name_layer[name] = layer

        def wrapper(*args, **kwargs):
            calls = tracer.calls
            calls[name] = calls.get(name, 0) + 1
            row = tracer._new_span(nid, tracer._now_virt())
            if is_op:
                tracer._begin_op(row, args)
            outermost = not any(f[0] == li for f in tracer.stack)
            return tracer.drive(fn(*args, **kwargs), layer, row,
                                name if outermost else None)

        return _dress(wrapper, fn)

    def _begin_op(self, row: int, args: tuple) -> None:
        """A ``PE`` call outside any other op opens a new op id."""
        if self.span_op[row] == 0:
            self.span_op[row] = self.next_op
            self.next_op += 1
        if args:
            registry = getattr(getattr(args[0], "rt", None),
                               "metrics_registry", None)
            if registry is not None:
                depth = registry.value("sim.heap_depth") or 0
                if depth > self.queue_depth_max:
                    self.queue_depth_max = int(depth)

    def drive(self, gen, layer: str, row: int, virt_key: Optional[str]):
        """Delegate to ``gen`` like ``yield from``, timing each resume.

        Yielded events pass straight through without a local reference
        left behind, so the kernel's Timeout recycling sees the same
        reference counts as without the wrapper.
        """
        li = self.index[layer]
        clock = self.clock
        span_host = self.span_host
        span_virt = self.span_virt
        box: list = []
        value: Any = None
        error: Optional[BaseException] = None
        first = True
        while True:
            frame = [li, clock(), 0.0, row]
            if first:
                first = False
                span_host[2 * row] = frame[1]
                span_virt[2 * row] = self._now_virt()
            self.stack.append(frame)
            try:
                if error is None:
                    box.append(gen.send(value))
                else:
                    pending, error = error, None
                    box.append(gen.throw(pending))
                    del pending
            except StopIteration as stop:
                self._close_resume(frame, row, virt_key, True)
                return stop.value
            except BaseException:
                self._close_resume(frame, row, virt_key, True)
                raise
            self._close_resume(frame, row, virt_key, False)
            try:
                value = yield box.pop()
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the generator
                error = exc
                value = None

    def _close_resume(self, frame: list, row: int, virt_key: Optional[str],
                      final: bool) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration
        self.span_host[2 * row + 1] = end
        virt_end = self._now_virt()
        self.span_virt[2 * row + 1] = virt_end
        if final and virt_key is not None:
            self.virt_us[virt_key] = (self.virt_us.get(virt_key, 0.0)
                                      + virt_end - self.span_virt[2 * row])

    # ------------------------------------------------------------ reporting
    def spans(self) -> int:
        return len(self.span_name)

    def dump(self, path: Path) -> None:
        """Write every span (columnar ``.npz``) for offline reading."""
        host = np.frombuffer(self.span_host, dtype=np.float64).reshape(-1, 2)
        virt = np.frombuffer(self.span_virt, dtype=np.float64).reshape(-1, 2)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int64),
                 host=host, virt=virt)


def _dress(wrapper: Callable, fn: Callable) -> Callable:
    """Give ``wrapper`` the identity of ``fn`` and mark it as ours."""
    setattr(wrapper, _WRAPPED, fn)
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _public_methods(cls: type) -> list[str]:
    return [name for name, attr in cls.__dict__.items()
            if not name.startswith("_") and inspect.isfunction(attr)]


def install(tracer: LayerTracer) -> list:
    """Wrap every entry point of :data:`ENTRY_POINTS` for ``tracer``;
    returns what :func:`uninstall` needs to put the originals back."""
    import importlib

    from repro.sim.core import Environment

    if hasattr(Environment.__dict__["run"], _WRAPPED):
        raise RuntimeError("layer wrappers are already installed")
    installed: list = []
    for module_name, class_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        layer = layer_of_file(inspect.getsourcefile(cls) or "")
        for method in methods or _public_methods(cls):
            fn = inspect.getattr_static(cls, method)
            if not inspect.isfunction(fn) or hasattr(fn, _WRAPPED):
                continue
            name = f"{class_name}.{method}"
            is_op = class_name == "PE" and method not in _PE_LOCAL
            if inspect.isgeneratorfunction(fn):
                wrapped = tracer.wrap_generator_function(fn, layer, name,
                                                         is_op)
            else:
                wrapped = tracer.wrap_function(fn, layer, name, is_op)
            installed.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, wrapped)
    _install_kernel(tracer, installed)
    return installed


def _install_kernel(tracer: LayerTracer, installed: list) -> None:
    """``Environment.run`` records the active environment (for virtual
    timestamps); ``Environment.process`` wraps each process body."""
    from repro.sim.core import Environment

    run = Environment.__dict__["run"]  # already wrapped as sim.run
    process = Environment.__dict__["process"]
    layer_cache: dict[str, Optional[str]] = {}

    def traced_run(self, until=None):
        outer, tracer.env = tracer.env, self
        try:
            return run(self, until)
        finally:
            tracer.env = outer

    def traced_process(self, generator, name=None):
        code = getattr(generator, "gi_code", None)
        layer = None
        if code is not None:
            filename = code.co_filename
            if filename not in layer_cache:
                layer_cache[filename] = layer_of_file(filename)
            layer = layer_cache[filename]
        if layer is None:
            return process(self, generator, name)
        label = f"process:{code.co_qualname}"
        tracer.name_layer[label] = layer
        tracer.calls[label] = tracer.calls.get(label, 0) + 1
        row = tracer._new_span(tracer.name_id(label), self.now)
        # A process is not part of the op that started it: its parent
        # link stays, its op id does not.
        tracer.span_op[row] = 0
        return process(self, tracer.drive(generator, layer, row, None),
                       name or getattr(generator, "__name__", None))

    for attr, fn in (("run", traced_run), ("process", traced_process)):
        installed.append((Environment, attr, Environment.__dict__[attr]))
        setattr(fn, _WRAPPED, True)
        setattr(Environment, attr, fn)


def uninstall(installed: list) -> None:
    """Put every original entry point back, last wrapped first."""
    while installed:
        cls, method, original = installed.pop()
        if original is None:
            delattr(cls, method)
        else:
            setattr(cls, method, original)
