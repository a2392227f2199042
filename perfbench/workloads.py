"""The benchmark's six workloads, driven through the public ``repro`` API.

Every workload is a closed loop: each PE issues its next operation only
after the previous one returned, and the PEs meet at barriers.  The
payload bytes, the order of the sweep points and (on the chaos
workloads) the severed cable and its time all come from the seed; sizes
are the paper's exact grid.

A workload is a ``prepare`` step that makes every input from the seed
and a body that runs them.  One call of :func:`run_pass` runs one
workload once and returns a :class:`Pass`: host set-up and body seconds,
every virtual latency sample the bench timed around a ``PE`` call, the
always-on metrics registry totals and the output checks.  Input
generation, registry snapshots and shape-check evaluation are the
benchmark's own bookkeeping and are kept out of both host figures.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro import Cluster, ClusterConfig, Direction, Mode, ShmemConfig, run_spmd
from repro.bench.harness import (
    fig8_shape_checks,
    fig8d_shape_checks,
    fig9_shape_checks,
    fig10_shape_checks,
)
from repro.bench.reporting import PAPER_SIZES
from repro.core import PeerUnreachableError
from repro.faults import FaultPlan
from repro.ntb.device import DATA_WINDOW

__all__ = ["WORKLOADS", "Pass", "Clock", "calibrate", "run_pass"]

#: the Fig. 9/10 series: (name, mode, hops), in the paper's legend order.
SERIES = (
    ("DMA 1 hop", Mode.DMA, 1),
    ("DMA 2 hops", Mode.DMA, 2),
    ("memcpy 1 hop", Mode.MEMCPY, 1),
    ("memcpy 2 hops", Mode.MEMCPY, 2),
)
#: Fig. 8 DMA bursts per point, Fig. 9 calls per point, Fig. 10 barriers
#: per point.
FIG8_REPEATS = 4
FIG9_REPEATS = 3
FIG10_REPEATS = 3

CHAOS_HOSTS = 16
CHAOS_SLOT = 256
CHAOS_ROUNDS = 6
#: virtual µs each PE rests between chaos rounds.
CHAOS_GAP_US = 200.0
#: the sever lands in this virtual window: inside round 1, so that every
#: seed has the same number of rounds before and after it.
CHAOS_SEVER_WINDOW_US = (2_000.0, 3_600.0)
#: a pass takes ~80k virtual µs; one still running at this deadline has
#: an operation that will never complete.
CHAOS_DEADLINE_US = 300_000.0

TORUS_DIMS = (4, 4, 4)
TORUS_SLOT = 4096
TORUS_STREAM = 32 * 1024
TORUS_ROUNDS = 2
TORUS_BARRIERS = 2

#: iterations of the short calibration loop timed just before each
#: set-up (about 0.03 s), so that ``setup_s`` can be read against the
#: host's speed at that moment.
SETUP_CAL_LOOP = 200_000


def calibrate(iterations: int) -> float:
    """Seconds for a fixed pure-Python loop in this process: the host's
    speed at the moment, for reading host times across machines and
    across the drift of one machine."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(iterations):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


class Hang(Exception):
    """A workload outlived its virtual-time deadline: some operation
    neither completed nor raised ``PeerUnreachableError``."""


def _watchdog(env, deadline_us: float):
    yield env.timeout(deadline_us)
    raise Hang(f"still running at {deadline_us:.0f} virtual us")


class Clock:
    """Host-clock marks of one pass.

    Two kinds of interval are kept out of the body's host time:
    set-up, from ``setup_begin`` (before a cluster is built) to
    ``body_entry`` (the first PE enters the benchmark body), and the
    benchmark's own bookkeeping inside ``aside()``.  The traced run swaps
    in the tracer's clock so that its layer table splits exactly the same
    intervals.
    """

    def __init__(self, now: Callable[[], float] = time.perf_counter):
        self.now = now
        self.setup_s = 0.0
        self.aside_s = 0.0
        self._begin: Optional[float] = None
        self._kind = ""

    def exclude_begin(self, kind: str) -> None:
        self._begin = self.now()
        self._kind = kind

    def exclude_end(self) -> None:
        if self._begin is not None:
            seconds = self.now() - self._begin
            if self._kind == "setup":
                self.setup_s += seconds
            else:
                self.aside_s += seconds
            self._begin = None

    def setup_begin(self) -> None:
        self.exclude_begin("setup")

    def body_entry(self) -> None:
        self.exclude_end()

    @contextmanager
    def aside(self):
        self.exclude_begin("aside")
        try:
            yield
        finally:
            self.exclude_end()


@dataclass
class Pass:
    """Everything one pass of a workload measured."""

    workload: str
    seed: int
    setup_s: float = 0.0
    #: the short calibration loop's seconds, summed over the pass's
    #: ``setups`` set-ups.
    setup_cal_s: float = 0.0
    setups: int = 0
    wall_s: float = 0.0
    virt_elapsed_us: float = 0.0
    samples: dict = field(default_factory=lambda: {
        "put": [], "get": [], "barrier": []})
    attempted: int = 0
    failed: int = 0
    #: (description, passed) output checks.
    checks: list = field(default_factory=list)
    #: registry totals summed over every cluster of the pass.
    counts: dict = field(default_factory=dict)
    link_util_max: float = 0.0

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok in self.checks)

    def check(self, description: str, passed: bool) -> None:
        self.checks.append((description, bool(passed)))

    def fingerprint(self) -> tuple:
        """The model's answer: virtual figures and registry counts."""
        return (self.virt_elapsed_us,
                tuple(tuple(v) for _, v in sorted(self.samples.items())),
                tuple(sorted(self.counts.items())),
                self.link_util_max, self.attempted, self.failed)

    def absorb(self, cluster, elapsed_us: float) -> None:
        self.virt_elapsed_us += elapsed_us
        for key, value in cluster.metrics.snapshot().items():
            self.counts[key] = self.counts.get(key, 0.0) + value
        for cable in cluster.cables.values():
            for link in (cable.a_to_b, cable.b_to_a):
                self.link_util_max = max(self.link_util_max,
                                         link.utilization(elapsed_us))


class _Ctx:
    """Per-pass plumbing shared by the workload bodies."""

    def __init__(self, ps: Pass, clock: Clock,
                 wrap_body: Optional[Callable] = None):
        self.ps = ps
        self.clock = clock
        self.wrap_body = wrap_body

    def setup_begin(self) -> None:
        """Collect the last cluster's garbage and time the short
        calibration loop (bookkeeping), then start timing set-up: peak
        memory is then one cluster's at a time."""
        with self.clock.aside():
            gc.collect()
            self.ps.setup_cal_s += calibrate(SETUP_CAL_LOOP)
            self.ps.setups += 1
        self.clock.setup_begin()

    def absorb(self, cluster, elapsed_us: float) -> None:
        with self.clock.aside():
            self.ps.absorb(cluster, elapsed_us)

    def spmd(self, main, n_pes: int, cluster_config: ClusterConfig,
             shmem_config: Optional[ShmemConfig] = None,
             deadline_us: Optional[float] = None, **kwargs):
        """``run_spmd`` with set-up timed; a ``deadline_us`` watchdog
        turns a run that never ends into :class:`Hang`."""
        clock = self.clock

        def body(pe):
            clock.body_entry()
            if deadline_us is not None and pe.my_pe() == 0:
                pe.rt.env.process(_watchdog(pe.rt.env, deadline_us))
            return (yield from main(pe))

        if self.wrap_body is not None:
            body = self.wrap_body(body)
        self.setup_begin()
        report = run_spmd(body, n_pes=n_pes, cluster_config=cluster_config,
                          shmem_config=shmem_config, **kwargs)
        self.absorb(report.cluster, report.elapsed_us)
        return report

    def timed(self, kind: str, pe, op):
        """Drive one PE call, recording its virtual latency."""
        env = pe.rt.env
        start = env.now
        self.ps.attempted += 1
        result = yield from op
        self.ps.samples[kind].append(env.now - start)
        return result


def _payload(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


# ------------------------------------------------------------------ paper-ring3
def _prepare_paper_ring3(seed: int) -> dict:
    """Sweep orders and payloads of Figs. 8, 9 and 10."""
    rng = np.random.default_rng(seed)
    fig8 = [(size, [_payload(rng, size) for _ in range(3)])
            for size in rng.permutation(PAPER_SIZES).tolist()]
    fig9 = [(series, mode, hops, op, size)
            for series, mode, hops in SERIES
            for op in ("put", "get")
            for size in rng.permutation(PAPER_SIZES).tolist()]
    fig10 = [(series, mode, hops, size)
             for series, mode, hops in SERIES
             for size in rng.permutation(PAPER_SIZES).tolist()]
    return {
        "fig8": fig8,
        "fig9": fig9,
        "fig9_data": [_payload(rng, size) if op == "put" else None
                      for *_, op, size in fig9],
        "fig10": fig10,
        "fig10_data": [[_payload(rng, size) for *_, size in fig10]
                       for _ in range(3)],
    }


def _fig8(ctx: _Ctx, sweep: list) -> dict:
    """Raw NTB DMA, one fresh 3-host cluster per size (Fig. 8)."""
    ps = ctx.ps
    table: dict = {}
    for size, payloads in sweep:
        ctx.setup_begin()
        cluster = Cluster(ClusterConfig(n_hosts=3))
        cluster.run_probe()
        env = cluster.env
        streams = []
        for src, dst in cluster.topology.links():
            tx_driver = cluster.driver(src, Direction.RIGHT)
            rx_driver = cluster.driver(dst, Direction.LEFT)
            rx = cluster.host(dst).alloc_pinned(max(size, 4096))
            rx_driver.endpoint.program_incoming(DATA_WINDOW, rx.phys,
                                                rx.nbytes)
            rx_driver.endpoint.lut.add(tx_driver.requester_id, dst)
            tx_driver.endpoint.lut.add(rx_driver.requester_id, src)
            tx = cluster.host(src).alloc_pinned(size)
            streams.append((tx_driver, tx, rx, cluster.host(src),
                            cluster.host(dst)))
        ctx.clock.body_entry()
        for (_driver, tx, _rx, tx_host, _rx_host), data in zip(streams,
                                                               payloads):
            tx_host.memory.write(tx.phys, data)

        def burst(driver, tx):
            start = env.now
            for _ in range(FIG8_REPEATS):
                request = yield from driver.dma_write_segments(
                    DATA_WINDOW, 0, [tx.segment])
                yield request.done
            return FIG8_REPEATS * size / (env.now - start)

        independent = []
        for driver, tx, *_rest in streams:
            process = env.process(burst(driver, tx))
            env.run(until=process)
            independent.append(process.value)
        # Ring-simultaneous: every link at once.
        processes = [env.process(burst(driver, tx))
                     for driver, tx, *_rest in streams]
        env.run(until=env.all_of(processes))
        ring = [p.value for p in processes]
        ps.attempted += FIG8_REPEATS * 2 * len(streams)
        for index, (stream, data, i, r) in enumerate(
                zip(streams, payloads, independent, ring)):
            _driver, _tx, rx, _tx_host, rx_host = stream
            if not np.array_equal(rx_host.memory.read(rx.phys, size), data):
                ps.failed += 1
            experiment = "fig8" + "abc"[index]
            table.setdefault(experiment, {}).setdefault(
                "Independent", {})[size] = i
            table[experiment].setdefault("Ring", {})[size] = r
        table.setdefault("fig8d", {}).setdefault(
            "Independent", {})[size] = sum(independent)
        table["fig8d"].setdefault("Ring", {})[size] = sum(ring)
        ctx.absorb(cluster, env.now)
    return table


def _fig9(ctx: _Ctx, steps: list, data: list) -> dict:
    """Put/Get latency from PE 0 over the size grid (Fig. 9)."""
    ps = ctx.ps
    max_size = max(PAPER_SIZES)
    latency: dict = {}

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        # Consecutive steps use alternate halves, so that PE 0's next put
        # cannot land while the target still verifies this one.
        sym = yield from pe.malloc(2 * max_size)
        src = pe.local_alloc(max_size)
        dst = pe.local_alloc(max_size)
        yield from pe.barrier_all()
        # What PE 0 last wrote to each target half (on PE 0) and to my
        # halves (on the target): smaller puts overwrite only a prefix.
        held = np.zeros((3, 2, max_size), dtype=np.uint8)
        for index, (series, mode, hops, op, size) in enumerate(steps):
            target = (me + hops) % n
            receiver = me == hops % n  # PE 0's put target this step
            half = index % 2
            buf = sym + half * max_size
            for _rep in range(FIG9_REPEATS):
                if me == 0:
                    if op == "put":
                        src.write(data[index])
                        yield from ctx.timed("put", pe, pe.put_from(
                            buf, src, size, target, mode=mode))
                        held[target, half, :size] = data[index]
                    else:
                        yield from ctx.timed("get", pe, pe.get_into(
                            dst, buf, size, target, mode=mode))
                        if not np.array_equal(dst.read(size),
                                              held[target, half, :size]):
                            ps.failed += 1
                    latency.setdefault((op, series), {}).setdefault(
                        size, []).append(ps.samples[op][-1])
                yield from ctx.timed("barrier", pe, pe.barrier_all())
                if op == "put" and receiver:
                    held[me, half, :size] = data[index]
                    if not np.array_equal(pe.read_symmetric(buf, size),
                                          held[me, half, :size]):
                        ps.failed += 1
        return True

    ctx.spmd(main, 3, ClusterConfig(n_hosts=3))
    table: dict = {}
    for (op, series), by_size in latency.items():
        lat_exp, thr_exp = (("fig9a", "fig9c") if op == "put"
                            else ("fig9b", "fig9d"))
        for size, calls in by_size.items():
            value = float(np.median(calls))
            table.setdefault(lat_exp, {}).setdefault(series, {})[size] = value
            table.setdefault(thr_exp, {}).setdefault(
                series, {})[size] = size / value
    return table


def _fig10(ctx: _Ctx, steps: list, data: list) -> dict:
    """Every PE puts, then times ``barrier_all`` (Fig. 10)."""
    ps = ctx.ps
    max_size = max(PAPER_SIZES)
    barrier_us: dict = {}

    def main(pe):
        me, n = pe.my_pe(), pe.num_pes()
        # Alternate halves per step, as in Fig. 9: a writer already past
        # this step's last barrier puts into the other half.
        sym = yield from pe.malloc(2 * max_size)
        src = pe.local_alloc(max_size)
        yield from pe.barrier_all()
        for index, (series, mode, hops, size) in enumerate(steps):
            target = (me + hops) % n
            writer = (me - hops) % n
            buf = sym + (index % 2) * max_size
            src.write(data[me][index])
            total = 0.0
            for _rep in range(FIG10_REPEATS):
                yield from ctx.timed(
                    "put", pe, pe.put_from(buf, src, size, target,
                                           mode=mode))
                start = pe.rt.env.now
                yield from ctx.timed("barrier", pe, pe.barrier_all())
                total += pe.rt.env.now - start
                if not np.array_equal(pe.read_symmetric(buf, size),
                                      data[writer][index]):
                    ps.failed += 1
            if me == 0:
                barrier_us.setdefault(series, {})[size] = \
                    total / FIG10_REPEATS
        return True

    ctx.spmd(main, 3, ClusterConfig(n_hosts=3))
    return {"fig10": barrier_us}


def _paper_ring3(ctx: _Ctx, inputs: dict) -> None:
    tables = {**_fig8(ctx, inputs["fig8"]),
              **_fig9(ctx, inputs["fig9"], inputs["fig9_data"]),
              **_fig10(ctx, inputs["fig10"], inputs["fig10_data"])}
    with ctx.clock.aside():
        checks = [(sub, c) for sub in ("fig8a", "fig8b", "fig8c")
                  for c in fig8_shape_checks()]
        checks += [("fig8d", c) for c in fig8d_shape_checks()]
        checks += [(sub, c) for sub, group in fig9_shape_checks().items()
                   for c in group]
        checks += [("fig10", c) for c in fig10_shape_checks()]
        passed = 0
        for sub, shape in checks:
            ok = bool(shape.predicate(tables[sub]))
            passed += ok
            if not ok:
                ctx.ps.check(f"shape {sub}: {shape.description}", False)
    ctx.ps.check(f"paper shape checks {passed}/{len(checks)} "
                 "(23 expected)", passed == len(checks) == 23)
    ctx.ps.check("every payload verified byte for byte",
                 ctx.ps.failed == 0)


# ------------------------------------------------- chaos-ring16 and ring16
def _prepare_ring16(seed: int) -> dict:
    """chaos-ring16's payloads with no sever."""
    rng = np.random.default_rng(seed)
    return {
        "plan": None,
        "data": [[_payload(rng, CHAOS_SLOT) for _ in range(CHAOS_HOSTS)]
                 for _ in range(CHAOS_ROUNDS + 1)],
    }


def _prepare_chaos(seed: int) -> dict:
    return {**_prepare_ring16(seed),
            "plan": FaultPlan.seeded_severs(CHAOS_HOSTS, seed, count=1,
                                            window_us=CHAOS_SEVER_WINDOW_US)}


def _chaos(ctx: _Ctx, inputs: dict, traced_spans: bool) -> None:
    ps = ctx.ps
    n = CHAOS_HOSTS
    plan, data = inputs["plan"], inputs["data"]
    config = ShmemConfig(faults=plan, max_retries=8, retry_backoff_us=200.0,
                         trace_spans=traced_spans)
    rounds = CHAOS_ROUNDS + 1
    final: list = [None] * n
    lost = [0]  # reads that missed a put although its round completed

    def main(pe):
        me = pe.my_pe()
        right = (me + 1) % n
        sym = yield from pe.malloc(n * CHAOS_SLOT)
        slot = sym + me * CHAOS_SLOT
        env = pe.rt.env
        for rnd in range(rounds):
            strict = rnd == rounds - 1
            # Every PE makes one put, one barrier and one get attempt per
            # round whatever fails: skipping a barrier would skew episode
            # counts across PEs for good.  A typed error mid-chaos counts
            # as a failed op; in the strict round it fails the pass.
            put_ok = barrier_ok = True
            try:
                yield from ctx.timed("put", pe, pe.put_array(
                    slot, data[rnd][me], right))
            except PeerUnreachableError:
                if strict:
                    raise
                put_ok = False
                ps.failed += 1
            try:
                yield from ctx.timed("barrier", pe, pe.barrier_all())
            except PeerUnreachableError:
                if strict:
                    raise
                barrier_ok = False
                ps.failed += 1
            try:
                got = yield from ctx.timed("get", pe, pe.get_array(
                    slot, CHAOS_SLOT, np.uint8, right))
            except PeerUnreachableError:
                if strict:
                    raise
                ps.failed += 1
            else:
                if put_ok and not np.array_equal(got, data[rnd][me]):
                    # The put returned but its bytes are not there; after
                    # a completed barrier (which quiesces) that is loss.
                    ps.failed += 1
                    lost[0] += barrier_ok
                    if strict:
                        final[me] = False
                        return False
            if not strict:
                yield env.timeout(CHAOS_GAP_US)
        final[me] = True
        return True

    # Heap offsets stay identical, but rounds cut mid-flight skew the
    # per-PE allocation-log checks; payloads are verified above.
    try:
        report = ctx.spmd(main, n, ClusterConfig(n_hosts=n), config,
                          deadline_us=CHAOS_DEADLINE_US,
                          check_heap_consistency=False)
    except Hang as hang:
        ps.check(f"every op completed or raised a typed error ({hang}; "
                 f"plan {plan})", False)
        return
    severs = ps.counts.get("faults.severs", 0.0)
    if plan is None:
        ps.check("no cable was severed", severs == 0)
    else:
        ps.check("the seeded sever fired mid-run", severs == 1)
    ps.check(f"strict {'post-recovery' if plan else 'final'} round "
             "verified on every PE",
             all(final) and all(report.results))
    ps.check(f"no silent loss: every put whose round completed read back "
             f"byte for byte (plan {plan})", lost[0] == 0)


# ---------------------------------------------------------------- bisect-torus64
def _antipode(pe_id: int) -> int:
    x, y, z = (pe_id % 4, (pe_id // 4) % 4, pe_id // 16)
    return (x + 2) % 4 + 4 * ((y + 2) % 4) + 16 * ((z + 2) % 4)


def _prepare_torus(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = int(np.prod(TORUS_DIMS))
    return {
        "data": [[_payload(rng, TORUS_SLOT) for _ in range(n)]
                 for _ in range(TORUS_ROUNDS)],
        "stream": [_payload(rng, TORUS_STREAM) for _ in range(n)],
    }


def _bisect_torus64(ctx: _Ctx, inputs: dict) -> None:
    ps = ctx.ps
    n = int(np.prod(TORUS_DIMS))
    data, stream = inputs["data"], inputs["stream"]

    def main(pe):
        me = pe.my_pe()
        partner = _antipode(me)  # an involution: partner writes to me
        # Rounds alternate halves, so that the partner's next put cannot
        # land while this PE still verifies the last one.
        sym = yield from pe.malloc(2 * TORUS_SLOT)
        big = yield from pe.malloc(TORUS_STREAM)
        yield from pe.barrier_all()
        for rnd in range(TORUS_ROUNDS):
            half = sym + (rnd % 2) * TORUS_SLOT
            yield from ctx.timed("put", pe, pe.put_array(
                half, data[rnd][me], partner))
            yield from ctx.timed("barrier", pe, pe.barrier_all())
            mine = data[rnd][partner]
            if not np.array_equal(pe.read_symmetric(half, mine.size), mine):
                ps.failed += 1
        last = data[TORUS_ROUNDS - 1][me]
        half = sym + ((TORUS_ROUNDS - 1) % 2) * TORUS_SLOT
        for _ in range(TORUS_ROUNDS):
            got = yield from ctx.timed("get", pe, pe.get(
                half, last.size, partner))
            if not np.array_equal(got, last):
                ps.failed += 1
        for _ in range(TORUS_BARRIERS):
            yield from ctx.timed("barrier", pe, pe.barrier_all())
        yield from ctx.timed("put", pe, pe.put_array(big, stream[me],
                                                     partner))
        yield from ctx.timed("barrier", pe, pe.barrier_all())
        mine = stream[partner]
        if not np.array_equal(pe.read_symmetric(big, mine.size), mine):
            ps.failed += 1
        return True

    config = ClusterConfig(n_hosts=n, topology="torus", dims=TORUS_DIMS)
    ctx.spmd(main, n, config, ShmemConfig(router="adaptive"))
    ps.check("every antipodal put, get and bisection stream verified "
             "byte for byte", ps.failed == 0)


#: name -> (prepare(seed) -> inputs, body(ctx, inputs)).  The ring16 pair
#: is the chaos pair without its sever: the model fails the chaos pair's
#: checks on some seeds, so only the ring16 pair can be gated.
WORKLOADS: dict = {
    "paper-ring3": (_prepare_paper_ring3, _paper_ring3),
    "chaos-ring16": (_prepare_chaos,
                     lambda ctx, inputs: _chaos(ctx, inputs, False)),
    "chaos-ring16-traced": (_prepare_chaos,
                            lambda ctx, inputs: _chaos(ctx, inputs, True)),
    "bisect-torus64": (_prepare_torus, _bisect_torus64),
    "ring16": (_prepare_ring16,
               lambda ctx, inputs: _chaos(ctx, inputs, False)),
    "ring16-traced": (_prepare_ring16,
                      lambda ctx, inputs: _chaos(ctx, inputs, True)),
}


def run_pass(workload: str, seed: int, clock: Optional[Clock] = None,
             wrap_body: Optional[Callable] = None) -> Pass:
    """Run ``workload`` once; host times come from ``clock``."""
    clock = clock or Clock()
    ps = Pass(workload=workload, seed=seed)
    prepare, body = WORKLOADS[workload]
    start = clock.now()
    with clock.aside():
        inputs: Any = prepare(seed)
    body(_Ctx(ps, clock, wrap_body), inputs)
    ps.setup_s = clock.setup_s
    ps.wall_s = clock.now() - start - clock.setup_s - clock.aside_s
    return ps
