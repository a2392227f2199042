"""Property-based routing correctness under random severed-edge sets.

For every router on every topology family, a resolved route — walked
hop by hop exactly the way the runtime's relay service walks it (first
hop from ``resolve``, every later hop from ``forward_port`` at the
relay) — must:

* cross only real, seated cables that are not in the dead-edge set;
* terminate at the destination in **exactly** ``route.hops`` link
  traversals (the hop count the runtime keys credits, retry budgets
  and latency metrics on);
* and when ``resolve`` raises :class:`NoRouteError` instead, the
  destination must be genuinely partitioned on the live graph — the
  prompt-failure half of the double-sever bugfix.

Exactness holds for all three router families: policy routers validate
the whole straight line at resolve time, and the dimension-order and
adaptive routers descend a live-BFS distance field one hop at a time.

The topology answers every structural query from tables built at
construction (and per-pair memos), and the adaptive router ranks the
topology's cached minimal-port sets.  A second group of
properties checks those answers against brute-force coordinate and BFS
computations written here, independently of the library, and checks
the cached adaptive pick against the uncached rule.
"""

from __future__ import annotations

from collections import deque
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fabric import (
    AdaptiveRouter,
    ChainTopology,
    DimensionOrderRouter,
    Direction,
    GridTopology,
    MeshTopology,
    NoRouteError,
    PolicyRouter,
    RingTopology,
    RoutingPolicy,
    TopologyError,
    TorusTopology,
)

_SETTINGS = settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

_TOPOLOGIES = st.one_of(
    st.integers(3, 8).map(RingTopology),
    st.integers(3, 8).map(ChainTopology),
    st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 3), (2, 2, 2)])
    .map(MeshTopology),
    st.sampled_from([(4,), (3, 3), (4, 3), (3, 3, 3)]).map(TorusTopology),
)


def _routers_for(topology):
    if isinstance(topology, GridTopology):
        return (DimensionOrderRouter(topology), AdaptiveRouter(topology))
    return (PolicyRouter(topology, RoutingPolicy.FIXED_RIGHT),
            PolicyRouter(topology, RoutingPolicy.SHORTEST),
            DimensionOrderRouter(topology))


@st.composite
def _scenarios(draw):
    topology = draw(_TOPOLOGIES)
    cables = [(owner, peer)
              for owner, _port, peer, _peer_port in topology.cables()]
    dead = draw(st.sets(st.sampled_from(cables),
                        max_size=min(len(cables), 5)))
    src = draw(st.integers(0, topology.n_hosts - 1))
    offset = draw(st.integers(1, topology.n_hosts - 1))
    dst = (src + offset) % topology.n_hosts
    return topology, frozenset(dead), src, dst


class TestRouterWalks:
    @_SETTINGS
    @given(_scenarios())
    def test_resolved_routes_walk_live_cables_to_destination(self, case):
        topology, dead, src, dst = case
        for router in _routers_for(topology):
            try:
                route = router.resolve(src, dst, dead_edges=dead)
            except NoRouteError:
                # Prompt failure must mean genuine partition, never an
                # unexplored alternate path (the double-sever bugfix).
                assert router.bfs_path(src, dst, dead) is None, (
                    f"{router.name} gave up on {src}->{dst} "
                    f"with a live path available (dead={sorted(dead)})"
                )
                continue
            node, port, walked = src, route.port, 0
            while node != dst:
                assert walked < route.hops, (
                    f"{router.name} walk {src}->{dst} exceeds reported "
                    f"{route.hops} hops (dead={sorted(dead)})"
                )
                edge = topology.edge_for(node, port)
                assert edge is not None, (
                    f"{router.name} sent host {node} out uncabled "
                    f"port {port!r}"
                )
                assert edge not in dead, (
                    f"{router.name} crossed severed cable {edge} "
                    f"routing {src}->{dst}"
                )
                node = topology.neighbor(node, port)
                walked += 1
                if node != dst:
                    port = router.forward_port(
                        node, dst, topology.opposite_port(port),
                        dead_edges=dead)
            assert walked == route.hops, (
                f"{router.name} reported {route.hops} hops for "
                f"{src}->{dst} but walked {walked} (dead={sorted(dead)})"
            )

    @_SETTINGS
    @given(_scenarios())
    def test_reachability_verdict_is_router_independent(self, case):
        # Every router family must agree with the live graph (and hence
        # with each other) on whether a destination is reachable.
        topology, dead, src, dst = case
        reachable = _routers_for(topology)[0].bfs_path(
            src, dst, dead) is not None
        for router in _routers_for(topology):
            try:
                router.resolve(src, dst, dead_edges=dead)
                resolved = True
            except NoRouteError:
                resolved = False
            assert resolved == reachable, (
                f"{router.name}: resolve {'succeeded' if resolved else 'failed'} "
                f"but live graph says reachable={reachable}"
            )


# -- brute-force reference -------------------------------------------------
# Every topology is described as (kind, shape): ring/chain of n hosts, or
# a mesh/torus grid of extents ``dims`` numbered row-major, x fastest.
_SHAPES = st.one_of(
    st.tuples(st.just("ring"), st.integers(2, 7)),
    st.tuples(st.just("chain"), st.integers(2, 7)),
    st.tuples(st.just("mesh"),
              st.sampled_from([(2,), (5,), (2, 2), (3, 2), (2, 3, 2)])),
    st.tuples(st.just("torus"),
              st.sampled_from([(3,), (5,), (3, 4), (4, 4), (3, 3, 3)])),
)


def _build(kind, shape):
    return {"ring": RingTopology, "chain": ChainTopology,
            "mesh": MeshTopology, "torus": TorusTopology}[kind](shape)


def _reference(kind, shape):
    """(port names, {(host, port): neighbor-or-None}) from coordinates."""
    if kind in ("ring", "chain"):
        n = shape
        wired = {}
        for host in range(n):
            for port, step in (("left", -1), ("right", +1)):
                nb = host + step
                if kind == "ring":
                    nb %= n
                wired[host, port] = nb if 0 <= nb < n else None
        return ("left", "right"), wired
    dims = shape
    wrap = kind == "torus"
    names = tuple(f"{axis}{sign}" for axis in "xyz"[:len(dims)]
                  for sign in "-+")
    wired = {}
    for host in range(prod(dims)):
        point, rest = [], host
        for extent in dims:
            point.append(rest % extent)
            rest //= extent
        for axis, extent in enumerate(dims):
            for sign, step in (("-", -1), ("+", +1)):
                moved = list(point)
                moved[axis] += step
                if wrap:
                    moved[axis] %= extent
                port = "xyz"[axis] + sign
                if not 0 <= moved[axis] < extent:
                    wired[host, port] = None
                    continue
                nb, scale = 0, 1
                for c, e in zip(moved, dims):
                    nb += c * scale
                    scale *= e
                wired[host, port] = nb
    return names, wired


def _bfs(n_hosts, names, wired, dst, dead=frozenset()):
    """Hop distances to ``dst`` over the live cables."""
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node = queue.popleft()
        for port in names:
            nb = wired[node, port]
            if nb is None or nb in dist \
                    or _ref_edge(names, node, port, nb) in dead:
                continue
            dist[nb] = dist[node] + 1
            queue.append(nb)
    return dist


def _ref_edge(names, host, port, nb):
    # Positive ports (odd PORT_ORDER index) own the cable.
    return (host, nb) if names.index(port) % 2 else (nb, host)


def _ref_next_hop(kind, shape, names, wired, src, dst):
    """Shortest way round on 1D fabrics (ties right/positive); lowest
    differing axis first on grids."""
    if kind in ("ring", "chain"):
        n = shape
        if kind == "chain":
            port = "right" if dst > src else "left"
        else:
            port = "right" if (dst - src) % n <= (src - dst) % n else "left"
        return port, wired[src, port]
    dims = shape
    scale = 1
    for axis, extent in enumerate(dims):
        s, d = (src // scale) % extent, (dst // scale) % extent
        scale *= extent
        if s == d:
            continue
        if kind == "torus":
            positive = (d - s) % extent <= (s - d) % extent
        else:
            positive = d > s
        port = "xyz"[axis] + ("+" if positive else "-")
        return port, wired[src, port]
    raise AssertionError("src == dst")


def _uncached_adaptive(names, wired, n_hosts, kind, shape, src, dst,
                       dead, load):
    """The adaptive rule recomputed from scratch on every call."""
    canonical, _ = _ref_next_hop(kind, shape, names, wired, src, dst)
    dist = _bfs(n_hosts, names, wired, dst, dead)
    here = dist.get(src)
    if here is None:
        return None
    candidates = [
        port for port in names
        if wired[src, port] is not None
        and _ref_edge(names, src, port, wired[src, port]) not in dead
        and dist.get(wired[src, port]) == here - 1
    ]
    if load is not None and len(candidates) > 1:
        port = min(candidates, key=lambda p: (load(p), names.index(p)))
    elif canonical in candidates:
        port = canonical
    else:
        port = candidates[0]
    return port, here


class TestTablesMatchBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(_SHAPES)
    def test_every_structural_answer_matches(self, case):
        kind, shape = case
        topo = _build(kind, shape)
        names, wired = _reference(kind, shape)
        n = topo.n_hosts
        assert topo.PORT_ORDER == names
        for host in range(n):
            cabled = tuple(p for p in names if wired[host, p] is not None)
            assert topo.ports(host) == cabled
            for port in names:
                nb = wired[host, port]
                assert topo.neighbor(host, port) == nb
                assert topo.edge_for(host, port) == (
                    None if nb is None else _ref_edge(names, host, port, nb))
        fields = {dst: _bfs(n, names, wired, dst) for dst in range(n)}
        for src in range(n):
            for dst in range(n):
                assert topo.min_hops(src, dst) == fields[dst][src]
                if src == dst:
                    continue
                assert topo.next_hop(src, dst) == _ref_next_hop(
                    kind, shape, names, wired, src, dst)
                assert topo.minimal_ports(src, dst) == tuple(
                    p for p in names if wired[src, p] is not None
                    and fields[dst][wired[src, p]] == fields[dst][src] - 1)
        # Re-asking must serve the same (memoized) answers.
        assert [topo.next_hop(0, d) for d in range(1, n)] == [
            _ref_next_hop(kind, shape, names, wired, 0, d)
            for d in range(1, n)]

    @settings(max_examples=40, deadline=None)
    @given(_SHAPES)
    def test_bad_keys_still_raise(self, case):
        kind, shape = case
        topo = _build(kind, shape)
        n = topo.n_hosts
        for host in (-1, n, n + 3):
            for query in (lambda h: topo.neighbor(h, topo.PORT_ORDER[1]),
                          lambda h: topo.edge_for(h, topo.PORT_ORDER[0]),
                          topo.ports,
                          lambda h: topo.next_hop(h, 0),
                          lambda h: topo.next_hop(0, h),
                          lambda h: topo.min_hops(h, 0),
                          lambda h: topo.min_hops(0, h),
                          lambda h: topo.minimal_ports(0, h)):
                with pytest.raises(TopologyError):
                    query(host)
            if isinstance(topo, GridTopology):
                with pytest.raises(TopologyError):
                    topo.coords(host)
        bad_ports = ["up", "w+"]
        if isinstance(topo, GridTopology):
            bad_ports += [Direction.LEFT, Direction.RIGHT, "left"]
        for port in bad_ports:
            for query in (topo.neighbor, topo.edge_for):
                with pytest.raises(TopologyError):
                    query(0, port)
            with pytest.raises(TopologyError):
                topo.opposite_port(port)
        for src in range(n):
            with pytest.raises(TopologyError):
                topo.next_hop(src, src)
            with pytest.raises(TopologyError):
                topo.minimal_ports(src, src)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_SHAPES.filter(lambda c: c[0] in ("mesh", "torus")), st.data())
    def test_adaptive_pick_matches_uncached_rule(self, case, data):
        # One router answers a sequence of (dead set, pair, load) queries,
        # so an answer carried across dead-set changes would show up.
        kind, shape = case
        topo = _build(kind, shape)
        names, wired = _reference(kind, shape)
        n = topo.n_hosts
        cables = [(o, p) for o, _op, p, _pp in topo.cables()]
        router = AdaptiveRouter(topo)
        for _ in range(data.draw(st.integers(1, 6))):
            dead = data.draw(st.frozensets(st.sampled_from(cables),
                                           max_size=3))
            src = data.draw(st.integers(0, n - 1))
            dst = (src + data.draw(st.integers(1, n - 1))) % n
            loads = data.draw(st.none() | st.fixed_dictionaries(
                {port: st.integers(0, 2) for port in names}))
            load = None if loads is None else loads.__getitem__
            expected = _uncached_adaptive(names, wired, n, kind, shape,
                                          src, dst, dead, load)
            try:
                route = router.resolve(src, dst, dead_edges=dead, load=load)
            except NoRouteError:
                assert expected is None
                continue
            assert (route.port, route.hops) == expected
