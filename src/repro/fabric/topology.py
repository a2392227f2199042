"""Switchless topology descriptors: rings, chains, meshes and tori.

The paper wires hosts into a **ring**: each host carries two NTB adapters;
host *i*'s right adapter is cabled to host *i+1*'s left adapter (mod N).
Forwarding for non-neighbors is store-and-forward through intermediate
hosts (§III-A).  The paper always forwards rightward (toward increasing
host id); we additionally implement shortest-direction routing as an
ablation (DESIGN.md §6).

A **chain** is a ring with one cable removed — useful for two-host
"independent connection" experiments and failure-injection tests.

Beyond the paper, :class:`MeshTopology` and :class:`TorusTopology`
generalize the fabric to 2D/3D grids in the style of the APEnet+ switchless
direct networks (PAPERS.md): each host seats one NTB adapter per grid
*port* (``x-``/``x+``/``y-``/``y+``/``z-``/``z+``) and routing becomes
per-hop dimension-order resolution via :meth:`Topology.next_hop` rather
than a single scalar direction.  Rings and chains keep their historical
``left``/``right`` port names, so ring clusters are byte-identical to the
pre-grid builds.

Port conventions
----------------
``PORT_ORDER`` lists a topology's port names as (negative, positive)
pairs per axis — ``("left", "right")`` for rings/chains, ``("x-", "x+",
"y-", "y+", ...)`` for grids.  The *positive* port of a cable owns the
canonical edge id: the directed edge ``(a, b)`` names the cable from
``a``'s positive port into ``b``'s matching negative port, which is
exactly the ``(host, right-neighbor)`` convention the fault layer and
dead-edge bookkeeping already use on rings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import prod
from typing import Iterator, Optional, Sequence, Union

__all__ = ["Direction", "RoutingPolicy", "Route", "TopologyError",
           "NoRouteError", "Topology", "RingTopology", "ChainTopology",
           "GridTopology", "MeshTopology", "TorusTopology", "PortLike"]


class TopologyError(Exception):
    """Invalid host ids or unroutable destination."""


class NoRouteError(TopologyError):
    """No live path exists between two hosts (given the dead-edge set)."""


class Direction(enum.Enum):
    """Which adapter a hop leaves through (ring/chain port names)."""

    RIGHT = "right"  # toward increasing host id
    LEFT = "left"    # toward decreasing host id

    @property
    def opposite(self) -> "Direction":
        return Direction.LEFT if self is Direction.RIGHT else Direction.RIGHT


#: A port is named either by the historical ring enum or a port string.
PortLike = Union[Direction, str]


def _port_name(port: PortLike) -> str:
    return port.value if isinstance(port, Direction) else port


class RoutingPolicy(enum.Enum):
    """How multi-hop destinations pick a direction."""

    FIXED_RIGHT = "fixed_right"  # the paper's behaviour
    SHORTEST = "shortest"        # ablation: min-hop direction, ties right


@dataclass(frozen=True)
class Route:
    """A resolved route: initial direction/port and total link traversals.

    ``direction`` stays a :class:`Direction` on rings and chains (so every
    existing comparison keeps working) and is a port string (``"x+"`` …)
    on grid topologies.  ``fallback`` marks a policy route that had to
    abandon the requested direction (FIXED_RIGHT on a chain end);
    ``rerouted`` marks a route that detoured around dead edges.
    """

    direction: PortLike
    hops: int
    fallback: bool = field(default=False, compare=False)
    rerouted: bool = field(default=False, compare=False)

    @property
    def port(self) -> str:
        """The outbound port name of the first hop."""
        return _port_name(self.direction)


class Topology:
    """Common interface for switchless topologies.

    A topology is immutable once built.  The constructor tabulates every
    static cabling fact — per (host, port) neighbor and edge id, and per
    host the cabled ports — from the subclass's closed-form
    :meth:`_wire` arithmetic, and every query afterwards is a table
    lookup.  Per (src, dst) answers (:meth:`next_hop`, :meth:`min_hops`,
    :meth:`minimal_ports`) are filled lazily from :meth:`_first_hop` /
    :meth:`_distance` the first time a pair is asked, so the tables only
    grow with the pairs a run actually routes.  Subclasses provide those
    three closed forms; rings and chains additionally keep the scalar
    :meth:`hops`/:meth:`route` interface the runtime's default routers
    use.
    """

    #: Port names as (negative, positive) pairs per axis.
    PORT_ORDER: tuple[str, ...] = ("left", "right")

    def __init__(self, n_hosts: int):
        if n_hosts < 2:
            raise TopologyError(f"need at least 2 hosts, got {n_hosts}")
        self.n_hosts = n_hosts
        #: Routing decisions where the policy direction was unavailable
        #: and the resolver fell back to another port (chain FIXED_RIGHT
        #: crossing the gap leftward).  Mirrored into the metrics fabric
        #: by the runtime as ``route_fallbacks``.
        self.fallbacks = 0
        self._build_tables()

    def _build_tables(self) -> None:
        """Tabulate the cabling plan once, from :meth:`_wire`."""
        order = self.PORT_ORDER
        self._port_index = {name: index for index, name in enumerate(order)}
        self._neighbors: dict[int, dict[str, Optional[int]]] = {}
        self._edges: dict[int, dict[str, Optional[tuple[int, int]]]] = {}
        self._ports: dict[int, tuple[str, ...]] = {}
        for host in range(self.n_hosts):
            neighbors: dict[str, Optional[int]] = {}
            edges: dict[str, Optional[tuple[int, int]]] = {}
            for index, name in enumerate(order):
                nb = neighbors[name] = self._wire(host, index)
                # Positive ports own the cable: (host, neighbor);
                # negative ports alias the neighbor's positive edge.
                edges[name] = None if nb is None else (
                    (host, nb) if index % 2 else (nb, host))
            self._neighbors[host] = neighbors
            self._edges[host] = edges
            self._ports[host] = tuple([
                name for name in order if neighbors[name] is not None])
        # Per-pair answers, filled on first query: source -> dst -> answer.
        self._next_hops: dict[int, dict[int, tuple[str, int]]] = {}
        self._min_hops: dict[int, dict[int, int]] = {}
        self._minimal_ports: dict[int, dict[int, tuple[str, ...]]] = {}

    def _retry(self, table: dict, host_id: int,
               port: Optional[PortLike] = None):
        """Serve a table miss: a ring/chain port spelled as a
        :class:`Direction`, or raise the TopologyError that explains a
        bad host or port (a Direction on a grid is a bad port)."""
        self.check_host(host_id)
        row = table[host_id]
        return row if port is None else row[self.check_port(port)]

    def check_host(self, host_id: int) -> None:
        if not (0 <= host_id < self.n_hosts):
            raise TopologyError(
                f"host id {host_id} outside 0..{self.n_hosts - 1}"
            )

    # -- ports ---------------------------------------------------------------
    def check_port(self, port: PortLike) -> str:
        name = _port_name(port)
        if name not in self.PORT_ORDER:
            raise TopologyError(
                f"unknown port {name!r} (expected one of {self.PORT_ORDER})"
            )
        return name

    def _index(self, port: PortLike) -> int:
        try:
            return self._port_index[port]
        except (KeyError, TypeError):
            return self._port_index[self.check_port(port)]

    def ports(self, host_id: int) -> tuple[str, ...]:
        """The ports on ``host_id`` that have a cabled neighbor."""
        try:
            return self._ports[host_id]
        except (KeyError, TypeError):
            return self._retry(self._ports, host_id)

    def port_polarity(self, port: PortLike) -> bool:
        """True for the positive member of a port pair (owns the cable)."""
        return self._index(port) % 2 == 1

    def opposite_port(self, port: PortLike) -> str:
        """The same-axis port of opposite polarity."""
        return self.PORT_ORDER[self._index(port) ^ 1]

    def edge_for(self, host_id: int, port: PortLike) -> Optional[tuple[int, int]]:
        """Canonical directed edge id of the cable behind ``port``.

        Positive ports own the cable: the edge is ``(host, neighbor)``;
        negative ports alias the neighbor's positive edge
        ``(neighbor, host)``.  None at a chain/mesh boundary.
        """
        try:
            return self._edges[host_id][port]
        except (KeyError, TypeError):
            return self._retry(self._edges, host_id, port)

    # -- structure -----------------------------------------------------------
    def neighbor(self, host_id: int, direction: PortLike) -> Optional[int]:
        """The adjacent host behind ``direction``/port, or None at an edge."""
        try:
            return self._neighbors[host_id][direction]
        except (KeyError, TypeError):
            return self._retry(self._neighbors, host_id, direction)

    def _wire(self, host_id: int, port_index: int) -> Optional[int]:
        """Closed form: the host cabled to ``PORT_ORDER[port_index]``."""
        raise NotImplementedError

    def cables(self) -> Iterator[tuple[int, str, int, str]]:
        """All cables as ``(owner, owner_port, peer, peer_port)`` tuples.

        ``owner_port`` is always positive; the matching negative port on
        ``peer`` is ``opposite_port(owner_port)``.  Yield order — by
        host, then axis — is the cluster build/cabling order and must
        stay stable.
        """
        for host in range(self.n_hosts):
            neighbors = self._neighbors[host]
            for index in range(1, len(self.PORT_ORDER), 2):
                port = self.PORT_ORDER[index]
                peer = neighbors[port]
                if peer is not None:
                    yield host, port, peer, self.PORT_ORDER[index - 1]

    def links(self) -> Iterator[tuple[int, int]]:
        """All cables as (host_a, host_b): a's positive to b's negative."""
        for owner, _port, peer, _peer_port in self.cables():
            yield owner, peer

    # -- routing -------------------------------------------------------------
    def hops(self, src: int, dst: int, direction: Direction) -> Optional[int]:
        """Link traversals from src to dst travelling only ``direction``.

        Only meaningful on 1D topologies; grids raise TopologyError.
        """
        raise NotImplementedError

    def next_hop(self, src: int, dst: int) -> tuple[str, int]:
        """The canonical first hop for src -> dst: ``(port, next_host)``."""
        try:
            return self._next_hops[src][dst]
        except (KeyError, TypeError):
            hop = self._first_hop(src, dst)
            self._next_hops.setdefault(src, {})[dst] = hop
            return hop

    def min_hops(self, src: int, dst: int) -> int:
        """Length of the canonical (minimal) path from src to dst."""
        try:
            return self._min_hops[src][dst]
        except (KeyError, TypeError):
            hops = self._distance(src, dst)
            self._min_hops.setdefault(src, {})[dst] = hops
            return hops

    def minimal_ports(self, src: int, dst: int) -> tuple[str, ...]:
        """Cabled ports at ``src`` whose neighbor is one hop closer to
        ``dst`` on the intact fabric, in ``PORT_ORDER``.

        The canonical :meth:`next_hop` port is always among them.  This
        is the candidate set adaptive routers rank by live load; it is
        shared by every router over this topology.
        """
        try:
            return self._minimal_ports[src][dst]
        except (KeyError, TypeError):
            self.next_hop(src, dst)  # validates the pair, rejects src == dst
            closer = self.min_hops(src, dst) - 1
            ports = tuple(
                port for port in self.ports(src)
                if self.min_hops(self.neighbor(src, port), dst) == closer
            )
            self._minimal_ports.setdefault(src, {})[dst] = ports
            return ports

    def _first_hop(self, src: int, dst: int) -> tuple[str, int]:
        """Closed form behind :meth:`next_hop` (validates the pair)."""
        raise NotImplementedError

    def _distance(self, src: int, dst: int) -> int:
        """Closed form behind :meth:`min_hops` (validates the pair)."""
        raise NotImplementedError

    def path(self, src: int, dst: int) -> list[tuple[int, str, int]]:
        """The canonical hop-by-hop walk as ``(node, port, next)`` triples."""
        self.check_host(src)
        self.check_host(dst)
        walk: list[tuple[int, str, int]] = []
        node = src
        while node != dst:
            port, nxt = self.next_hop(node, dst)
            walk.append((node, port, nxt))
            node = nxt
            if len(walk) > self.n_hosts:  # pragma: no cover - safety net
                raise TopologyError(f"next_hop cycle routing {src}->{dst}")
        return walk

    def route(self, src: int, dst: int,
              policy: RoutingPolicy = RoutingPolicy.FIXED_RIGHT) -> Route:
        """Pick a direction/hop-count for src -> dst under ``policy``."""
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        right = self.hops(src, dst, Direction.RIGHT)
        left = self.hops(src, dst, Direction.LEFT)
        if policy is RoutingPolicy.FIXED_RIGHT:
            if right is None:
                if left is None:
                    raise NoRouteError(f"no route {src} -> {dst}")
                # Chain fallback: the paper's fixed-rightward rule cannot
                # cross the gap, so we route leftward — a real routing
                # decision that must show up in the metrics fabric.
                self.fallbacks += 1
                return Route(Direction.LEFT, left, fallback=True)
            return Route(Direction.RIGHT, right)
        # SHORTEST, ties broken rightward.
        candidates = [
            (hops, direction)
            for hops, direction in ((right, Direction.RIGHT), (left, Direction.LEFT))
            if hops is not None
        ]
        if not candidates:
            raise NoRouteError(f"no route {src} -> {dst}")
        candidates.sort(key=lambda item: (item[0], item[1] is Direction.LEFT))
        hops, direction = candidates[0]
        return Route(direction, hops)


class RingTopology(Topology):
    """N hosts in a cycle; every host has both neighbors."""

    def _wire(self, host_id: int, port_index: int) -> int:
        return (host_id + (1 if port_index else -1)) % self.n_hosts

    def hops(self, src: int, dst: int, direction: Direction) -> int:
        self.check_host(src)
        self.check_host(dst)
        if direction is Direction.RIGHT:
            return (dst - src) % self.n_hosts
        return (src - dst) % self.n_hosts

    def _first_hop(self, src: int, dst: int) -> tuple[str, int]:
        route = self.route(src, dst, RoutingPolicy.SHORTEST)
        return route.port, self.neighbor(src, route.port)

    def _distance(self, src: int, dst: int) -> int:
        return min(self.hops(src, dst, Direction.RIGHT),
                   self.hops(src, dst, Direction.LEFT))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RingTopology n={self.n_hosts}>"


class ChainTopology(Topology):
    """N hosts in a line: host 0 has no left neighbor, host N-1 no right."""

    def _wire(self, host_id: int, port_index: int) -> Optional[int]:
        nb = host_id + (1 if port_index else -1)
        return nb if 0 <= nb < self.n_hosts else None

    def hops(self, src: int, dst: int,
             direction: Direction) -> Optional[int]:
        self.check_host(src)
        self.check_host(dst)
        if direction is Direction.RIGHT:
            return dst - src if dst > src else None
        return src - dst if dst < src else None

    def _first_hop(self, src: int, dst: int) -> tuple[str, int]:
        self.check_host(src)
        self.check_host(dst)
        if src == dst:
            raise TopologyError(f"route to self (host {src})")
        port = "right" if dst > src else "left"
        return port, self.neighbor(src, port)

    def _distance(self, src: int, dst: int) -> int:
        self.check_host(src)
        self.check_host(dst)
        return abs(dst - src)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChainTopology n={self.n_hosts}>"


class GridTopology(Topology):
    """A k-ary n-dimensional grid (1 <= n <= 3), open (mesh) or wrapped.

    Hosts are numbered row-major with x fastest: the host at coordinates
    ``(x, y, z)`` is ``x + dims[0]*y + dims[0]*dims[1]*z``.  Each seated
    axis contributes a port pair (``x-``/``x+``, …) and — on wrapped
    axes — a wraparound cable from the last coordinate back to the first,
    exactly the APEnet+ 3D-torus cabling plan.

    The canonical routing discipline is **dimension order** (X, then Y,
    then Z): :meth:`next_hop` resolves one hop at a time, correcting the
    lowest differing axis first; on wrapped axes it travels the shorter
    way around, breaking ties toward the positive port.
    """

    AXES = "xyz"

    def __init__(self, dims: Sequence[int], wrap: bool):
        dims = tuple(int(d) for d in dims)
        self.check_dims(dims, wrap)
        self.dims = dims
        self.wrap = wrap
        self.PORT_ORDER = tuple(
            f"{axis}{sign}"
            for axis in self.AXES[: len(dims)]
            for sign in ("-", "+")
        )
        # Row-major strides, x fastest.
        self._strides = tuple(
            prod(dims[:axis]) for axis in range(len(dims))
        )
        self._coords = {
            host: tuple((host // stride) % extent
                        for stride, extent in zip(self._strides, dims))
            for host in range(prod(dims))
        }
        super().__init__(prod(dims))

    @classmethod
    def check_dims(cls, dims: Sequence[int], wrap: bool) -> None:
        """Raise TopologyError unless ``dims`` is a buildable grid shape:
        1..3 axes, each at least 2 long (3 when wrapped)."""
        if not 1 <= len(dims) <= 3:
            raise TopologyError(
                f"grid needs 1..3 dimensions, got {len(dims)}"
            )
        floor = 3 if wrap else 2
        for axis, extent in zip(cls.AXES, dims):
            if extent < floor:
                kind = "torus" if wrap else "mesh"
                raise TopologyError(
                    f"{kind} axis {axis!r} needs extent >= {floor}, "
                    f"got {extent}"
                )

    # -- coordinates ---------------------------------------------------------
    def coords(self, host_id: int) -> tuple[int, ...]:
        try:
            return self._coords[host_id]
        except (KeyError, TypeError):
            return self._retry(self._coords, host_id)

    def host_at(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.dims):
            raise TopologyError(
                f"expected {len(self.dims)} coordinates, got {len(coords)}"
            )
        for axis, (c, extent) in enumerate(zip(coords, self.dims)):
            if not 0 <= c < extent:
                raise TopologyError(
                    f"coordinate {self.AXES[axis]}={c} outside "
                    f"0..{extent - 1}"
                )
        return sum(c * s for c, s in zip(coords, self._strides))

    # -- structure -----------------------------------------------------------
    def _wire(self, host_id: int, port_index: int) -> Optional[int]:
        axis, positive = divmod(port_index, 2)
        here = self._coords[host_id][axis]
        extent = self.dims[axis]
        there = here + (1 if positive else -1)
        if self.wrap:
            there %= extent
        elif not 0 <= there < extent:
            return None
        return host_id + (there - here) * self._strides[axis]

    # -- routing -------------------------------------------------------------
    def hops(self, src: int, dst: int, direction: Direction) -> Optional[int]:
        raise TopologyError(
            "grid topologies route per-hop; use next_hop()/min_hops()"
        )

    def _axis_step(self, axis: int, frm: int, to: int) -> tuple[int, int]:
        """(signed step, remaining hops) to correct one axis coordinate."""
        extent = self.dims[axis]
        if self.wrap:
            fwd = (to - frm) % extent
            back = (frm - to) % extent
            if fwd <= back:  # ties toward the positive port
                return +1, fwd
            return -1, back
        return (+1 if to > frm else -1), abs(to - frm)

    def _first_hop(self, src: int, dst: int) -> tuple[str, int]:
        sc = self.coords(src)
        dc = self.coords(dst)
        for axis, (s, d) in enumerate(zip(sc, dc)):
            if s == d:
                continue
            sign, _ = self._axis_step(axis, s, d)
            port = self.PORT_ORDER[axis * 2 + (1 if sign > 0 else 0)]
            return port, self.neighbor(src, port)
        raise TopologyError(f"route to self (host {src})")

    def _distance(self, src: int, dst: int) -> int:
        sc = self.coords(src)
        dc = self.coords(dst)
        return sum(
            self._axis_step(axis, s, d)[1]
            for axis, (s, d) in enumerate(zip(sc, dc))
        )

    def route(self, src: int, dst: int,
              policy: RoutingPolicy = RoutingPolicy.FIXED_RIGHT) -> Route:
        """Dimension-order route; ``policy`` is ignored on grids."""
        port, _ = self.next_hop(src, dst)
        return Route(port, self.min_hops(src, dst))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = "x".join(str(d) for d in self.dims)
        kind = "Torus" if self.wrap else "Mesh"
        return f"<{kind}Topology {shape} n={self.n_hosts}>"


class MeshTopology(GridTopology):
    """Open-boundary 2D/3D grid: edge hosts have fewer seated adapters."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, wrap=False)


class TorusTopology(GridTopology):
    """Wrapped grid: every axis closes into a ring (1D torus == ring)."""

    def __init__(self, dims: Sequence[int]):
        super().__init__(dims, wrap=True)
