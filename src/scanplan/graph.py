"""Exchange-graph data model: a vertex-weighted, edge-weighted bipartite
graph of candidate inter-robot loop closures.

Side 1 holds robot 1's poses and side 2 robot 2's; an edge means the two
poses may close a loop and at least one of the two scans must be sent for
the pair to be verified. Vertex weights are scan sizes in bytes (optionally
replaced by a per-vertex inertia price), edge weights are verification
costs. All quantities are exact rationals so optimality comparisons and
certificates downstream are exact.

Inside, a graph is a set of index arrays: per side the vertex ids in file
order; scan sizes, inertia prices and edge costs as integer numerators
over one common denominator; and the edge endpoints as two int64 arrays of
side positions. ``Fraction``, ``VertexId``, ``ScanVertex`` and ``Edge``
objects exist only at the API boundary, built on first access and cached.

Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    NegativeWeight,
    UnknownVertex,
    ValidationError,
)
from .objectives import P1, P2, Objective, as_fraction


class VertexId(NamedTuple):
    """Identifies a pose: its robot side (1 or 2) and an index unique
    within that side. Tuple ordering gives the canonical (side, index)
    order used for all deterministic tie-breaking."""

    side: int
    index: int

    def __str__(self):
        return f"{self.side}:{self.index}"


class Edge(NamedTuple):
    """A candidate loop closure; ``u`` is always the side-1 endpoint."""

    u: VertexId
    v: VertexId
    cost: Fraction

    @property
    def key(self) -> tuple[VertexId, VertexId]:
        return (self.u, self.v)


EdgeKey = tuple[VertexId, VertexId]


@dataclass(frozen=True)
class ScanVertex:
    """A pose with the size of its attached scan and an optional inertia
    price that replaces the scan size in every objective."""

    vid: VertexId
    scan_size: Fraction
    inertia: Fraction | None = None

    @property
    def effective_scan_size(self) -> Fraction:
        return self.scan_size if self.inertia is None else self.inertia


class IncidenceView:
    """Immutable per-vertex adjacency view of a validated graph.

    Conceptually the unoriented incidence structure: every edge appears in
    exactly two adjacency lists, one per endpoint.
    """

    def __init__(self, g: "ExchangeGraph"):
        adj: dict[VertexId, list[Edge]] = {vid: [] for vid in g.vertex_ids}
        for e in g.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = {vid: tuple(es) for vid, es in adj.items()}
        self._g = g

    def edges_at(self, vid: VertexId) -> tuple[Edge, ...]:
        try:
            return self._adj[vid]
        except KeyError:
            raise UnknownVertex(f"vertex {vid} not in graph") from None

    def neighbors(self, vid: VertexId) -> tuple[VertexId, ...]:
        return tuple(e.v if e.u == vid else e.u for e in self.edges_at(vid))

    def degree(self, vid: VertexId) -> int:
        return len(self.edges_at(vid))

    def incident_cost(self, vid: VertexId) -> Fraction:
        """Sum of verification costs over the edges at ``vid``."""
        s, k = self._g.locate(vid)
        return Fraction(self._g.incident_num[s][k], self._g.den)

    def items(self):
        return self._adj.items()


class ExchangeGraph:
    """Validated bipartite exchange graph. Build via :func:`build_graph`,
    :meth:`from_vertices` or :func:`loads_graph`; the constructor takes the
    index arrays below and runs every check.

    Those entry points prune degree-zero vertices first (an isolated pose
    needs no exchange), so every retained vertex has at least one
    candidate edge; the pruned ids are kept in ``pruned`` and reported
    with a warning.

    The index arrays, indexed by side minus one where a pair is given:

    - ``ids``: per side, the vertex ids in file order. A vertex's position
      in its side's tuple is its position in every array below.
    - ``den``: the positive common denominator of every scan size,
      inertia price and edge cost.
    - ``size_num`` / ``inertia_num``: per side, tuples of numerators over
      ``den``; an inertia entry is None where no price is set.
    - ``eu`` / ``ev``: read-only int64 arrays holding, for each edge in
      file order, the side-1 and the side-2 position of its endpoints.
    - ``cost_num``: tuple of edge-cost numerators over ``den``.
    """

    def __init__(
        self,
        ids: Sequence[Sequence[int]],
        den: int,
        size_num: Sequence[Sequence[int]],
        inertia_num: Sequence[Sequence[int | None]],
        eu: Sequence[int],
        ev: Sequence[int],
        cost_num: Sequence[int],
        pruned: Sequence[VertexId] = (),
    ):
        self.ids = (tuple(ids[0]), tuple(ids[1]))
        self.den = den
        self.size_num = (tuple(size_num[0]), tuple(size_num[1]))
        self.inertia_num = (tuple(inertia_num[0]), tuple(inertia_num[1]))
        self.eu = np.array(eu, dtype=np.int64)
        self.ev = np.array(ev, dtype=np.int64)
        self.eu.flags.writeable = self.ev.flags.writeable = False
        self.cost_num = tuple(cost_num)
        self.pruned = tuple(pruned)
        self._validate()

    def _validate(self):
        if not (type(self.den) is int and self.den > 0):
            raise ValidationError(f"common denominator must be a positive integer, got {self.den!r}")
        for side, ids, sizes, inertia in zip((1, 2), self.ids, self.size_num, self.inertia_num):
            if not len(ids) == len(sizes) == len(inertia):
                raise ValidationError(f"side {side} arrays differ in length")
            seen: set[int] = set()
            for index, size, price in zip(ids, sizes, inertia):
                if index < 0:
                    raise IndexOutOfRange(f"negative vertex index {side}:{index}")
                if index in seen:
                    raise ValidationError(f"duplicate vertex id {side}:{index}")
                seen.add(index)
                for label, num in (("scan_size", size), ("inertia", price)):
                    if num is not None and num < 0:
                        raise NegativeWeight(
                            f"{label} of {side}:{index} is negative: {Fraction(num, self.den)}"
                        )
        n1, n2 = len(self.ids[0]), len(self.ids[1])
        m = len(self.cost_num)
        if self.eu.shape != (m,) or self.ev.shape != (m,):
            raise ValidationError("edge endpoint arrays and edge costs differ in length")
        if m and (min(self.eu.min(), self.ev.min()) < 0 or self.eu.max() >= n1 or self.ev.max() >= n2):
            outside = (self.eu < 0) | (self.eu >= n1) | (self.ev < 0) | (self.ev >= n2)
            k = int(np.flatnonzero(outside)[0])
            raise IndexOutOfRange(f"edge {k} references a missing vertex position")
        # the first edge that repeats an earlier one or has a negative cost
        codes = self.eu * n2 + self.ev
        _, first = np.unique(codes, return_index=True)
        repeat = m
        if len(first) < m:
            repeated = np.ones(m, dtype=bool)
            repeated[first] = False
            repeat = int(np.flatnonzero(repeated)[0])
        negative = m
        if min(self.cost_num, default=0) < 0:
            negative = next(k for k, c in enumerate(self.cost_num) if c < 0)
        if min(repeat, negative) < m:
            k = min(repeat, negative)
            u, v = self.ids[0][self.eu[k]], self.ids[1][self.ev[k]]
            if k == repeat:
                raise DuplicateEdge(f"duplicate edge 1:{u}--2:{v}")
            raise NegativeWeight(
                f"edge 1:{u}--2:{v} has negative cost {Fraction(self.cost_num[k], self.den)}"
            )
        for side, ends, n in ((1, self.eu, n1), (2, self.ev, n2)):
            isolated = np.flatnonzero(np.bincount(ends, minlength=n) == 0)
            if isolated.size:
                raise ValidationError(
                    f"vertex {side}:{self.ids[side - 1][isolated[0]]} has degree 0; "
                    "prune isolated vertices before construction"
                )

    # -- boundary objects, built on first use ------------------------------

    @cached_property
    def vids(self) -> tuple[tuple[VertexId, ...], tuple[VertexId, ...]]:
        """Per side, the VertexIds in position order."""
        return (
            tuple(VertexId(1, i) for i in self.ids[0]),
            tuple(VertexId(2, i) for i in self.ids[1]),
        )

    @cached_property
    def vertex_ids(self) -> tuple[VertexId, ...]:
        return self.vids[0] + self.vids[1]

    @cached_property
    def vertex_set(self) -> frozenset[VertexId]:
        return frozenset(self.vertex_ids)

    @cached_property
    def position(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per side, each vertex id's position."""
        return tuple({i: k for k, i in enumerate(ids)} for ids in self.ids)

    @cached_property
    def v1(self) -> tuple[ScanVertex, ...]:
        return self._scan_vertices(1)

    @cached_property
    def v2(self) -> tuple[ScanVertex, ...]:
        return self._scan_vertices(2)

    def _scan_vertices(self, side: int) -> tuple[ScanVertex, ...]:
        s, den = side - 1, self.den
        return tuple(
            ScanVertex(vid, Fraction(size, den), None if price is None else Fraction(price, den))
            for vid, size, price in zip(self.vids[s], self.size_num[s], self.inertia_num[s])
        )

    @cached_property
    def edge_key_list(self) -> list[EdgeKey]:
        """Every edge's (u, v) key, in edge order."""
        vids1, vids2 = self.vids
        return list(zip(map(vids1.__getitem__, self.eu.tolist()), map(vids2.__getitem__, self.ev.tolist())))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        den = self.den
        return tuple(Edge(u, v, Fraction(c, den)) for (u, v), c in zip(self.edge_key_list, self.cost_num))

    @cached_property
    def _edge_at(self) -> dict[int, int]:
        codes = self.eu * len(self.ids[1]) + self.ev
        return dict(zip(codes.tolist(), range(len(self.cost_num))))

    @cached_property
    def _incidence(self) -> IncidenceView:
        return IncidenceView(self)

    # -- integer columns, built on first use -------------------------------

    @cached_property
    def eff_num(self) -> tuple[list[int], list[int]]:
        """Per side, the effective scan sizes (the inertia price where set)
        as numerators over ``den``."""
        return tuple(
            [size if price is None else price for size, price in zip(sizes, prices)]
            for sizes, prices in zip(self.size_num, self.inertia_num)
        )

    @cached_property
    def incident_num(self) -> tuple[list[int], list[int]]:
        """Per side, the summed cost numerators of each vertex's edges."""
        sums = ([0] * len(self.ids[0]), [0] * len(self.ids[1]))
        at1, at2 = sums
        for i, j, c in zip(self.eu.tolist(), self.ev.tolist(), self.cost_num):
            at1[i] += c
            at2[j] += c
        return sums

    # -- lookups ---------------------------------------------------------

    def locate(self, vid: VertexId) -> tuple[int, int]:
        """(side - 1, position) of a vertex."""
        side, index = vid
        s = {1: 0, 2: 1}.get(side)
        k = None if s is None else self.position[s].get(index)
        if k is None:
            raise UnknownVertex(f"vertex {vid} not in graph")
        return s, k

    def vertex(self, vid: VertexId) -> ScanVertex:
        s, k = self.locate(vid)
        return (self.v1, self.v2)[s][k]

    def __contains__(self, vid: VertexId) -> bool:
        try:
            self.locate(vid)
        except UnknownVertex:
            return False
        return True

    def side(self, side: int) -> tuple[ScanVertex, ...]:
        if side == 1:
            return self.v1
        if side == 2:
            return self.v2
        raise ValidationError(f"robot side must be 1 or 2, got {side}")

    def side_vids(self, side: int) -> tuple[VertexId, ...]:
        if side not in (1, 2):
            raise ValidationError(f"robot side must be 1 or 2, got {side}")
        return self.vids[side - 1]

    def label_masks(self, ones: frozenset[VertexId]) -> tuple[np.ndarray, np.ndarray]:
        """Per side, a boolean array marking the vertices in ``ones``."""
        return tuple(np.fromiter((vid in ones for vid in vids), bool, len(vids)) for vids in self.vids)

    @property
    def num_vertices(self) -> int:
        return len(self.ids[0]) + len(self.ids[1])

    @property
    def num_edges(self) -> int:
        return len(self.cost_num)

    def incidence(self) -> IncidenceView:
        return self._incidence

    def edge_index(self, key) -> int | None:
        """Position of the edge ``(u, v)`` in the edge arrays, or None when
        the pair is not a candidate edge."""
        try:
            (su, iu), (sv, iv) = key
            if su != 1 or sv != 2:
                return None
            i, j = self.position[0].get(iu), self.position[1].get(iv)
        except (TypeError, ValueError):
            return None
        if i is None or j is None:
            return None
        return self._edge_at.get(i * len(self.ids[1]) + j)

    def edge_cost(self, key: EdgeKey) -> Fraction:
        k = self.edge_index(key)
        if k is None:
            raise UnknownVertex(f"no edge {key[0]}--{key[1]} in graph")
        return Fraction(self.cost_num[k], self.den)

    @cached_property
    def _edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.edge_key_list)

    def edge_keys(self) -> frozenset[EdgeKey]:
        return self._edge_keys

    def total_edge_cost(self) -> Fraction:
        return Fraction(sum(self.cost_num), self.den)

    def scan_weight(self, vid: VertexId) -> Fraction:
        """Effective scan size: the inertia price when set, else the size."""
        s, k = self.locate(vid)
        return Fraction(self.eff_num[s][k], self.den)

    def total_scan_weight(self) -> Fraction:
        return Fraction(sum(self.eff_num[0]) + sum(self.eff_num[1]), self.den)

    def __repr__(self):
        return (
            f"ExchangeGraph(|V1|={len(self.ids[0])}, |V2|={len(self.ids[1])}, "
            f"|L|={self.num_edges})"
        )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_vertices(
        cls,
        v1: Iterable[tuple[int, object, object]],
        v2: Iterable[tuple[int, object, object]],
        edges: Iterable[tuple[int, int, object]],
    ) -> "ExchangeGraph":
        """Build from explicit vertex ids: each vertex is (id, scan_size,
        inertia-or-None), each edge (u_id, v_id, cost). Isolated vertices
        are pruned with a warning.
        """
        ids: tuple[list, list] = ([], [])
        sizes: tuple[list, list] = ([], [])
        inertia: tuple[list, list] = ([], [])
        for s, entries in enumerate((v1, v2)):
            for vid_index, scan_size, price in entries:
                ids[s].append(vid_index if type(vid_index) is int else int(vid_index))
                sizes[s].append(_exact(scan_size))
                inertia[s].append(None if price is None else _exact(price))
        pos1, pos2 = ({i: k for k, i in enumerate(side_ids)} for side_ids in ids)
        eu, ev, costs = [], [], []
        for u_index, v_index, cost in edges:
            i = pos1.get(u_index if type(u_index) is int else int(u_index))
            j = pos2.get(v_index if type(v_index) is int else int(v_index))
            if i is None or j is None:
                raise IndexOutOfRange(f"edge ({u_index}, {v_index}) references a missing vertex")
            eu.append(i)
            ev.append(j)
            costs.append(_exact(cost))
        return _assemble(ids, sizes, inertia, (pos1, pos2), eu, ev, costs)


def _exact(value) -> int | Fraction:
    """An int or a Fraction as it is, anything else as an exact Fraction."""
    return value if type(value) is int or type(value) is Fraction else as_fraction(value)


def _numerators(values: list, den: int) -> list:
    """Exact values (None passes through) as numerators over ``den``."""
    return [
        x * den if type(x) is int else None if x is None else x.numerator * (den // x.denominator)
        for x in values
    ]


def _assemble(ids, sizes, inertia, positions, eu, ev, costs) -> ExchangeGraph:
    """Prune degree-zero vertices (with a warning), bring every value over
    one common denominator and construct the graph. ``ids``, ``sizes`` and
    ``inertia`` are per-side lists, ``positions`` per-side maps from id to
    position, ``eu``/``ev`` the side positions of each edge's endpoints and
    ``costs`` its cost; values are ints or Fractions."""
    ends = [np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64)]
    keep, pruned = [], []
    for side in (1, 2):
        s = side - 1
        touched = np.bincount(ends[s], minlength=len(ids[s])) > 0
        if len(positions[s]) < len(ids[s]):
            # repeated ids: every copy of a touched id is kept (and refused later)
            touched = touched[[positions[s][i] for i in ids[s]]]
        keep.append(touched)
        pruned += [VertexId(side, i) for i in compress(ids[s], (~touched).tolist())]
    pruned = sorted(set(pruned))
    if pruned:
        shown = ", ".join(str(p) for p in pruned[:8])
        if len(pruned) > 8:
            shown += f", ... ({len(pruned) - 8} more)"
        warnings.warn(
            f"pruned {len(pruned)} isolated vertices (no candidate edges): {shown}",
            stacklevel=3,
        )
        for s in (0, 1):
            ends[s] = (np.cumsum(keep[s]) - 1)[ends[s]]
            kept = keep[s].tolist()
            ids[s][:] = compress(ids[s], kept)
            sizes[s][:] = compress(sizes[s], kept)
            inertia[s][:] = compress(inertia[s], kept)
    columns = (sizes[0], sizes[1], inertia[0], inertia[1], costs)
    den = math.lcm(*{x.denominator for col in columns for x in col if type(x) is not int and x is not None})
    return ExchangeGraph(
        ids,
        den,
        (_numerators(sizes[0], den), _numerators(sizes[1], den)),
        (_numerators(inertia[0], den), _numerators(inertia[1], den)),
        ends[0],
        ends[1],
        _numerators(costs, den),
        pruned,
    )


def build_graph(
    v1_weights: Sequence[object],
    v2_weights: Sequence[object],
    edges: Iterable[tuple],
    v1_inertia: Mapping[int, object] | None = None,
    v2_inertia: Mapping[int, object] | None = None,
) -> ExchangeGraph:
    """Build a validated exchange graph from per-side scan sizes and an
    edge list of (v1_index, v2_index[, cost]) tuples (cost defaults to 1).

    Vertex indices are positions within the weight lists. Degree-0
    vertices are pruned (with a warning) so every retained vertex has at
    least one candidate edge.
    """
    v1_inertia = v1_inertia or {}
    v2_inertia = v2_inertia or {}
    v1 = [(i, w, v1_inertia.get(i)) for i, w in enumerate(v1_weights)]
    v2 = [(i, w, v2_inertia.get(i)) for i, w in enumerate(v2_weights)]
    n1, n2 = len(v1), len(v2)
    norm_edges = []
    for item in edges:
        if len(item) == 2:
            u, v = item
            cost = 1
        else:
            u, v, cost = item
        if not (0 <= int(u) < n1) or not (0 <= int(v) < n2):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex ranges")
        norm_edges.append((u, v, cost))
    return ExchangeGraph.from_vertices(v1, v2, norm_edges)


def _weight_terms(g: ExchangeGraph, objective: Objective) -> tuple[int, tuple[int, int], int]:
    """The cost model as integers: under ``objective`` a side-s vertex
    weighs ``(a * scan + b[s - 1] * incident) / den``, where ``scan`` is its
    effective scan size and ``incident`` its incident edge cost, both as
    numerators over ``g.den``. Returns ``(a, b, den)``.

    p1: workload price only; p2: effective scan size only; p3: scan size
    plus omega times the workload price. Transmitting a vertex's scan makes
    the *other* robot verify its edges, so side-1 vertices carry alpha2
    and side-2 vertices alpha1.
    """
    if objective.variant == P2:
        return 1, (0, 0), g.den
    q = math.lcm(objective.alpha1.denominator, objective.alpha2.denominator)
    b = ((objective.alpha2 * q).numerator, (objective.alpha1 * q).numerator)
    if objective.variant == P1:
        return 0, b, g.den * q
    omega = objective.omega
    return (
        q * omega.denominator,
        (omega.numerator * b[0], omega.numerator * b[1]),
        g.den * q * omega.denominator,
    )


def weight_numerators(g: ExchangeGraph, objective: Objective) -> tuple[tuple[list[int], list[int]], int]:
    """Every vertex's weight under ``objective``: per side, numerators in
    position order, over the returned denominator."""
    a, b, den = _weight_terms(g, objective)
    if b == (0, 0):
        return tuple([a * x for x in eff] for eff in g.eff_num), den
    return (
        tuple(
            [a * x + bs * c for x, c in zip(eff, inc)]
            for eff, inc, bs in zip(g.eff_num, g.incident_num, b)
        ),
        den,
    )


def workload_weight(g: ExchangeGraph, vid: VertexId, alpha1, alpha2) -> Fraction:
    """Per-vertex workload price: transmitting v's scan makes the *other*
    robot verify all of v's edges, so side-1 vertices are priced with
    alpha2 and side-2 vertices with alpha1, times the incident edge cost.
    """
    alpha = as_fraction(alpha2) if vid.side == 1 else as_fraction(alpha1)
    s, k = g.locate(vid)
    return alpha * Fraction(g.incident_num[s][k], g.den)


def effective_weight(g: ExchangeGraph, vid: VertexId, objective: Objective) -> Fraction:
    """Weight of labeling ``vid`` for transmission under ``objective``
    (see :func:`_weight_terms`). The inertia override, when present,
    replaces the scan size before composition.
    """
    s, k = g.locate(vid)
    a, b, den = _weight_terms(g, objective)
    incident = g.incident_num[s][k] if b[s] else 0
    return Fraction(a * g.eff_num[s][k] + b[s] * incident, den)


# -- serialization --------------------------------------------------------
#
# File format: UTF-8 JSON with keys "v1"/"v2" (arrays of {"id", "scan_size",
# optional "inertia"}) and "edges" (arrays of {"u", "v", optional "cost"}).
# Numbers are decimal and parsed exactly into rationals. Values whose exact
# form has no terminating decimal expansion are written as "p/q" strings and
# accepted back in that form, so serialize/deserialize round-trips exactly.


def format_rational(f: Fraction) -> str:
    """Exact text form of a rational: a plain integer, a terminating
    decimal when the denominator is of the form 2^a*5^b, else ``p/q``."""
    den = f.denominator
    if den == 1:
        return str(f.numerator)
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _format_number(f: Fraction) -> str:
    """JSON token for a rational: exact decimal number, or a quoted p/q
    string when no terminating decimal exists."""
    text = format_rational(f)
    return json.dumps(text) if "/" in text else text


def dumps_graph(g: ExchangeGraph) -> str:
    """Serialize a graph to the exchange-graph file format."""
    texts: dict[int, str] = {}

    def number(num: int) -> str:
        text = texts.get(num)
        if text is None:
            text = texts[num] = _format_number(Fraction(num, g.den))
        return text

    lines = ["{"]
    for key, ids, sizes, prices in zip(("v1", "v2"), g.ids, g.size_num, g.inertia_num):
        entries = []
        for index, size, price in zip(ids, sizes, prices):
            inertia = "" if price is None else f', "inertia": {number(price)}'
            entries.append(f'    {{"id": {index}, "scan_size": {number(size)}{inertia}}}')
        lines.append(f'  "{key}": [')
        lines.append(",\n".join(entries))
        lines.append("  ],")
    u_ids = map(g.ids[0].__getitem__, g.eu.tolist())
    v_ids = map(g.ids[1].__getitem__, g.ev.tolist())
    entries = [
        f'    {{"u": {u}, "v": {v}, "cost": {number(c)}}}'
        for u, v, c in zip(u_ids, v_ids, g.cost_num)
    ]
    lines.append('  "edges": [')
    lines.append(",\n".join(entries))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_number(value) -> int | Fraction:
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, bool) or value is None:
        raise GraphFormatError(f"expected a number, got {value!r}")
    return as_fraction(value)


def _load_int(value) -> int:
    """A JSON integer as an id or label; floats and booleans are refused
    rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"expected an integer, got {value!r}")
    return value


def loads_graph(text: str) -> ExchangeGraph:
    """Parse the exchange-graph file format; numbers become exact rationals."""
    try:
        doc = json.loads(text, parse_float=Fraction, parse_int=int)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph file must hold a JSON object")
    parsed: dict[str, Fraction] = {}  # "p/q" texts repeat, edge costs above all

    def number(value):
        if type(value) is not str:
            return _load_number(value)
        exact = parsed.get(value)
        if exact is None:
            exact = parsed[value] = _load_number(value)
        return exact

    try:
        ids, sizes, inertia = ([], []), ([], []), ([], [])
        for s, key in enumerate(("v1", "v2")):
            entries = doc[key]
            if not isinstance(entries, list):
                raise GraphFormatError(f"{key!r} must be an array")
            for entry in entries:
                price = entry.get("inertia")
                ids[s].append(_load_int(entry["id"]))
                sizes[s].append(number(entry["scan_size"]))
                inertia[s].append(None if price is None else number(price))
        us, vs, costs = [], [], []
        for entry in doc.get("edges", []):
            cost = entry.get("cost", 1)
            u = entry["u"]
            us.append(u if type(u) is int else _load_int(u))
            v = entry["v"]
            vs.append(v if type(v) is int else _load_int(v))
            costs.append(cost if type(cost) is int else number(cost))
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphFormatError(f"malformed graph file: {exc!r}") from exc
    positions = tuple({i: k for k, i in enumerate(side_ids)} for side_ids in ids)
    eu = [positions[0].get(u) for u in us]
    ev = [positions[1].get(v) for v in vs]
    if None in eu or None in ev:
        k = next(k for k, ends in enumerate(zip(eu, ev)) if None in ends)
        raise IndexOutOfRange(f"edge ({us[k]}, {vs[k]}) references a missing vertex")
    return _assemble(ids, sizes, inertia, positions, eu, ev, costs)


def save_graph(g: ExchangeGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))


def load_graph(path) -> ExchangeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())
