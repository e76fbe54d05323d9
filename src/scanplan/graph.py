"""Exchange-graph data model: a vertex-weighted, edge-weighted bipartite
graph of candidate inter-robot loop closures.

Side 1 holds robot 1's poses and side 2 robot 2's; an edge means the two
poses may close a loop and at least one of the two scans must be sent for
the pair to be verified. Vertex weights are scan sizes in bytes (optionally
replaced by a per-vertex inertia price), edge weights are verification
costs. All quantities are exact rationals so optimality comparisons and
certificates downstream are exact.

Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

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

    def __init__(self, vertices: Iterable[VertexId], edges: Sequence[Edge]):
        adj: dict[VertexId, list[Edge]] = {vid: [] for vid in vertices}
        for e in edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = {vid: tuple(es) for vid, es in adj.items()}
        self._degree_cost = {
            vid: sum((e.cost for e in es), Fraction(0))
            for vid, es in self._adj.items()
        }

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
        try:
            return self._degree_cost[vid]
        except KeyError:
            raise UnknownVertex(f"vertex {vid} not in graph") from None

    def items(self):
        return self._adj.items()


class ExchangeGraph:
    """Validated bipartite exchange graph. Build via :func:`build_graph`
    or :meth:`from_vertices`; the constructor itself runs every check.

    Those entry points prune degree-zero vertices first (an isolated pose
    needs no exchange), so every retained vertex has at least one
    candidate edge; the pruned ids are kept in ``pruned`` and reported
    with a warning.
    """

    __slots__ = ("v1", "v2", "edges", "pruned", "_by_id", "_incidence", "_edge_costs")

    def __init__(
        self,
        v1: Sequence[ScanVertex],
        v2: Sequence[ScanVertex],
        edges: Sequence[Edge],
        _pruned: Sequence[VertexId] = (),
    ):
        self.v1 = tuple(v1)
        self.v2 = tuple(v2)
        self.edges = tuple(edges)
        self.pruned = tuple(_pruned)
        self._validate()
        self._by_id = {sv.vid: sv for sv in self.v1 + self.v2}
        self._incidence = IncidenceView(self._by_id.keys(), self.edges)
        self._edge_costs = {e.key: e.cost for e in self.edges}

    def _validate(self):
        seen: set[VertexId] = set()
        for side, vertices in ((1, self.v1), (2, self.v2)):
            for sv in vertices:
                if sv.vid.side != side:
                    raise ValidationError(f"vertex {sv.vid} listed on side {side}")
                if sv.vid.index < 0:
                    raise IndexOutOfRange(f"negative vertex index {sv.vid}")
                if sv.vid in seen:
                    raise ValidationError(f"duplicate vertex id {sv.vid}")
                seen.add(sv.vid)
                for label, value in (("scan_size", sv.scan_size), ("inertia", sv.inertia)):
                    if value is not None and value < 0:
                        raise NegativeWeight(f"{label} of {sv.vid} is negative: {value}")
        edge_keys: set[EdgeKey] = set()
        degree: dict[VertexId, int] = {vid: 0 for vid in seen}
        for e in self.edges:
            if e.u.side != 1 or e.v.side != 2:
                raise ValidationError(f"edge {e.u}--{e.v} does not join side 1 to side 2")
            if e.u not in seen or e.v not in seen:
                raise IndexOutOfRange(f"edge {e.u}--{e.v} references a missing vertex")
            if e.key in edge_keys:
                raise DuplicateEdge(f"duplicate edge {e.u}--{e.v}")
            if e.cost < 0:
                raise NegativeWeight(f"edge {e.u}--{e.v} has negative cost {e.cost}")
            edge_keys.add(e.key)
            degree[e.u] += 1
            degree[e.v] += 1
        for vid, deg in degree.items():
            if deg == 0:
                raise ValidationError(
                    f"vertex {vid} has degree 0; prune isolated vertices before construction"
                )

    # -- lookups ---------------------------------------------------------

    def vertex(self, vid: VertexId) -> ScanVertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise UnknownVertex(f"vertex {vid} not in graph") from None

    def __contains__(self, vid: VertexId) -> bool:
        return vid in self._by_id

    def side(self, side: int) -> tuple[ScanVertex, ...]:
        if side == 1:
            return self.v1
        if side == 2:
            return self.v2
        raise ValidationError(f"robot side must be 1 or 2, got {side}")

    @property
    def vertex_ids(self) -> tuple[VertexId, ...]:
        return tuple(self._by_id.keys())

    @property
    def num_vertices(self) -> int:
        return len(self.v1) + len(self.v2)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def incidence(self) -> IncidenceView:
        return self._incidence

    def edge_cost(self, key: EdgeKey) -> Fraction:
        try:
            return self._edge_costs[key]
        except KeyError:
            raise UnknownVertex(f"no edge {key[0]}--{key[1]} in graph") from None

    def edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self._edge_costs.keys())

    def total_edge_cost(self) -> Fraction:
        return sum((e.cost for e in self.edges), Fraction(0))

    def scan_weight(self, vid: VertexId) -> Fraction:
        """Effective scan size: the inertia price when set, else the size."""
        return self.vertex(vid).effective_scan_size

    def total_scan_weight(self) -> Fraction:
        return sum((sv.effective_scan_size for sv in self._by_id.values()), Fraction(0))

    def __repr__(self):
        return (
            f"ExchangeGraph(|V1|={len(self.v1)}, |V2|={len(self.v2)}, "
            f"|L|={len(self.edges)})"
        )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_vertices(
        cls,
        v1: Sequence[tuple[int, object, object]],
        v2: Sequence[tuple[int, object, object]],
        edges: Sequence[tuple[int, int, object]],
    ) -> "ExchangeGraph":
        """Build from explicit vertex ids: each vertex is (id, scan_size,
        inertia-or-None), each edge (u_id, v_id, cost). Isolated vertices
        are pruned with a warning.
        """
        sides = []
        for side, entries in ((1, v1), (2, v2)):
            out = []
            for vid_index, scan_size, inertia in entries:
                out.append(
                    ScanVertex(
                        VertexId(side, int(vid_index)),
                        as_fraction(scan_size),
                        None if inertia is None else as_fraction(inertia),
                    )
                )
            sides.append(out)
        known = {sv.vid for side_list in sides for sv in side_list}
        edge_objs = []
        for u_index, v_index, cost in edges:
            u = VertexId(1, int(u_index))
            v = VertexId(2, int(v_index))
            if u not in known or v not in known:
                raise IndexOutOfRange(f"edge ({u_index}, {v_index}) references a missing vertex")
            edge_objs.append(Edge(u, v, as_fraction(cost)))
        touched = {vid for e in edge_objs for vid in (e.u, e.v)}
        pruned = sorted(known - touched)
        if pruned:
            shown = ", ".join(str(p) for p in pruned[:8])
            if len(pruned) > 8:
                shown += f", ... ({len(pruned) - 8} more)"
            warnings.warn(
                f"pruned {len(pruned)} isolated vertices (no candidate edges): {shown}",
                stacklevel=2,
            )
        kept = [
            [sv for sv in side_list if sv.vid in touched] for side_list in sides
        ]
        return cls(kept[0], kept[1], edge_objs, _pruned=pruned)


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
    norm_edges = []
    for item in edges:
        if len(item) == 2:
            u, v = item
            cost = Fraction(1)
        else:
            u, v, cost = item
        if not (0 <= int(u) < len(v1)) or not (0 <= int(v) < len(v2)):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside vertex ranges")
        norm_edges.append((u, v, cost))
    return ExchangeGraph.from_vertices(v1, v2, norm_edges)


def workload_weight(g: ExchangeGraph, vid: VertexId, alpha1, alpha2) -> Fraction:
    """Per-vertex workload price: transmitting v's scan makes the *other*
    robot verify all of v's edges, so side-1 vertices are priced with
    alpha2 and side-2 vertices with alpha1, times the incident edge cost.
    """
    alpha = as_fraction(alpha2) if vid.side == 1 else as_fraction(alpha1)
    return alpha * g.incidence().incident_cost(vid)


def effective_weight(g: ExchangeGraph, vid: VertexId, objective: Objective) -> Fraction:
    """Weight of labeling ``vid`` for transmission under ``objective``.

    p1: workload price only; p2: effective scan size only; p3: scan size
    plus omega times the workload price. The inertia override, when
    present, replaces the scan size before composition.
    """
    if vid not in g:
        raise UnknownVertex(f"vertex {vid} not in graph")
    if objective.variant == P1:
        return workload_weight(g, vid, objective.alpha1, objective.alpha2)
    if objective.variant == P2:
        return g.scan_weight(vid)
    return g.scan_weight(vid) + objective.omega * workload_weight(
        g, vid, objective.alpha1, objective.alpha2
    )


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
    lines = ["{"]
    for key, vertices in (("v1", g.v1), ("v2", g.v2)):
        entries = []
        for sv in vertices:
            parts = [f'"id": {sv.vid.index}', f'"scan_size": {_format_number(sv.scan_size)}']
            if sv.inertia is not None:
                parts.append(f'"inertia": {_format_number(sv.inertia)}')
            entries.append("    {" + ", ".join(parts) + "}")
        lines.append(f'  "{key}": [')
        lines.append(",\n".join(entries))
        lines.append("  ],")
    entries = []
    for e in g.edges:
        entries.append(
            "    {"
            + f'"u": {e.u.index}, "v": {e.v.index}, "cost": {_format_number(e.cost)}'
            + "}"
        )
    lines.append('  "edges": [')
    lines.append(",\n".join(entries))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_number(value) -> Fraction:
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
    try:
        sides = []
        for key in ("v1", "v2"):
            entries = doc[key]
            if not isinstance(entries, list):
                raise GraphFormatError(f"{key!r} must be an array")
            side = []
            for entry in entries:
                inertia = entry.get("inertia")
                side.append(
                    (
                        _load_int(entry["id"]),
                        _load_number(entry["scan_size"]),
                        None if inertia is None else _load_number(inertia),
                    )
                )
            sides.append(side)
        edges = []
        for entry in doc.get("edges", []):
            cost = entry.get("cost", Fraction(1))
            edges.append((_load_int(entry["u"]), _load_int(entry["v"]), _load_number(cost)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphFormatError(f"malformed graph file: {exc!r}") from exc
    return ExchangeGraph.from_vertices(sides[0], sides[1], edges)


def save_graph(g: ExchangeGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))


def load_graph(path) -> ExchangeGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_graph(fh.read())
