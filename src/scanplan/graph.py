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
A graph file is read column by column, and each distinct number in it is
parsed once into a reduced integer ``(numerator, denominator)`` pair and
scaled once to the common denominator.

Graphs are immutable after construction and safe to share across threads.
Each graph also remembers the solver's optimal covers (see ``solver.solve``).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    InvariantViolation,
    NegativeWeight,
    UnknownVertex,
    ValidationError,
)
from .objectives import MAX_NUMBER_DIGITS, P1, P2, Objective, _shown, _shown_ids, as_fraction, check_number_text


class VertexId(NamedTuple):
    """Identifies a pose: its robot side (1 or 2) and an index unique
    within that side. Tuple ordering gives the canonical (side, index)
    order used for all deterministic tie-breaking."""

    side: int
    index: int

    def __str__(self):
        return f"{self.side}:{self.index}"


def _vertex_ids(side: int, indices: Iterable[int]) -> Iterator[VertexId]:
    """``VertexId(side, i)`` for each ``i`` of ``indices``, built by the
    tuple constructor with no Python call per id."""
    return map(tuple.__new__, repeat(VertexId), zip(repeat(side), indices))


def _edge_text(u, v) -> str:
    """An edge given by its end ids, for a message."""
    return f"edge ({_shown(u, str)}, {_shown(v, str)})"


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


class ExchangeGraph:
    """Validated bipartite exchange graph. Build via :func:`build_graph`,
    :meth:`from_vertices` or :func:`loads_graph`; the constructor takes the
    index arrays below, runs every check on every vertex and edge, and
    then prunes the degree-zero vertices (an isolated pose needs no
    exchange). Every retained vertex has at least one candidate edge; the
    pruned ids are kept in ``pruned`` and reported with a warning.

    The index arrays, indexed by side minus one where a pair is given:

    - ``ids``: per side, the vertex ids in file order. A vertex's position
      in its side's tuple is its position in every array below.
    - ``den``: the positive common denominator of every scan size,
      inertia price and edge cost, pruned vertices' values included.
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
    ):
        self.ids = (tuple(ids[0]), tuple(ids[1]))
        self.den = den
        self.size_num = (tuple(size_num[0]), tuple(size_num[1]))
        self.inertia_num = (tuple(inertia_num[0]), tuple(inertia_num[1]))
        self.eu = np.array(eu, dtype=np.int64)
        self.ev = np.array(ev, dtype=np.int64)
        self.cost_num = tuple(cost_num)
        self._validate()
        # every vertex is checked above; the degree-0 ones are pruned here
        keep = [np.bincount(ends, minlength=len(col)) > 0 for ends, col in zip((self.eu, self.ev), self.ids)]
        pruned = [
            VertexId(s, i) for s, col, k in zip((1, 2), self.ids, keep) for i in compress(col, (~k).tolist())
        ]
        self.pruned = tuple(sorted(pruned))
        if pruned:
            shown = _shown_ids(self.pruned)
            # stacklevel: the caller of build_graph, from_vertices or loads_graph
            warnings.warn(f"pruned {len(pruned)} isolated vertices (no candidate edges): {shown}", stacklevel=4)
            kept = [k.tolist() for k in keep]
            self.ids, self.size_num, self.inertia_num = (
                tuple(tuple(compress(col, k)) for col, k in zip(cols, kept))
                for cols in (self.ids, self.size_num, self.inertia_num)
            )
            self.eu, self.ev = ((np.cumsum(k) - 1)[ends] for k, ends in zip(keep, (self.eu, self.ev)))
        self.eu.flags.writeable = self.ev.flags.writeable = False
        # solver memo: (objective, requested engine) -> (SolveResult, weight
        # numerators, denominator); holds only results that passed every check
        self._covers: dict = {}

    def _validate(self):
        if not (type(self.den) is int and self.den > 0):
            raise ValidationError(f"common denominator must be a positive integer, got {_shown(self.den)}")
        limit = 10**MAX_NUMBER_DIGITS  # an id has at most MAX_NUMBER_DIGITS digits, as in a file
        for side, ids, sizes, inertia in zip((1, 2), self.ids, self.size_num, self.inertia_num):
            if not len(ids) == len(sizes) == len(inertia):
                raise ValidationError(f"side {side} arrays differ in length")
            if ids and (
                min(ids) < 0
                or max(ids) >= limit
                or len(set(ids)) < len(ids)
                or min(sizes) < 0
                or min(filter(None, inertia), default=0) < 0
            ):
                # the first faulty vertex, in position order
                seen: set[int] = set()
                for index, size, price in zip(ids, sizes, inertia):
                    vid = VertexId(side, index)
                    if index < 0:
                        raise IndexOutOfRange(f"negative vertex index {_shown(vid, str)}")
                    if index >= limit:
                        raise IndexOutOfRange(f"vertex index {_shown(index, str)} exceeds {MAX_NUMBER_DIGITS} digits")
                    if index in seen:
                        raise ValidationError(f"duplicate vertex id {_shown(vid, str)}")
                    seen.add(index)
                    for label, num in (("scan_size", size), ("inertia", price)):
                        if num is not None and num < 0:
                            value = _shown(Fraction(num, self.den), str)
                            raise NegativeWeight(f"{label} of {_shown(vid, str)} is negative: {value}")
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
            u = _shown(VertexId(1, self.ids[0][self.eu[k]]), str)
            v = _shown(VertexId(2, self.ids[1][self.ev[k]]), str)
            if k == repeat:
                raise DuplicateEdge(f"duplicate edge {u}--{v}")
            raise NegativeWeight(
                f"edge {u}--{v} has negative cost {_shown(Fraction(self.cost_num[k], self.den), str)}"
            )

    # -- boundary objects, built on first use ------------------------------

    @cached_property
    def vids(self) -> tuple[tuple[VertexId, ...], tuple[VertexId, ...]]:
        """Per side, the VertexIds in position order."""
        return tuple(tuple(_vertex_ids(side, ids)) for side, ids in zip((1, 2), self.ids))

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
    def _edge_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge's code ``u * n2 + v`` (side positions) in ascending
        order, and the position of each edge. Built on first use: a graph
        that is never searched keeps no per-edge index."""
        codes = self.eu * len(self.ids[1]) + self.ev
        order = np.argsort(codes)
        return codes[order], order

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
            raise UnknownVertex(f"vertex {_shown(vid, str)} not in graph")
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

    def side_vids(self, side: int) -> tuple[VertexId, ...]:
        return self.vids[_side_position(side)]

    def label_masks(self, ones: frozenset[VertexId]) -> tuple[np.ndarray, np.ndarray]:
        """Per side, a boolean array marking the vertices in ``ones``."""
        return tuple(np.fromiter((vid in ones for vid in vids), bool, len(vids)) for vids in self.vids)

    @property
    def num_vertices(self) -> int:
        return len(self.ids[0]) + len(self.ids[1])

    @property
    def num_edges(self) -> int:
        return len(self.cost_num)

    def edge_positions(self, keys: Iterable) -> np.ndarray:
        """Position of each edge ``(u, v)`` of ``keys`` in the edge arrays,
        -1 where the pair is not a candidate edge: one binary search in the
        sorted edge codes for all of them."""
        pos1, pos2 = self.position
        n2 = len(self.ids[1])
        codes = []
        for key in keys:
            code = -1
            try:
                (su, iu), (sv, iv) = key
                if su == 1 and sv == 2:
                    i, j = pos1.get(iu), pos2.get(iv)
                    if i is not None and j is not None:
                        code = i * n2 + j
            except (TypeError, ValueError):
                pass
            codes.append(code)
        codes = np.array(codes, dtype=np.int64)
        if not self.num_edges:
            return np.full(len(codes), -1, dtype=np.int64)
        edge_codes, order = self._edge_lookup
        at = np.minimum(np.searchsorted(edge_codes, codes), self.num_edges - 1)
        return np.where(edge_codes[at] == codes, order[at], -1)

    def edge_cost(self, key: EdgeKey) -> Fraction:
        k = int(self.edge_positions([key])[0])
        if k < 0:
            raise UnknownVertex(f"no edge {_shown(key[0], str)}--{_shown(key[1], str)} in graph")
        return Fraction(self.cost_num[k], self.den)

    @cached_property
    def _edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.edge_key_list)

    def edge_keys(self) -> frozenset[EdgeKey]:
        return self._edge_keys

    def total_edge_cost(self) -> Fraction:
        return Fraction(sum(self.cost_num), self.den)

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
        inertia-or-None), each edge (u_id, v_id, cost). Ids and edge ends
        follow :func:`build_graph`'s index rule; isolated vertices are
        pruned with a warning.
        """
        ids, sizes, inertia = _vertex_columns((v1, v2))
        us, vs, costs = [], [], []
        for entry in _iterated(edges, "edges"):
            try:
                u, v, cost = entry
            except (TypeError, ValueError):
                raise ValidationError(f"edge {_shown(entry)} is not a (u, v, cost) triple") from None
            us.append(u if type(u) is int else _index(u, _edge_text(u, v)))
            vs.append(v if type(v) is int else _index(v, _edge_text(u, v)))
            costs.append(_key(cost))
        eu, ev = _end_positions(ids, us, vs)
        return _assemble(ids, sizes, inertia, eu, ev, costs, *_key_ratios(sizes, inertia, costs))


def _side_position(side: int) -> int:
    """A robot side's position in the per-side arrays: ``side`` minus one,
    or ``ValidationError`` unless it is 1 or 2."""
    if side not in (1, 2):
        raise ValidationError(f"robot side must be 1 or 2, got {_shown(side, str)}")
    return side - 1


def _vertex_columns(sides) -> tuple[tuple[list, list], tuple[list, list], tuple[list, list]]:
    """Per side, the ids, scan sizes and inertia prices (None where unset)
    of ``(id, scan_size, price)`` entries, in entry order; each number as
    :func:`_key` gives it."""
    ids, sizes, inertia = ([], []), ([], []), ([], [])
    for s, entries in enumerate(sides):
        for entry in _iterated(entries, f"side {s + 1} vertices"):
            try:
                index, scan_size, price = entry
            except (TypeError, ValueError):
                what = f"side {s + 1} vertex {_shown(entry)}"
                raise ValidationError(f"{what} is not an (id, scan_size, inertia) triple") from None
            ids[s].append(index if type(index) is int else _index(index, f"side {s + 1} vertex"))
            sizes[s].append(_key(scan_size))
            inertia[s].append(None if price is None else _key(price))
    return ids, sizes, inertia


def _iterated(value, what: str) -> Iterator:
    """``iter(value)``; a value that cannot be iterated is refused with
    ``ValidationError`` naming ``what``."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {_shown(value)}") from None


def _ratio(value) -> tuple[int, int]:
    """A number as its reduced ``(numerator, denominator)`` pair. A ``"p/q"``
    text of at most MAX_NUMBER_DIGITS characters with ASCII digits on both
    sides is read with two ``int`` calls and a ``gcd``; anything else but
    an int goes through ``as_fraction``, which decides what is a number."""
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= MAX_NUMBER_DIGITS and value.isascii():
        p, slash, q = value.partition("/")
        if slash and p.isdigit() and q.isdigit() and (q := int(q)):
            p = int(p)
            g = math.gcd(p, q)
            return p // g, q // g
    exact = as_fraction(value)
    return exact.numerator, exact.denominator


def _key(value) -> int | tuple[int, int]:
    """A number given to the API as an int, or else as its reduced pair:
    a key of :func:`_assemble`'s ratios that no int or text equals."""
    return value if type(value) is int else _ratio(value)


def _distinct(*columns) -> set:
    """The distinct values of the given value columns, None left out."""
    values = set(chain.from_iterable(chain.from_iterable(columns)))
    values.discard(None)
    return values


def _assemble(ids, sizes, inertia, eu, ev, costs, ratios: Mapping, den: int) -> ExchangeGraph:
    """Bring every value over the common denominator ``den`` and construct
    the graph, which checks every vertex and then prunes the isolated ones.
    ``ids``, ``sizes`` and ``inertia`` are per-side lists, ``eu``/``ev`` the
    side positions of each edge's endpoints and ``costs`` its cost. Every
    value is a key of ``ratios``, which holds its reduced ``(numerator,
    denominator)`` pair, or None for an unset inertia price. Each distinct
    value is scaled once and each column built with one lookup per entry;
    when every value is an int, the columns pass as they are."""
    if all(type(x) is int for x in ratios):
        return ExchangeGraph(ids, 1, sizes, inertia, eu, ev, costs)
    scaled = {x: p * (den // q) for x, (p, q) in ratios.items()}
    scaled[None] = None
    sizes, inertia = ([list(map(scaled.__getitem__, col)) for col in cols] for cols in (sizes, inertia))
    return ExchangeGraph(ids, den, sizes, inertia, eu, ev, list(map(scaled.__getitem__, costs)))


def _key_ratios(sizes, inertia, costs) -> tuple[dict, int]:
    """The ratios and the common denominator that :func:`_assemble` takes,
    for value columns of :func:`_key` returns."""
    ratios = {x: x if type(x) is tuple else (x, 1) for x in _distinct(sizes, inertia, [costs])}
    return ratios, _common_denominator(ratios, ValidationError)


def _index(value, what) -> int:
    """A vertex id or edge end given to the API as something other than
    an int, as ``int()`` reads it; a value that ``int()`` cannot read, or a
    number that it would change, is refused with ``IndexOutOfRange`` naming
    ``what``, not truncated; the message cuts the value at 20 characters.
    Graph files read theirs with ``_load_int`` instead."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IndexOutOfRange(f"{what} has a non-integer index {_shown(value)}") from exc
    if isinstance(value, numbers.Number) and index != value:
        raise IndexOutOfRange(f"{what} has a non-integral index {_shown(value, str)}")
    return index


def _end_positions(ids, us, vs) -> tuple[list[int], list[int]]:
    """The side positions of edge ends given as vertex ids; an end that no
    vertex of its side holds is refused."""
    pos1, pos2 = ({i: k for k, i in enumerate(side_ids)} for side_ids in ids)
    eu = list(map(pos1.get, us))
    ev = list(map(pos2.get, vs))
    if None in eu or None in ev:
        k = next(k for k, ends in enumerate(zip(eu, ev)) if None in ends)
        raise IndexOutOfRange(f"{_edge_text(us[k], vs[k])} references a missing vertex")
    return eu, ev


def build_graph(
    v1_weights: Sequence[object],
    v2_weights: Sequence[object],
    edges: Iterable[tuple],
    v1_inertia: Mapping[int, object] | None = None,
    v2_inertia: Mapping[int, object] | None = None,
) -> ExchangeGraph:
    """Build a validated exchange graph from per-side scan sizes and an
    edge list of (v1_index, v2_index[, cost]) tuples (cost defaults to 1).

    Vertex indices are positions within the weight lists, so they are the
    vertex ids too; an index is read with ``int()``, and a number that
    ``int()`` would change, such as ``1.5``, is refused with
    :class:`IndexOutOfRange`. Inertia keys outside the lists are ignored.
    Every vertex is checked, then degree-0 vertices are pruned (with a
    warning) so every retained vertex has at least one candidate edge.
    Errors come in this order: weight lists that are not iterable and
    inertia that is neither a mapping nor None, then edge shapes and
    ranges, then scan sizes and inertia prices vertex by vertex, then edge
    costs, then the bound on the values' common denominator, then the
    constructor's checks. Each is a :class:`ValidationError`.
    """
    # (id, scan size, inertia price) per vertex, as from_vertices reads them
    vertices = []
    for side, weights, prices in ((1, v1_weights, v1_inertia), (2, v2_weights, v2_inertia)):
        if prices is None:
            prices = {}
        elif not isinstance(prices, Mapping):
            raise ValidationError(f"v{side}_inertia must be a mapping or None, got {_shown(prices)}")
        vertices.append([(i, w, prices.get(i)) for i, w in enumerate(_iterated(weights, f"v{side}_weights"))])
    n1, n2 = len(vertices[0]), len(vertices[1])
    eu, ev, costs = [], [], []
    for item in _iterated(edges, "edges"):
        try:
            if len(item) == 2:
                (u, v), cost = item, 1
            else:
                u, v, cost = item
        except (TypeError, ValueError):
            raise ValidationError(f"edge {_shown(item)} is not a (u, v) or (u, v, cost) tuple") from None
        i = u if type(u) is int else _index(u, _edge_text(u, v))
        if not 0 <= i < n1 or not 0 <= (j := v if type(v) is int else _index(v, _edge_text(u, v))) < n2:
            raise IndexOutOfRange(f"{_edge_text(u, v)} outside vertex ranges")
        eu.append(i)
        ev.append(j)
        costs.append(cost)
    ids, sizes, inertia = _vertex_columns(vertices)
    # sizes and prices are read before costs
    costs = [c if type(c) is int else _key(c) for c in costs]
    return _assemble(ids, sizes, inertia, eu, ev, costs, *_key_ratios(sizes, inertia, costs))


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

# Largest common denominator of a graph's values: ``loads_graph`` refuses a
# file, with ``GraphFormatError``, and ``build_graph`` and ``from_vertices``
# values, with ``ValidationError``, whose common denominator has more than
# MAX_DENOMINATOR_DIGITS digits. Every file of decimal numbers within the
# number bounds (``objectives.check_number_text``) passes, since its
# denominator is a power of ten below 10**1000; "p/q" values with many
# coprime denominators may not. Over an accepted graph file with fewer than
# 10**11 vertices and edges, every P1, P2 or P3 cost prints inside the
# 4300-digit limit, since each objective parameter's numerator and
# denominator have at most ``objectives.MAX_PARAMETER_DIGITS`` = 100 digits:
# - the cost is below 10**1213 (values below 10**1000, parameter products
#   below 10**200);
# - its denominator divides one below 10**1300 with at most 2653 factors of
#   2 or of 5 (a "p/q" value's denominator has at most 499 digits, so at
#   most 1657 factors of 2; the parameters add at most 996);
# so either printed form, "p/q" or decimal, has at most 3870 digits.
MAX_DENOMINATOR_DIGITS = 1000


def _common_denominator(ratios: Mapping, error: type[Exception]) -> int:
    """The LCM of the denominators of ``ratios``' reduced pairs, or ``error``
    past the bound. A prefix's LCM divides the whole one, so the first
    prefix past the bound decides, in any order, and no LCM grows far
    beyond the bound."""
    den, bound = 1, 10**MAX_DENOMINATOR_DIGITS
    for q in {q for _, q in ratios.values()}:
        den = math.lcm(den, q)
        if den >= bound:
            raise error(f"the values' common denominator exceeds {MAX_DENOMINATOR_DIGITS} digits")
    return den


_DIGITS_AS_ZERO = str.maketrans("123456789", "000000000")


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. Bytes that do not decode raise
    ``GraphFormatError`` naming the file, wherever the caller reads them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _check_number(token: str) -> str:
    """A number token if it is within the number bounds, else ``GraphFormatError``."""
    return check_number_text(token, GraphFormatError)


def _may_hold_long_int(text: str) -> bool:
    """False only when no run of digits in ``text`` is longer than
    MAX_NUMBER_DIGITS. Such a run covers two consecutive multiples of half
    that length with only digits between them, so only those windows are
    read. Integer tokens then need a checking hook, a Python call per
    integer where the stdlib scanner has a fast path."""
    step = MAX_NUMBER_DIGITS // 2
    marks = text[::step].translate(_DIGITS_AS_ZERO)
    k = marks.find("00")
    while k >= 0:
        if text[k * step : (k + 1) * step + 1].isdigit():
            return True
        k = marks.find("00", k + 1)
    return False


def _load_json(text: str):
    """Parse a graph or policy document, keeping each decimal token as its
    text. Malformed JSON, nesting deeper than the interpreter's recursion
    limit, and number tokens beyond the format's bounds all raise
    ``GraphFormatError``."""
    try:
        return json.loads(
            text,
            parse_float=_check_number,
            parse_int=(lambda token: int(_check_number(token))) if _may_hold_long_int(text) else int,
        )
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply") from None


def format_rational(f: Fraction) -> str:
    """Exact text form of a rational: a plain integer, a terminating
    decimal when the denominator is of the form 2^a*5^b, else ``p/q``."""
    den = f.denominator
    if den == 1:
        return str(f.numerator)
    twos = fives = 0
    if not den & 1:
        twos = (den & -den).bit_length() - 1
        den >>= twos
    if den % 5 == 0:
        # 5**(2**k) while it divides, then the exponent bit by bit from the top
        powers = [5]
        while den % powers[-1] == 0:
            powers.append(powers[-1] ** 2)
        for k in reversed(range(len(powers) - 1)):
            if den % powers[k] == 0:
                den //= powers[k]
                fives += 1 << k
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    digits = max(twos, fives)
    # times 10**digits / denominator, with no big-int division
    scaled = f.numerator * 5 ** (digits - fives) << (digits - twos)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _rational_texts(nums: Iterable[int], den: int) -> dict[int, str]:
    """``format_rational(Fraction(num, den))`` for each distinct ``num``:
    one gcd per numerator, and one ``format_rational`` call per reduced
    denominator that gives a ``p/q`` text."""
    texts = {}
    as_ratio: dict[int, bool] = {}  # reduced denominator -> whether the text is p/q
    for num in set(nums):
        common = math.gcd(num, den)
        q = den // common
        ratio = as_ratio.get(q)
        if ratio is None:
            ratio = as_ratio[q] = "/" in format_rational(Fraction(1, q))
        texts[num] = f"{num // common}/{q}" if ratio else format_rational(Fraction(num, den))
    return texts


def dumps_graph(g: ExchangeGraph) -> str:
    """Serialize a graph to the exchange-graph file format: each number as
    an exact decimal, or a quoted ``p/q`` string when no terminating
    decimal exists."""
    priced = (price for price in chain(*g.inertia_num) if price is not None)
    texts = _rational_texts(chain(*g.size_num, priced, g.cost_num), g.den)
    number = {num: json.dumps(text) if "/" in text else text for num, text in texts.items()}.__getitem__
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


def _load_number(value) -> None:
    """Refuse a file value that :func:`_ratio`, the reader of every value,
    does not read as a number."""
    if isinstance(value, bool) or value is None:
        raise GraphFormatError(f"expected a number, got {_shown(value)}")
    try:
        _ratio(value)
    except ValidationError as exc:
        # in a file, a value that is not a number within the bounds is a format error
        raise GraphFormatError(str(exc)) from exc


def _load_int(value) -> int:
    """A JSON integer as an id or label; decimal tokens, which stay text,
    and booleans are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"expected an integer, got {_shown(value)}")
    return value


def _columns(doc: dict) -> tuple:
    """The ids, scan sizes and inertia prices per side, and the edge ends
    and costs, of a graph document, each read as one column. An entry that
    is not an object or lacks a key raises; so does an id or end that is
    not an int, or a value that is neither an int nor a text (a string, or
    a decimal token kept as text)."""
    sides = doc["v1"], doc["v2"]
    edges = doc.get("edges", [])
    if not all(type(entries) is list for entries in (*sides, edges)):
        raise TypeError("a graph field is not an array")
    ids = [list(map(itemgetter("id"), entries)) for entries in sides]
    sizes = [list(map(itemgetter("scan_size"), entries)) for entries in sides]
    inertia = [[entry.get("inertia") for entry in entries] for entries in sides]
    us, vs = list(map(itemgetter("u"), edges)), list(map(itemgetter("v"), edges))
    costs = [entry.get("cost", 1) for entry in edges]
    if not (
        set(map(type, chain(*ids, us, vs))) <= {int}
        and set(map(type, chain(*sizes, costs))) <= {int, str}
        and set(map(type, chain(*inertia))) <= {int, str, type(None)}
    ):
        raise TypeError("a graph entry holds a value of the wrong type")
    return ids, sizes, inertia, us, vs, costs


def _objects(doc: dict, key: str, default=None) -> Iterator[dict]:
    """The entries of the array ``doc[key]``, or of ``default`` where one
    is given and the key is absent, in order; a field that is not an array,
    or an entry that is not an object, raises ``GraphFormatError``."""
    entries = doc[key] if default is None else doc.get(key, default)
    if not isinstance(entries, list):
        raise GraphFormatError(f"{key!r} must be an array")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{key}[{k}] must be an object")
        yield entry


def _raise_first_fault(doc: dict) -> NoReturn:
    """Read a graph document entry by entry, in file order, and raise the
    error of its first fault: a field that is not an array, an entry that
    is not an object or lacks a key, an id or end that is not a JSON
    integer, or a value that is not a number."""
    try:
        for entry in chain(_objects(doc, "v1"), _objects(doc, "v2")):
            price = entry.get("inertia")
            _load_int(entry["id"])
            _load_number(entry["scan_size"])
            if price is not None:
                _load_number(price)
        for entry in _objects(doc, "edges", []):
            cost = entry.get("cost", 1)
            _load_int(entry["u"])
            _load_int(entry["v"])
            _load_number(cost)
    except KeyError as exc:
        raise GraphFormatError(f"malformed graph file: {exc!r}") from exc
    raise InvariantViolation("the graph reader refused a file whose entries all read")


def loads_graph(text: str) -> ExchangeGraph:
    """Parse the exchange-graph file format; numbers become exact rationals.

    Each field is read as one column, and each distinct number text is
    parsed once into a reduced integer pair (see :func:`_ratio`): no
    Fraction is built for an int or a plain ``"p/q"`` value. The bound on
    the common denominator is checked before any value is scaled to it.
    A file with a fault is walked again entry by entry, to name its first.
    """
    # decimal tokens stay text, to be parsed once per distinct text
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise GraphFormatError("graph file must hold a JSON object")
    try:
        ids, sizes, inertia, us, vs, costs = _columns(doc)
        ratios = {x: _ratio(x) for x in _distinct(sizes, inertia, [costs])}
    except (KeyError, TypeError, AttributeError, ValidationError):
        _raise_first_fault(doc)
    den = _common_denominator(ratios, GraphFormatError)
    return _assemble(ids, sizes, inertia, *_end_positions(ids, us, vs), costs, ratios, den)


def save_graph(g: ExchangeGraph, path) -> None:
    Path(path).write_text(dumps_graph(g), encoding="utf-8")


def _load_file(path, loads):
    """``loads`` on the text of a UTF-8 file; a format error names the file."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return loads(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def load_graph(path) -> ExchangeGraph:
    return _load_file(path, loads_graph)
