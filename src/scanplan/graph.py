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
side positions. The edge costs, and the per-vertex columns the costs of a
plan are summed over, are numpy arrays of one rule (:func:`_int_column`):
int64 while every sum of their entries fits, else Python ints. ``Fraction``,
``VertexId``, ``ScanVertex`` and ``Edge`` objects exist only at the API
boundary, built on first access and cached.
A graph file that is byte for byte what ``dumps_graph`` writes, with at
most 18 digits in each run of digits, is read in numpy passes over its
three sections with no JSON parse: ints, decimals and ``"p/q"`` values
alike. Any other file, such as one reindented or written by hand, or one
with a longer number, is parsed as JSON and read entry by entry in file
order, each distinct number parsed once into a reduced integer
``(numerator, denominator)`` pair and scaled once to the common
denominator; it gives the same graph or the same error.

Graphs are immutable after construction and safe to share across threads.
Each graph also remembers the solver's optimal covers (see ``solver.solve``).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GraphFormatError,
    IndexOutOfRange,
    NegativeWeight,
    UnknownVertex,
    ValidationError,
)
from .objectives import MAX_NUMBER_DIGITS, P1, P2, Objective, _shown, _shown_ids, as_fraction, check_number_text

# every int below _NUMBER_LIMIT has at most MAX_NUMBER_DIGITS digits
_NUMBER_LIMIT = 10**MAX_NUMBER_DIGITS


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
    - ``costs``: read-only integer array of the edge-cost numerators over
      ``den``, int64 or Python ints as :func:`_int_column` decides;
      ``cost_num`` gives them as a tuple of ints, built on first read.
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
        *,
        _prune: bool = True,
    ):
        self.ids = (tuple(ids[0]), tuple(ids[1]))
        self.den = den
        self.size_num = (tuple(size_num[0]), tuple(size_num[1]))
        self.inertia_num = (tuple(inertia_num[0]), tuple(inertia_num[1]))
        self.eu = np.array(eu, dtype=np.int64)
        self.ev = np.array(ev, dtype=np.int64)
        self.costs = _int_column(cost_num)
        self._validate()
        # every vertex is checked above; the degree-0 ones are pruned here,
        # and the warning names the caller of build_graph, from_vertices or
        # loads_graph. For load_graph that caller is _load_file, so its
        # warning names graph.py. A sweep's widest graph keeps them (see
        # _restricted).
        self._finish(5 if _prune else None)

    def _finish(self, stacklevel: int | None) -> list[np.ndarray] | None:
        """Prune the degree-0 vertices, keep their ids in ``pruned`` and
        warn about them at ``stacklevel``, as ``warnings.warn`` counts it
        from here; with ``stacklevel`` None, keep them unwarned. Then
        freeze the edge arrays and start an empty solver memo. Returns
        the per-side boolean masks of the kept vertex positions if some
        vertex was pruned, else None."""
        self.pruned = ()
        if stacklevel is not None:
            keep = [np.bincount(ends, minlength=len(col)) > 0 for ends, col in zip((self.eu, self.ev), self.ids)]
            isolated = (_vertex_ids(s, compress(col, (~k).tolist())) for s, col, k in zip((1, 2), self.ids, keep))
            self.pruned = tuple(sorted(chain.from_iterable(isolated)))
        if self.pruned:
            shown = _shown_ids(self.pruned)
            warnings.warn(
                f"pruned {len(self.pruned)} isolated vertices (no candidate edges): {shown}", stacklevel=stacklevel
            )
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
        return keep if self.pruned else None

    def _restricted(self, keep: np.ndarray) -> "ExchangeGraph":
        """The graph ``build_graph`` gives for this graph's vertices and the
        edges that the boolean array ``keep`` marks, read off this graph
        with no second check: the kept columns over the same denominator,
        with the degree-0 vertices pruned and the warning naming this
        method's caller: for ``build_geometric``, ``build_appearance`` and
        every sweep, the line of ``candidates._restrictions`` that yields
        each point. This graph must keep its own degree-0 vertices
        (built with ``_prune=False``), so that none is lost, and have only
        unit edge costs, as ``_unpruned_graph`` gives. Then ``den`` is the
        LCM of the vertex values' reduced denominators, and for each prime
        power in it some value's numerator over ``den`` is coprime to it;
        every restriction keeps all those values, so needs all of ``den``.
        The effective scan sizes are this graph's at the kept positions,
        typed afresh by :func:`_int_column` for their count."""
        g = ExchangeGraph.__new__(ExchangeGraph)
        g.ids, g.den, g.size_num, g.inertia_num = self.ids, self.den, self.size_num, self.inertia_num
        g.costs = _int_column(self.costs[keep])
        g.eu, g.ev = self.eu[keep], self.ev[keep]
        kept = g._finish(3)
        g.eff_num = self.eff_num if kept is None else tuple(_int_column(eff[k]) for eff, k in zip(self.eff_num, kept))
        return g

    def _validate(self):
        if not (type(self.den) is int and self.den > 0):
            raise ValidationError(f"common denominator must be a positive integer, got {_shown(self.den)}")
        for side, ids, sizes, inertia in zip((1, 2), self.ids, self.size_num, self.inertia_num):
            if not len(ids) == len(sizes) == len(inertia):
                raise ValidationError(f"side {side} arrays differ in length")
            if ids and (
                min(ids) < 0
                or max(ids) >= _NUMBER_LIMIT  # an id has at most MAX_NUMBER_DIGITS digits, as in a file
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
                    if index >= _NUMBER_LIMIT:
                        raise IndexOutOfRange(f"vertex index {_shown(index, str)} exceeds {MAX_NUMBER_DIGITS} digits")
                    if index in seen:
                        raise ValidationError(f"duplicate vertex id {_shown(vid, str)}")
                    seen.add(index)
                    for label, num in (("scan_size", size), ("inertia", price)):
                        if num is not None and num < 0:
                            value = _shown(Fraction(num, self.den), str)
                            raise NegativeWeight(f"{label} of {_shown(vid, str)} is negative: {value}")
        n1, n2 = len(self.ids[0]), len(self.ids[1])
        m = len(self.costs)
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
        if self.costs.min(initial=0) < 0:
            negative = int(np.flatnonzero(self.costs < 0)[0])
        if min(repeat, negative) < m:
            k = min(repeat, negative)
            u = _shown(VertexId(1, self.ids[0][self.eu[k]]), str)
            v = _shown(VertexId(2, self.ids[1][self.ev[k]]), str)
            if k == repeat:
                raise DuplicateEdge(f"duplicate edge {u}--{v}")
            raise NegativeWeight(
                f"edge {u}--{v} has negative cost {_shown(Fraction(int(self.costs[k]), self.den), str)}"
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
        s = side - 1
        sizes, prices = self.size_num[s], self.inertia_num[s]
        value = self._fractions(chain(sizes, prices))
        return tuple(map(ScanVertex, self.vids[s], map(value, sizes), map(value, prices)))

    def _fractions(self, nums: Iterable[int | None]):
        """A lookup from each of ``nums`` to its value ``Fraction(num,
        den)``, None for None: one Fraction per distinct numerator."""
        values = {num: Fraction(num, self.den) for num in set(nums) - {None}}
        values[None] = None
        return values.__getitem__

    @cached_property
    def edge_key_list(self) -> list[EdgeKey]:
        """Every edge's (u, v) key, in edge order."""
        vids1, vids2 = self.vids
        return list(zip(map(vids1.__getitem__, self.eu.tolist()), map(vids2.__getitem__, self.ev.tolist())))

    @cached_property
    def cost_num(self) -> tuple[int, ...]:
        """The edge-cost numerators over ``den`` as a tuple of ints."""
        return tuple(self.costs.tolist())

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        nums = self.costs.tolist()
        costs = map(self._fractions(nums), nums)
        return tuple(map(tuple.__new__, repeat(Edge), ((u, v, c) for (u, v), c in zip(self.edge_key_list, costs))))

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
    def eff_num(self) -> tuple[np.ndarray, np.ndarray]:
        """Per side, the effective scan sizes (the inertia price where set)
        as numerators over ``den``, in :func:`_int_column` arrays."""
        return tuple(
            _int_column([size if price is None else price for size, price in zip(sizes, prices)])
            for sizes, prices in zip(self.size_num, self.inertia_num)
        )

    @cached_property
    def incident_num(self) -> tuple[np.ndarray, np.ndarray]:
        """Per side, the summed cost numerators of each vertex's edges, in
        :func:`_int_column` arrays. Each is a sum of entries of ``costs``,
        so it fits int64 when ``costs`` is int64."""
        sums = []
        for ends, ids in zip((self.eu, self.ev), self.ids):
            total = np.zeros(len(ids), dtype=self.costs.dtype)
            np.add.at(total, ends, self.costs)
            sums.append(_int_column(total))
        return tuple(sums)

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
        return len(self.costs)

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
        return Fraction(int(self.costs[k]), self.den)

    @cached_property
    def _edge_keys(self) -> frozenset[EdgeKey]:
        return frozenset(self.edge_key_list)

    def edge_keys(self) -> frozenset[EdgeKey]:
        return self._edge_keys

    def total_edge_cost(self) -> Fraction:
        return Fraction(int(self.costs.sum()), self.den)

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


# _int_column keeps a column in int64 while len * max|v| is below this
_SUM_BOUND = 2**62


def _int_column(values) -> np.ndarray:
    """Integers ``values`` as a new read-only array: int64 when ``len *
    max|v| < 2**62``, else an object array of Python ints. A value that is
    not an integer is refused with ``ValidationError``, not truncated;
    numpy integers and bools count as integers.

    Every sum of entries of an int64 column is exact: a sum of ``k <= len``
    entries is at most ``k * max|v| <= len * max|v| < 2**62 < 2**63`` in
    size, and so is each partial sum numpy forms on the way, itself a sum
    of entries, in any order of addition. On an object column numpy adds
    Python ints, which never overflow, so the same expression (a masked
    ``.sum()``, ``np.add.at``, ``np.gcd.reduce``) is exact on both."""
    column = np.array(values)  # ints that all fit int64 give an int64 array
    if column.dtype.kind != "i":  # ints past int64, or values that are not integers
        values = values.tolist() if isinstance(values, np.ndarray) else values
        for v in values:
            if not isinstance(v, numbers.Integral):
                raise ValidationError(f"expected integer numerators, got {_shown(v)}")
        column = np.array([int(v) for v in values], dtype=object)
        with contextlib.suppress(OverflowError):  # an entry past int64 keeps them Python ints
            column = column.astype(np.int64)
    if column.dtype != object:
        column = column.astype(np.int64, copy=False)  # where the platform's int is narrower
        if len(column) * _max_abs(column) >= _SUM_BOUND:
            column = column.astype(object)
    column.flags.writeable = False
    return column


def _max_abs(column: np.ndarray) -> int:
    """The largest size of an entry of an integer array, as a Python int; 0
    when it is empty."""
    return max(int(column.max(initial=0)), -int(column.min(initial=0)))


def _weighted_sum(terms: Iterable[tuple[int, np.ndarray]], n: int) -> np.ndarray:
    """The column ``sum(c * column)`` over ``terms``, each a non-negative
    int ``c`` and an :func:`_int_column` array of length ``n``, as
    :func:`_int_column` types it. The bound ``n * sum(c * max|column|)`` is
    found in Python ints before any product: below 2**62, every product
    and partial sum fits, so the sum is taken in int64; else in Python
    ints. A term with no nonzero entry is dropped, so each ``c`` kept in
    int64 is at most the bound; a lone term with ``c`` 1 is its column."""
    terms = [(c, column) for c, column in terms if c and column.any()]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    bound = n * sum(c * _max_abs(column) for c, column in terms)
    if bound >= _SUM_BOUND:
        return _int_column(sum(c * column.astype(object) for c, column in terms))
    total = np.zeros(n, dtype=np.int64)
    for c, column in terms:
        total += c * column
    total.flags.writeable = False  # within the bound, so int64 by the rule too
    return total


def _checked_graph(g) -> None:
    """``ValidationError`` unless ``g`` is an :class:`ExchangeGraph`."""
    if not isinstance(g, ExchangeGraph):
        raise ValidationError(f"expected an ExchangeGraph, got {_shown(g)}")


def _side_position(side: int) -> int:
    """A robot side's position in the per-side arrays: ``side`` minus one,
    or ``ValidationError`` unless it is an integer (a numpy one too, but no
    bool) equal to 1 or 2."""
    if isinstance(side, bool) or not isinstance(side, numbers.Integral) or side not in (1, 2):
        raise ValidationError(f"robot side must be 1 or 2, got {_shown(side)}")
    return int(side) - 1


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
    """A number as its reduced ``(numerator, denominator)`` pair: an int as
    itself over 1, anything else as ``as_fraction``, which decides what is
    a number, reads it."""
    if type(value) is int:
        return value, 1
    exact = as_fraction(value)
    return exact.numerator, exact.denominator


def _key(value) -> int | tuple[int, int]:
    """A number given to the API as an int, or else as its reduced pair:
    a key of :func:`_assemble`'s ratios that no int or text equals."""
    return value if type(value) is int else _ratio(value)


def _assemble(ids, sizes, inertia, eu, ev, costs, ratios: Mapping, den: int, prune: bool = True) -> ExchangeGraph:
    """Bring every value over the common denominator ``den`` and construct
    the graph, which checks every vertex and then, unless ``prune`` is
    false, prunes the isolated ones. ``ids``, ``sizes`` and ``inertia`` are
    per-side lists, ``eu``/``ev`` the side positions of each edge's
    endpoints and ``costs`` its cost. Every value is a key of ``ratios``,
    which holds its reduced ``(numerator, denominator)`` pair, or None for
    an unset inertia price. Each distinct value is scaled once and each
    column built with one lookup per entry; when every value is an int,
    the columns pass as they are."""
    if all(type(x) is int for x in ratios):
        return ExchangeGraph(ids, 1, sizes, inertia, eu, ev, costs, _prune=prune)
    scaled = {x: p * (den // q) for x, (p, q) in ratios.items()}
    scaled[None] = None
    sizes, inertia = ([list(map(scaled.__getitem__, col)) for col in cols] for cols in (sizes, inertia))
    return ExchangeGraph(ids, den, sizes, inertia, eu, ev, list(map(scaled.__getitem__, costs)), _prune=prune)


def _key_ratios(sizes, inertia, costs) -> tuple[dict, int]:
    """The ratios and the common denominator that :func:`_assemble` takes,
    for value columns of :func:`_key` returns."""
    ratios = {x: x if type(x) is tuple else (x, 1) for x in set(chain(*sizes, *inertia, costs)) - {None}}
    return ratios, _common_denominator((q for _, q in ratios.values()), ValidationError)


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


def _end_positions(ids, us, vs) -> tuple[Sequence[int], Sequence[int]]:
    """The side positions of edge ends given as vertex ids, in lists of
    ints or int64 arrays; an end that no vertex of its side holds is
    refused. When each side's ids are ``0..n-1`` in order, every end in
    range is its own position."""
    if all(side_ids == list(range(len(side_ids))) for side_ids in ids):
        with contextlib.suppress(OverflowError):  # an end past int64 is no position
            ends = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
            if all(not len(e) or 0 <= e.min() and e.max() < len(side_ids) for e, side_ids in zip(ends, ids)):
                return ends
    us, vs = (e.tolist() if isinstance(e, np.ndarray) else e for e in (us, vs))
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
    return _assemble(*_graph_columns(v1_weights, v2_weights, edges, v1_inertia, v2_inertia))


def _unpruned_graph(v1_weights, v2_weights, pairs: np.ndarray) -> ExchangeGraph:
    """:func:`build_graph` of these weights and the edges of the (m, 2) int
    array ``pairs``, in-range ``[u, v]`` side positions, each once and of
    cost 1, with its degree-0 vertices kept and no warning: the graph that
    ``ExchangeGraph._restricted`` reads restrictions off. The weights are
    checked as ``build_graph`` checks them."""
    ids, sizes, inertia, _, _, _, ratios, den = _graph_columns(v1_weights, v2_weights, (), None, None)
    ratios[1] = (1, 1)  # every edge's cost
    costs = np.ones(len(pairs), dtype=np.int64)
    return _assemble(ids, sizes, inertia, pairs[:, 0], pairs[:, 1], costs, ratios, den, prune=False)


def _graph_columns(v1_weights, v2_weights, edges, v1_inertia, v2_inertia) -> tuple:
    """:func:`_assemble`'s arguments for :func:`build_graph`'s, in its
    order of errors."""
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
    return (ids, sizes, inertia, eu, ev, costs, *_key_ratios(sizes, inertia, costs))


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
    if not isinstance(objective, Objective):
        raise ValidationError(f"expected an Objective, got {_shown(objective)}")
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


def weight_numerators(g: ExchangeGraph, objective: Objective) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """Every vertex's weight under ``objective`` in lowest terms: per side,
    numerators in position order as an :func:`_int_column` array, over the
    returned denominator, which shares no factor with all of them. Each
    side's column is typed on its own, so sums over both sides are taken
    in Python ints."""
    _checked_graph(g)
    a, b, den = _weight_terms(g, objective)
    weight = tuple(
        _weighted_sum([(a, eff), (bs, g.incident_num[s])] if bs else [(a, eff)], len(eff))
        for s, (eff, bs) in enumerate(zip(g.eff_num, b))
    )
    spread = math.gcd(*(int(np.gcd.reduce(w)) for w in weight))
    common = math.gcd(den, spread)
    if common == 1 or not spread:  # nothing to divide, or every weight is 0
        return weight, den // common
    # common divides a nonzero weight, so fits the weights' dtype
    return tuple(_int_column(w // common) for w in weight), den // common


def effective_weight(g: ExchangeGraph, vid: VertexId, objective: Objective) -> Fraction:
    """Weight of labeling ``vid`` for transmission under ``objective``
    (see :func:`_weight_terms`). The inertia override, when present,
    replaces the scan size before composition.
    """
    _checked_graph(g)
    s, k = g.locate(vid)
    a, b, den = _weight_terms(g, objective)
    incident = int(g.incident_num[s][k]) if b[s] else 0
    return Fraction(a * int(g.eff_num[s][k]) + b[s] * incident, den)


# -- serialization --------------------------------------------------------
#
# File format: UTF-8 JSON with keys "v1"/"v2" (arrays of {"id", "scan_size",
# optional "inertia"}) and "edges" (arrays of {"u", "v", optional "cost"}).
# Numbers are decimal and parsed exactly into rationals. Values whose exact
# form has no terminating decimal expansion, or whose decimal is past the
# number bounds, are written as "p/q" strings and accepted back in that
# form, so serialize/deserialize round-trips exactly.

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


def _common_denominator(denominators: Iterable[int], error: type[Exception]) -> int:
    """The LCM of ``denominators``, or ``error`` past the bound. A prefix's
    LCM divides the whole one, so the first prefix past the bound decides,
    in any order, and no LCM grows far beyond the bound."""
    den, bound = 1, 10**MAX_DENOMINATOR_DIGITS
    for q in set(denominators):
        den = math.lcm(den, q)
        if den >= bound:
            raise error(f"the values' common denominator exceeds {MAX_DENOMINATOR_DIGITS} digits")
    return den


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. Bytes that do not decode raise
    ``GraphFormatError`` naming the file, wherever the caller reads them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _load_json(text: str):
    """Parse a graph or policy document, keeping each decimal token as its
    text; every number token is checked against the format's bounds before
    it is read. Malformed JSON, nesting deeper than the interpreter's
    recursion limit, and number tokens beyond the bounds all raise
    ``GraphFormatError``."""
    check = partial(check_number_text, error=GraphFormatError)
    try:
        return json.loads(text, parse_float=check, parse_int=lambda token: int(check(token)))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise GraphFormatError("JSON nested too deeply") from None


def format_rational(f: Fraction) -> str:
    """Exact text form of a rational, as :func:`_rational_texts` prints it:
    a plain integer, a terminating decimal when the denominator is of the
    form 2^a*5^b and the decimal's digits are within the interpreter's
    int-to-str limit, else ``p/q``. A ``p/q`` past that limit too is
    refused with ``ValidationError``."""
    if f.denominator == 1 and -_NUMBER_LIMIT < f.numerator < _NUMBER_LIMIT:
        return str(f.numerator)  # an integer that surely prints: no set, gcd or scale
    return _rational_texts((f.numerator,), f.denominator)[f.numerator]


def _rational_texts(nums: Iterable[int], den: int, bounded: bool = False) -> dict[int, str]:
    """The exact text of ``num / den`` for each distinct ``num``: the
    terminating decimal when one exists and prints, else the reduced
    ``p/q``. The decimal places and scale of each reduced denominator are
    found once.

    With ``bounded``, every text is within the number bounds of
    ``objectives.check_number_text``, as a file needs: a decimal past them
    is written as the reduced ``p/q`` instead, and a value whose ``p/q``
    is past them too is refused with ``ValidationError``. Sizes are checked
    against ``_NUMBER_LIMIT`` before any number is printed, so no text
    reaches the interpreter's int-to-str limit. Without ``bounded``, a
    decimal past that limit is written as the reduced ``p/q``, and a value
    whose ``p/q`` is past it too is refused with ``ValidationError``."""
    texts = {}
    # reduced denominator -> (digits after the point, 10**digits // q) of a
    # terminating decimal, or None
    scales: dict[int, tuple[int, int] | None] = {}
    for num in set(nums):
        common = math.gcd(num, den)
        p, q = num // common, den // common
        if q not in scales:
            places = _decimal_places(q) if not bounded or q < _NUMBER_LIMIT else None
            scales[q] = None if places is None else (places, 10**places // q)
        scale = scales[q]
        if scale is not None:
            places, scaled = scale[0], p * scale[1]
            if not bounded or places < MAX_NUMBER_DIGITS and scaled < _NUMBER_LIMIT:
                try:
                    digits = str(abs(scaled)).rjust(places + 1, "0")
                except ValueError:  # past the int-to-str limit: the p/q may print
                    pass
                else:
                    texts[num] = f"{'-' * (scaled < 0)}{digits[:-places]}.{digits[-places:]}" if places else str(scaled)
                    continue
        try:
            texts[num] = text = f"{p}/{q}" if not bounded or max(abs(p), q) < _NUMBER_LIMIT else ""
        except ValueError:  # from str() of an int past the limit
            limit = sys.get_int_max_str_digits()
            raise ValidationError(f"value too long to print: a number in it has more than {limit} digits") from None
        if bounded and (not text or len(text) - 1 > MAX_NUMBER_DIGITS):
            value = _shown(Fraction(p, q), str)
            raise ValidationError(f"value {value} has no exact text of at most {MAX_NUMBER_DIGITS} digits")
    return texts


def _decimal_places(q: int) -> int | None:
    """The digits after the point of the terminating decimal of ``1/q``,
    for a positive ``q``: the larger of ``a`` and ``b`` when
    ``q = 2**a * 5**b``, else None."""
    twos = (q & -q).bit_length() - 1
    q >>= twos
    fives = 0
    if q % 5 == 0:
        # 5**(2**k) while it divides, then the exponent bit by bit from the top
        powers = [5]
        while q % powers[-1] == 0:
            powers.append(powers[-1] ** 2)
        for k in reversed(range(len(powers) - 1)):
            if q % powers[k] == 0:
                q //= powers[k]
                fives += 1 << k
    return max(twos, fives) if q == 1 else None


def dumps_graph(g: ExchangeGraph) -> str:
    """Serialize a graph to the exchange-graph file format: each number as
    an exact decimal, or a quoted ``p/q`` string when no terminating
    decimal exists or the decimal has more than MAX_NUMBER_DIGITS digits.
    A value whose ``p/q`` has more digits too is refused with
    ``ValidationError``, so the file of every graph that ``build_graph``
    or ``from_vertices`` accepts reads back."""
    _checked_graph(g)
    costs = g.costs.tolist()
    priced = (price for price in chain(*g.inertia_num) if price is not None)
    texts = _rational_texts(chain(*g.size_num, priced, costs), g.den, bounded=True)
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
        for u, v, c in zip(u_ids, v_ids, costs)
    ]
    lines.append('  "edges": [')
    lines.append(",\n".join(entries))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_number(value, ratios: dict):
    """``value``, a file value that :func:`_ratio`, the reader of every
    value, reads as a number; its reduced pair is kept in ``ratios``, so
    that each distinct value is parsed once. Anything else is refused with
    ``GraphFormatError``."""
    if (type(value) is int or type(value) is str) and value in ratios:
        return value
    if isinstance(value, bool) or value is None:
        raise GraphFormatError(f"expected a number, got {_shown(value)}")
    try:
        ratios[value] = _ratio(value)
    except ValidationError as exc:
        # in a file, a value that is not a number within the bounds is a format error
        raise GraphFormatError(str(exc)) from exc
    return value


def _load_int(value) -> int:
    """A JSON integer as an id or label; decimal tokens, which stay text,
    and booleans are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFormatError(f"expected an integer, got {_shown(value)}")
    return value


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


def _document_columns(doc: dict) -> tuple:
    """The ids, scan sizes and prices (None where unset) per side, the edge
    ends and costs (1 where unset), and each distinct value's reduced pair,
    of a graph document, read entry by entry in file order so that its first
    fault raises: ``v1``, ``v2``, then ``edges``; a vertex's id, scan size,
    then price; an edge's ``u``, ``v``, then cost."""
    ids, sizes, inertia = ([], []), ([], []), ([], [])
    us, vs, costs = [], [], []
    ratios: dict = {}
    try:
        for s, key in enumerate(("v1", "v2")):
            for entry in _objects(doc, key):
                ids[s].append(_load_int(entry["id"]))
                sizes[s].append(_load_number(entry["scan_size"], ratios))
                price = entry.get("inertia")
                inertia[s].append(None if price is None else _load_number(price, ratios))
        for entry in _objects(doc, "edges", []):
            us.append(_load_int(entry["u"]))
            vs.append(_load_int(entry["v"]))
            costs.append(_load_number(entry.get("cost", 1), ratios))
    except KeyError as exc:
        raise GraphFormatError(f"malformed graph file: {exc!r}") from exc
    return ids, sizes, inertia, us, vs, costs, ratios


# The layout dumps_graph writes: the four fixed texts of _LAYOUT around the
# "v1", "v2" and "edges" sections. A section is its lines joined by ",\n",
# or empty; each line is one of the templates below with a number after
# each ": ", in its slot. A vertex line with a price has _PRICE before its
# closing "}".
_LAYOUT = ('{\n  "v1": [\n', '\n  ],\n  "v2": [\n', '\n  ],\n  "edges": [\n', "\n  ]\n}\n")
_VERTEX_LINE = b'    {"id": , "scan_size": }'
_PRICE = b', "inertia": '
_EDGE_LINE = b'    {"u": , "v": , "cost": }'
# the bytes from a slot's end to the next colon, by the last letter of the
# key before that colon; "id" and "u" open a line
_GAPS = {
    "d": '},\n    {"id"', "e": ', "scan_size"', "a": ', "inertia"', "u": '},\n    {"u"', "v": ', "v"', "t": ', "cost"'
}
_GAP_SIZE = np.zeros(256, dtype=np.int64)
_GAP_SIZE[list(map(ord, _GAPS))] = list(map(len, _GAPS.values()))
# the bytes of a slot besides the quotes of a "p/q" value
_SLOT_BYTES = b"0123456789./"
# the most digits of which every number fits int64
_MAX_SLOT_DIGITS = 18


def _sections(text: str) -> list[bytes] | None:
    """The ``v1``, ``v2`` and ``edges`` sections of ``text`` as bytes, when
    the text is ASCII and holds the fixed texts of ``_LAYOUT`` around
    them; None for any other text. A text reindented from its first
    vertex line on is declined before any pass over it."""
    head, *marks, tail = _LAYOUT
    if not (
        text.isascii()
        and text.startswith(head)
        and text.endswith(tail)
        and text.startswith(('    {"id": ', marks[0]), len(head))
    ):
        return None
    sections, at = [], len(head)
    for mark in marks:
        k = text.find(mark, at)
        if k < 0:
            return None
        sections.append(text[at:k].encode("ascii"))
        at = k + len(mark)
    if at > len(text) - len(tail):
        return None
    sections.append(text[at : len(text) - len(tail)].encode("ascii"))
    return sections


def _slots(raw: bytes) -> tuple | None:
    """The slots of a section of ``dumps_graph``'s layout, or None when one
    holds anything but a number; the caller checks the section with its
    slots deleted against its templates.

    A slot runs from two bytes past a colon to the text of ``_GAPS`` that
    leads to the next colon. It holds an int, a decimal ``a.b`` or a
    ``"p/q"`` string with ``q`` not zero; each run of digits has 1 to 18
    ASCII digits, and neither an int nor ``a`` has a leading zero, as in
    JSON. Every byte deleted from the section must lie in a slot.

    Returns each slot's key, as the last letter of its name; whether it
    holds an int; its value ``whole + num / den`` as int64 arrays, with
    ``num / den`` reduced; and the section with its slots deleted. In a
    section with no ``.`` or ``/`` every slot must hold an int, and
    ``num`` and ``den`` are None: it needs no separator or gcd work."""
    byte = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero(byte == ord(":"))
    if starts.min(initial=2) < 2:  # no room for a key before a colon
        return None
    key = byte[starts - 2]
    starts += 2
    # the last slot ends at the closing "}", the section's last byte
    ends = np.append(starts[1:] - 2 - _GAP_SIZE[key[1:]], len(raw) - 1)[: len(starts)]
    if (ends - starts).min(initial=1) < 1:
        return None
    quoted = byte[starts] == ord('"')
    bare = _deleted(raw, np.concatenate((starts[quoted], ends[quoted] - 1)))
    if len(raw) - len(bare) != (ends - starts).sum():
        return None
    if b"." not in raw and b"/" not in raw:
        size = ends - starts
        if quoted.any() or ((byte[starts] == ord("0")) & (size > 1)).any():
            return None
        whole = _digits(byte, ends, size)
        return None if whole is None else (key, ~quoted, whole, None, None, bare)
    sep = _separators(byte, starts, ends)
    if sep is None:
        return None
    has = sep > 0
    # a "p/q" is quoted and holds a "/", a decimal holds a "."
    if ((quoted != (has & (byte[sep] == ord("/")))) | (quoted & (byte[ends - 1] != ord('"')))).any():
        return None
    # a slot's digits lie inside its quotes; its first run ends at its
    # separator or its end, and a second runs from the separator to the end
    # (the position arrays are reused in place: they are the largest ones)
    ends -= quoted
    second_size = (ends - sep - 1)[has]
    np.copyto(sep, ends, where=~has)
    if ((byte[starts] == ord("0")) & (sep - starts > 1)).any():
        return None
    starts += quoted
    whole = _digits(byte, sep, sep - starts)
    second = None if whole is None else _digits(byte, ends[has], second_size)
    ratio = quoted[has]
    if second is None or (second[ratio] == 0).any():
        return None
    # a decimal a.b is a + b / 10**len(b), and a "p/q" is 0 + p / q
    num, den = np.zeros(len(starts), dtype=np.int64), np.ones(len(starts), dtype=np.int64)
    num[has] = np.where(ratio, whole[has], second)
    den[has] = np.where(ratio, second, 10**second_size)
    whole[quoted] = 0
    common = np.gcd(num, den)
    return key, ~(quoted | has), whole, num // common, den // common, bare


def _deleted(raw: bytes, quotes: np.ndarray) -> bytes:
    """``raw`` with its digits, ``.`` and ``/`` deleted, and the bytes at
    ``quotes``, the quotes of its ``"p/q"`` slots, too."""
    if not len(quotes):
        return raw.translate(None, _SLOT_BYTES)
    marked = bytearray(raw)
    np.frombuffer(marked, dtype=np.uint8)[quotes] = ord("0")
    return bytes(marked.translate(None, _SLOT_BYTES))


def _separators(byte: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The position of each slot's ``.`` or ``/``, 0 where it has none; None
    when a slot has two, or one lies in no slot."""
    seps = np.flatnonzero((byte == ord(".")) | (byte == ord("/")))
    slot = np.searchsorted(starts, seps, side="right") - 1
    if slot.min() < 0 or (seps >= ends[slot]).any() or (np.diff(slot) == 0).any():
        return None
    sep = np.zeros(len(starts), dtype=np.int64)
    sep[slot] = seps
    return sep


def _digits(byte: np.ndarray, end: np.ndarray, size: np.ndarray) -> np.ndarray | None:
    """The value of each run of ``size`` bytes before ``end`` as int64, or
    None unless every run holds 1 to 18 ASCII digits."""
    if size.min(initial=1) < 1 or size.max(initial=1) > _MAX_SLOT_DIGITS:
        return None
    # the digits added from the last one up
    value = np.zeros(len(end), dtype=np.int64)
    for k in range(int(size.max(initial=0))):
        longer = np.flatnonzero(size > k)
        digit = byte[end[longer] - (k + 1)] - np.uint8(ord("0"))
        if (digit > 9).any():
            return None
        value[longer] += digit.astype(np.int64) * 10**k
    return value


def _picked(value: tuple, where) -> tuple:
    """The slots that ``where`` picks of a section's ``(whole, num, den)``."""
    return tuple(None if column is None else column[where] for column in value)


def _over(whole: np.ndarray, num: np.ndarray, dens: np.ndarray, den: int) -> np.ndarray:
    """Each ``whole + num / dens`` as a numerator over ``den``, which every
    one of ``dens`` divides: in int64 when every product fits, else as an
    object array of Python ints."""
    if den < 2**62:
        step = den // dens
        if (whole * float(den) + num * step.astype(float)).max(initial=0) < 2**62:
            return whole * den + num * step
    steps = {d: den // d for d in set(dens.tolist())}
    nums = [w * den + n * steps[d] for w, n, d in zip(whole.tolist(), num.tolist(), dens.tolist())]
    return np.array(nums, dtype=object)


def _dumped_graph(text: str) -> ExchangeGraph | None:
    """The graph of ``text`` when it is byte for byte what
    :func:`dumps_graph` writes for numbers whose runs of digits have at
    most 18 digits, read in numpy passes with no JSON parse; None for any
    other text, which the JSON path reads to the same graph or error.

    Each section must equal its lines' templates once its slots (see
    :func:`_slots`) are deleted, and every id and edge end must be an int.
    The bound on the common denominator is checked before any value is
    scaled to it, and the graph is built here, so that the pruning warning
    names the caller of ``loads_graph``."""
    sections = _sections(text)
    if sections is None:
        return None
    read = []
    for raw, line in zip(sections, (_VERTEX_LINE, _VERTEX_LINE, _EDGE_LINE)):
        slots = _slots(raw)
        if slots is None:
            return None
        *slots, bare = slots
        if line is _VERTEX_LINE:
            # a price sits only before a line's closing "}"
            if bare.count(_PRICE) != bare.count(_PRICE + b"}"):
                return None
            bare = bare.replace(_PRICE, b"")
        m = (len(bare) + 2) // (len(line) + 2)
        if bare != (line + (b",\n" + line) * (m - 1) if m else b""):
            return None
        read.append(slots)
    # per side the ids, and the scan sizes and prices as (whole, num, den);
    # a slot's key is the last letter of "id", "scan_size" or "inertia"
    ids, columns, priced = [], [], []
    for key, plain, *value in read[:2]:
        is_id = key == ord("d")
        if not plain[is_id].all():
            return None
        ids.append(value[0][is_id].tolist())
        price = key == ord("a")
        columns += [_picked(value, key == ord("e")), _picked(value, price)]
        priced.append((np.cumsum(is_id) - 1)[price].tolist())
    _, plain, *value = read[2]
    if not (plain[0::3] & plain[1::3]).all():
        return None
    us, vs = value[0][0::3], value[0][1::3]
    columns.append(_picked(value, slice(2, None, 3)))
    # the values over the common denominator: the vertex columns go to
    # lists, the edge costs stay an array
    if all(num is None for _, num, _ in columns):
        den, nums = 1, [whole for whole, _, _ in columns]
    else:
        whole = np.concatenate([w for w, _, _ in columns])
        num = np.concatenate([np.zeros_like(w) if n is None else n for w, n, _ in columns])
        dens = np.concatenate([np.ones_like(w) if d is None else d for w, _, d in columns])
        den = _common_denominator(np.unique(dens).tolist(), GraphFormatError)
        ends = np.cumsum([len(w) for w, _, _ in columns])
        nums = np.split(_over(whole, num, dens, den), ends[:-1])
    sizes = [nums[0].tolist(), nums[2].tolist()]
    inertia = []
    for side_ids, at, prices in zip(ids, priced, nums[1:4:2]):
        column = [None] * len(side_ids)
        for k, price in zip(at, prices.tolist()):
            column[k] = price
        inertia.append(column)
    return ExchangeGraph(ids, den, sizes, inertia, *_end_positions(ids, us, vs), nums[4])


def loads_graph(text: str) -> ExchangeGraph:
    """Parse the exchange-graph file format; numbers become exact rationals.

    A file that is byte for byte what :func:`dumps_graph` writes, with at
    most 18 digits in each run of digits, is read in numpy passes over its
    three sections with no JSON parse (see :func:`_dumped_graph`). Any
    other file, such as one reindented or written by hand, or one with a
    longer number, is parsed as JSON, to the same graph or the same error:
    its entries are read one by one in file order, so that the first fault
    is the one named (see :func:`_document_columns`), and each distinct
    number is parsed once into a reduced integer pair (see
    :func:`_ratio`), with no Fraction built for an int. On either path the
    bound on the common denominator is checked before any value is scaled
    to it.
    """
    g = _dumped_graph(text)
    if g is not None:
        return g
    # decimal tokens stay text, to be parsed once per distinct text
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise GraphFormatError("graph file must hold a JSON object")
    ids, sizes, inertia, us, vs, costs, ratios = _document_columns(doc)
    den = _common_denominator((q for _, q in ratios.values()), GraphFormatError)
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
