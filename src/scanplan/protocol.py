"""The division of labour an admissible policy induces, and the
broker-mediated rendezvous that carries it out with byte-accurate
accounting.

A policy's division of labour assigns each candidate edge to the robots
that received the other endpoint's scan (:func:`workloads`) and fixes the
order the transmitted scans go in (:func:`execute_order`). The exchange
session runs six deterministic rounds: both robots send compact per-pose
metadata to the broker, the broker solves for the cheapest complete-search
policy and returns it, the robots execute the policy by exchanging scans,
each verifies its assigned candidate edges against the simulated ground
truth, and finally the robots swap the loop closures the other one could
not have discovered itself. Edges whose both endpoints were transmitted
are verified redundantly by both robots on purpose; those discoveries
never need a closure message.

Actors are simulated in-process ("robot1", "robot2", "broker"); traces
are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import compress
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .errors import GroundTruthOutsideCandidates, InadmissiblePolicy, ValidationError
from .graph import EdgeKey, ExchangeGraph, VertexId, _rational_texts, _vertex_ids, format_rational
from .objectives import Objective, _shown, _shown_ids, as_fraction
from .policy import (
    Policy,
    _masked_sum,
    _sent_masks,
    full_bidirectional,
    is_admissible,  # noqa: F401  (perfbench/tracing.py wraps scanplan.protocol.is_admissible)
    monolog,
)
from .solver import solve


# -- division of labour ------------------------------------------------------


class WorkloadReport(NamedTuple):
    """Partition of the candidate set induced by an admissible policy.

    ``l1_edges`` is the set robot 1 must verify (edges whose side-2
    endpoint transmitted), ``l2_edges`` symmetrically; their intersection
    ``l12_edges`` is verified redundantly by both robots, on purpose.
    ``ell1``/``ell2`` are the per-robot verification costs and
    ``f_balance`` their alpha-weighted combination.
    """

    l1_edges: frozenset[EdgeKey]
    l2_edges: frozenset[EdgeKey]
    l12_edges: frozenset[EdgeKey]
    ell1: Fraction
    ell2: Fraction
    f_balance: Fraction


class Transmission(NamedTuple):
    vertex: VertexId
    dest_side: int
    size: Fraction


def _division(
    g: ExchangeGraph, pi: Policy, refusal: str
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """An admissible policy's division of labour on the index arrays: per
    side, a mask of the transmitted vertices; per robot, a mask of the edges
    it verifies. ``InadmissiblePolicy(refusal)`` when an edge has neither
    endpoint transmitted."""
    sent1, sent2 = _sent_masks(g, pi)
    # robot 1 verifies an edge when it received the side-2 scan, and robot 2
    # when it received the side-1 scan
    on_robot = (sent2[g.ev], sent1[g.eu])
    if not (on_robot[0] | on_robot[1]).all():
        raise InadmissiblePolicy(refusal)
    return (sent1, sent2), on_robot


def _edge_key_set(g: ExchangeGraph, edges: np.ndarray) -> frozenset[EdgeKey]:
    """The ``(u, v)`` keys of some edges, given as a mask or as positions;
    built from the graph's ids for those edges only."""
    ids1, ids2 = g.ids
    return frozenset(
        zip(
            _vertex_ids(1, map(ids1.__getitem__, g.eu[edges].tolist())),
            _vertex_ids(2, map(ids2.__getitem__, g.ev[edges].tolist())),
        )
    )


def _schedule(g: ExchangeGraph, sent: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int, int]]:
    """The transmitted scans in ascending (side, index) order, from per-side
    masks of the transmitted vertices: ``(side, index, size)`` with the
    effective scan size as a numerator over ``g.den``."""
    return [
        (side, index, size)
        for side, ids, eff, mask in zip((1, 2), g.ids, g.eff_num, sent)
        for index, size in sorted(compress(zip(ids, eff), mask.tolist()))
    ]


def workloads(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> WorkloadReport:
    """Compute the induced division of labor for an admissible policy."""
    _, (l1, l2) = _division(g, pi, "workload partition is defined for admissible policies")
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    ell1, ell2 = (Fraction(_masked_sum(g.cost_num, m), g.den) for m in (l1, l2))
    return WorkloadReport(
        l1_edges=_edge_key_set(g, l1),
        l2_edges=_edge_key_set(g, l2),
        l12_edges=_edge_key_set(g, l1 & l2),
        ell1=ell1,
        ell2=ell2,
        f_balance=alpha1 * ell1 + alpha2 * ell2,
    )


def execute_order(g: ExchangeGraph, pi: Policy) -> list[Transmission]:
    """Deterministic transmission schedule for an admissible policy: the
    labeled scans in ascending (side, index) order, each going to the
    other robot, with its effective byte count."""
    sent, _ = _division(g, pi, "refusing to execute an incomplete-search policy")
    return [
        Transmission(VertexId(side, index), 3 - side, Fraction(size, g.den))
        for side, index, size in _schedule(g, sent)
    ]


# -- the broker session --------------------------------------------------------

ROBOT = {1: "robot1", 2: "robot2"}
BROKER = "broker"

METADATA_PHASE = "metadata"
SCAN_PHASE = "scan"
CLOSURE_PHASE = "closure"


class Message(NamedTuple):
    phase: str
    sender: str
    recipient: str
    size: Fraction
    summary: str


def _is_vertex_id(end) -> bool:
    """Whether ``end`` is a ``(side, index)`` pair of integers."""
    return (
        isinstance(end, tuple) and len(end) == 2 and all(isinstance(x, Integral) and not isinstance(x, bool) for x in end)
    )


@dataclass(frozen=True)
class RendezvousConfig:
    """Knobs of one exchange session.

    ``metadata_bytes_per_vertex`` prices the per-pose descriptors sent to
    the broker (3 bytes fits one vocabulary word). ``broker_host`` set to
    1 or 2 co-locates the broker with that robot, zeroing its metadata
    legs; None models a third-party broker. Both byte sizes are finite,
    non-negative real numbers, kept as exact Fractions of the values given
    (a float as its exact binary value), so that every phase total is the
    sum of its messages. Ground-truth closures must be pairs of
    ``(side, index)`` ids, kept as a frozenset, and candidate edges;
    verification is simulated by membership.
    """

    objective: Objective = field(default_factory=Objective.p2)
    metadata_bytes_per_vertex: Real = 3
    ground_truth_closures: frozenset[EdgeKey] = frozenset()
    channel_alive_after_exchange: bool = True
    closure_message_bytes: Real = 64
    broker_host: int | None = None

    def __post_init__(self):
        for name in ("metadata_bytes_per_vertex", "closure_message_bytes"):
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, Real) or size != size or abs(size) == math.inf:
                raise ValidationError(f"{name} must be a finite number, got {_shown(size)}")
            object.__setattr__(self, name, as_fraction(size))
        if self.metadata_bytes_per_vertex < 0 or self.closure_message_bytes < 0:
            raise ValidationError("message byte sizes must be non-negative")
        if self.broker_host not in (None, 1, 2):
            raise ValidationError(f"broker_host must be 1, 2, or None, got {_shown(self.broker_host, str)}")
        # read once, so that an iterator is not used up by the check
        try:
            closures = tuple(self.ground_truth_closures)
        except TypeError:
            raise ValidationError(
                f"ground_truth_closures {_shown(self.ground_truth_closures)} is not a collection of closures"
            ) from None
        for pair in closures:
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_vertex_id, pair))):
                raise ValidationError(
                    f"ground-truth closure {_shown(pair)} is not a pair of (side, index) ids"
                )
        object.__setattr__(self, "ground_truth_closures", frozenset(closures))


@dataclass(frozen=True, eq=False, repr=False)
class RendezvousTrace:
    """Complete record of one simulated exchange.

    ``messages`` holds every message of the session in order. The scan
    legs are kept as ``(side, index, size)`` with the size a numerator over
    the graph's ``den``, and the ``Message`` records are built from them on
    first access and cached. ``verified_1``, ``verified_2`` and
    ``redundant`` are the candidate edges robot 1, robot 2 and both
    screened, built from per-edge masks on first access and cached, like
    the graph's ``edges``. Two traces are equal when every one of their
    public values is.
    """

    policy: Policy
    discovered_1: frozenset[EdgeKey]  # true closures robot 1 found
    discovered_2: frozenset[EdgeKey]
    undelivered_1: frozenset[EdgeKey]  # found by robot 1, never sent over
    undelivered_2: frozenset[EdgeKey]
    metadata_bytes: Fraction
    scan_bytes: Fraction
    closure_bytes: Fraction
    ell1: Fraction
    ell2: Fraction
    # the graph and, per robot, the mask of the edges it screened
    _graph: ExchangeGraph = field(compare=False)
    _on_robot: tuple[np.ndarray, np.ndarray] = field(compare=False)
    # the metadata messages, the scan legs and the closure messages
    _metadata: tuple[Message, ...] = field(compare=False)
    _scans: list[tuple[int, int, int]] = field(compare=False)
    _closures: tuple[Message, ...] = field(compare=False)

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        den = self._graph.den
        sizes = {num: Fraction(num, den) for num in {num for _, _, num in self._scans}}
        scans = (
            Message(SCAN_PHASE, ROBOT[side], ROBOT[3 - side], sizes[num], f"scan[{side}:{index}]")
            for side, index, num in self._scans
        )
        return (*self._metadata, *scans, *self._closures)

    @cached_property
    def verified_1(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[0])

    @cached_property
    def verified_2(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[1])

    @cached_property
    def redundant(self) -> frozenset[EdgeKey]:
        return _edge_key_set(self._graph, self._on_robot[0] & self._on_robot[1])

    @property
    def total_bytes(self) -> Fraction:
        return self.metadata_bytes + self.scan_bytes + self.closure_bytes

    def _values(self) -> tuple:
        return (
            self.messages,
            *(getattr(self, f.name) for f in fields(self) if f.compare),
            self.verified_1,
            self.verified_2,
            self.redundant,
        )

    def __repr__(self):
        shown = [("messages", self.messages), *((f.name, getattr(self, f.name)) for f in fields(self) if f.compare)]
        return f"RendezvousTrace({', '.join(f'{name}={value!r}' for name, value in shown)})"

    def __eq__(self, other):
        if not isinstance(other, RendezvousTrace):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _policy_leg_bytes(num_vertices: int) -> int:
    """One bit per own-side vertex, rounded up to whole bytes."""
    return (num_vertices + 7) // 8


def _closure_positions(g: ExchangeGraph, cfg: RendezvousConfig) -> np.ndarray:
    """The edge position of each ground-truth closure of ``cfg``, or
    ``GroundTruthOutsideCandidates`` when one is not a candidate edge."""
    truth = tuple(cfg.ground_truth_closures)
    at = g.edge_positions(truth)
    if (at < 0).any():
        bad = [key for key, k in zip(truth, at.tolist()) if k < 0]
        shown = _shown_ids(sorted(bad), lambda key: f"{key[0]}-{key[1]}")
        raise GroundTruthOutsideCandidates(f"{len(bad)} ground-truth closures outside the candidate set: {shown}")
    return at


def _metadata_messages(g: ExchangeGraph, cfg: RendezvousConfig) -> tuple[Message, ...]:
    """Rounds 1 and 3: each robot's per-pose metadata to the broker, then
    the broker's policy bits back to each robot. A leg to or from the
    robot that hosts the broker costs nothing."""
    sizes = [(side, len(ids)) for side, ids in zip((1, 2), g.ids)]
    legs = [(side, ROBOT[side], BROKER, n * cfg.metadata_bytes_per_vertex, f"meta[{n}]") for side, n in sizes]
    legs += [(side, BROKER, ROBOT[side], _policy_leg_bytes(n), f"policy[{n}]") for side, n in sizes]
    return tuple(
        Message(METADATA_PHASE, sender, recipient, Fraction(0) if cfg.broker_host == side else Fraction(size), summary)
        for side, sender, recipient, size, summary in legs
    )


def _session_costs(g: ExchangeGraph, sent, on_robot) -> tuple[Fraction, Fraction, Fraction]:
    """The scan bytes of the transmitted vertices and each robot's
    verification cost ``ell1``, ``ell2``."""
    return (
        Fraction(sum(map(_masked_sum, g.eff_num, sent)), g.den),
        *(Fraction(_masked_sum(g.cost_num, m), g.den) for m in on_robot),
    )


def run_rendezvous(
    g: ExchangeGraph, cfg: RendezvousConfig, policy: Policy | None = None
) -> RendezvousTrace:
    """Simulate a full exchange session.

    With ``policy`` unset the broker solves ``cfg.objective``; otherwise
    the given admissible policy is executed as-is (used for comparing
    fixed strategies against the optimum). The session runs on the graph's
    index arrays: per-vertex and per-edge masks, sizes and costs as integer
    numerators over ``g.den``.
    """
    at = _closure_positions(g, cfg)
    # rounds 1 and 3: metadata to the broker, the policy back
    metadata = _metadata_messages(g, cfg)
    # round 2: the broker forms the graph and solves (or adopts the override)
    if policy is None:
        policy = solve(g, cfg.objective).policy
    sent, on_robot = _division(g, policy, "rendezvous requires a complete-search policy")
    # round 4: execute the policy, scans cross to the other robot
    scans = _schedule(g, sent)
    # round 5: verification against the simulated ground truth
    found = [m[at] for m in on_robot]  # per robot, the true closures it screened
    exclusive = {1: at[found[0] & ~found[1]], 2: at[found[1] & ~found[0]]}
    # round 6: swap discoveries the other robot does not already have
    closures = []
    undelivered = {1: frozenset(), 2: frozenset()}
    if cfg.channel_alive_after_exchange:
        for side in (1, 2):
            closures += [
                Message(CLOSURE_PHASE, ROBOT[side], ROBOT[3 - side], cfg.closure_message_bytes, f"closure[{u}-{v}]")
                for u, v in sorted(_edge_key_set(g, exclusive[side]))
            ]
    else:
        undelivered = {side: _edge_key_set(g, exclusive[side]) for side in (1, 2)}
    scan_bytes, ell1, ell2 = _session_costs(g, sent, on_robot)
    return RendezvousTrace(
        policy=policy,
        discovered_1=_edge_key_set(g, at[found[0]]),
        discovered_2=_edge_key_set(g, at[found[1]]),
        undelivered_1=undelivered[1],
        undelivered_2=undelivered[2],
        metadata_bytes=sum((m.size for m in metadata), Fraction(0)),
        scan_bytes=scan_bytes,
        closure_bytes=len(closures) * cfg.closure_message_bytes,
        ell1=ell1,
        ell2=ell2,
        _graph=g,
        _on_robot=on_robot,
        _metadata=metadata,
        _scans=scans,
        _closures=tuple(closures),
    )


class StrategyRow(NamedTuple):
    strategy: str
    scan_bytes: Fraction
    metadata_bytes: Fraction
    ell1: Fraction
    ell2: Fraction


STRATEGIES = ("optimal", "monolog1", "monolog2", "full_bidirectional")


def compare_strategies(g: ExchangeGraph, cfg: RendezvousConfig) -> list[StrategyRow]:
    """Price the rendezvous under the optimal policy, both monologs, and
    the naive everything-both-ways baseline; report bytes and workloads.
    Each row holds the values ``run_rendezvous`` would report for that
    policy, from its division of labour alone."""
    if g.num_vertices == 0:
        zero = Fraction(0)
        return [StrategyRow(name, zero, zero, zero, zero) for name in STRATEGIES]
    _closure_positions(g, cfg)
    metadata_bytes = sum((m.size for m in _metadata_messages(g, cfg)), Fraction(0))
    policies = (solve(g, cfg.objective).policy, monolog(g, 1), monolog(g, 2), full_bidirectional(g))
    rows = []
    for name, policy in zip(STRATEGIES, policies):
        sent, on_robot = _division(g, policy, "rendezvous requires a complete-search policy")
        scan_bytes, ell1, ell2 = _session_costs(g, sent, on_robot)
        rows.append(StrategyRow(name, scan_bytes, metadata_bytes, ell1, ell2))
    return rows


def _message_line(m: Message) -> str:
    return f"{m.phase} {m.sender} {m.recipient} {format_rational(m.size)} {m.summary}"


def format_trace(trace: RendezvousTrace) -> str:
    """Line-oriented export: ``phase from to bytes payload_summary``. The
    scan lines are written from their numerators, with one text per
    distinct size."""
    texts = _rational_texts((num for _, _, num in trace._scans), trace._graph.den)
    heads = {side: f"{SCAN_PHASE} {ROBOT[side]} {ROBOT[3 - side]} " for side in (1, 2)}
    lines = [
        *map(_message_line, trace._metadata),
        *(f"{heads[side]}{texts[num]} scan[{side}:{index}]" for side, index, num in trace._scans),
        *map(_message_line, trace._closures),
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def strategy_table_csv(rows: list[StrategyRow]) -> str:
    out = ["strategy,scan_bytes,metadata_bytes,ell1,ell2"]
    for row in rows:
        out.append(
            ",".join(
                [row.strategy]
                + [format_rational(x) for x in (row.scan_bytes, row.metadata_bytes, row.ell1, row.ell2)]
            )
        )
    return "\n".join(out) + "\n"
