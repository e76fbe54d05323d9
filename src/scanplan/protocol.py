"""Broker-mediated rendezvous simulation with byte-accurate accounting.

The exchange session runs six deterministic rounds: both robots send
compact per-pose metadata to the broker, the broker solves for the
cheapest complete-search policy and returns it, the robots execute the
policy by exchanging scans, each verifies its assigned candidate edges
against the simulated ground truth, and finally the robots swap the loop
closures the other one could not have discovered itself. Edges whose both
endpoints were transmitted are verified redundantly by both robots on
purpose; those discoveries never need a closure message.

Actors are simulated in-process ("robot1", "robot2", "broker"); traces
are byte-identical across runs for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import GroundTruthOutsideCandidates, InadmissiblePolicy, ValidationError
from .graph import EdgeKey, ExchangeGraph, format_rational
from .objectives import Objective
from .policy import (
    Policy,
    execute_order,
    full_bidirectional,
    is_admissible,
    monolog,
    workloads,
)
from .solver import solve

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


@dataclass(frozen=True)
class RendezvousConfig:
    """Knobs of one exchange session.

    ``metadata_bytes_per_vertex`` prices the per-pose descriptors sent to
    the broker (3 bytes fits one vocabulary word). ``broker_host`` set to
    1 or 2 co-locates the broker with that robot, zeroing its metadata
    legs; None models a third-party broker. Ground-truth closures must be
    candidate edges; verification is simulated by membership.
    """

    objective: Objective = field(default_factory=Objective.p2)
    metadata_bytes_per_vertex: int = 3
    ground_truth_closures: frozenset[EdgeKey] = frozenset()
    channel_alive_after_exchange: bool = True
    closure_message_bytes: int = 64
    broker_host: int | None = None

    def __post_init__(self):
        if self.metadata_bytes_per_vertex < 0 or self.closure_message_bytes < 0:
            raise ValidationError("message byte sizes must be non-negative")
        if self.broker_host not in (None, 1, 2):
            raise ValidationError(f"broker_host must be 1, 2, or None, got {self.broker_host}")


@dataclass(frozen=True)
class RendezvousTrace:
    """Complete record of one simulated exchange."""

    messages: tuple[Message, ...]
    policy: Policy
    verified_1: frozenset[EdgeKey]  # candidate edges robot 1 screened
    verified_2: frozenset[EdgeKey]
    redundant: frozenset[EdgeKey]  # screened by both robots
    discovered_1: frozenset[EdgeKey]  # true closures robot 1 found
    discovered_2: frozenset[EdgeKey]
    undelivered_1: frozenset[EdgeKey]  # found by robot 1, never sent over
    undelivered_2: frozenset[EdgeKey]
    metadata_bytes: Fraction
    scan_bytes: Fraction
    closure_bytes: Fraction
    ell1: Fraction
    ell2: Fraction

    @property
    def total_bytes(self) -> Fraction:
        return self.metadata_bytes + self.scan_bytes + self.closure_bytes


def _policy_leg_bytes(num_vertices: int) -> int:
    """One bit per own-side vertex, rounded up to whole bytes."""
    return (num_vertices + 7) // 8


def run_rendezvous(
    g: ExchangeGraph, cfg: RendezvousConfig, policy: Policy | None = None
) -> RendezvousTrace:
    """Simulate a full exchange session.

    With ``policy`` unset the broker solves ``cfg.objective``; otherwise
    the given admissible policy is executed as-is (used for comparing
    fixed strategies against the optimum).
    """
    bad = [key for key in cfg.ground_truth_closures if g.edge_index(key) is None]
    if bad:
        raise GroundTruthOutsideCandidates(
            f"ground-truth closures outside the candidate set: {sorted(bad)}"
        )
    messages: list[Message] = []

    def meta_leg(sender, recipient, robot_side, size, summary):
        cost = Fraction(0) if cfg.broker_host == robot_side else Fraction(size)
        messages.append(Message(METADATA_PHASE, sender, recipient, cost, summary))

    # round 1: per-pose metadata to the broker
    for side in (1, 2):
        n = len(g.ids[side - 1])
        meta_leg(ROBOT[side], BROKER, side, n * cfg.metadata_bytes_per_vertex, f"meta[{n}]")
    # round 2/3: broker forms the graph and solves (or adopts the override)
    if policy is None:
        policy = solve(g, cfg.objective).policy
    elif not is_admissible(g, policy):
        raise InadmissiblePolicy("rendezvous requires a complete-search policy")
    for side in (1, 2):
        n = len(g.ids[side - 1])
        meta_leg(BROKER, ROBOT[side], side, _policy_leg_bytes(n), f"policy[{n}]")
    # round 4: execute the policy, scans cross to the other robot
    scan_bytes = Fraction(0)
    for item in execute_order(g, policy):
        src = ROBOT[item.vertex.side]
        messages.append(
            Message(SCAN_PHASE, src, ROBOT[item.dest_side], item.size, f"scan[{item.vertex}]")
        )
        scan_bytes += item.size
    # round 5: verification against the simulated ground truth
    report = workloads(g, policy, cfg.objective.alpha1, cfg.objective.alpha2)
    discovered_1 = frozenset(report.l1_edges & cfg.ground_truth_closures)
    discovered_2 = frozenset(report.l2_edges & cfg.ground_truth_closures)
    both = discovered_1 & discovered_2
    exclusive = {1: discovered_1 - both, 2: discovered_2 - both}
    # round 6: swap discoveries the other robot does not already have
    closure_bytes = Fraction(0)
    undelivered = {1: frozenset(), 2: frozenset()}
    if cfg.channel_alive_after_exchange:
        for side in (1, 2):
            for u, v in sorted(exclusive[side]):
                messages.append(
                    Message(
                        CLOSURE_PHASE,
                        ROBOT[side],
                        ROBOT[3 - side],
                        Fraction(cfg.closure_message_bytes),
                        f"closure[{u}-{v}]",
                    )
                )
                closure_bytes += cfg.closure_message_bytes
    else:
        undelivered = {1: frozenset(exclusive[1]), 2: frozenset(exclusive[2])}
    metadata_bytes = sum(
        (m.size for m in messages if m.phase == METADATA_PHASE), Fraction(0)
    )
    return RendezvousTrace(
        messages=tuple(messages),
        policy=policy,
        verified_1=report.l1_edges,
        verified_2=report.l2_edges,
        redundant=report.l12_edges,
        discovered_1=discovered_1,
        discovered_2=discovered_2,
        undelivered_1=undelivered[1],
        undelivered_2=undelivered[2],
        metadata_bytes=metadata_bytes,
        scan_bytes=scan_bytes,
        closure_bytes=closure_bytes,
        ell1=report.ell1,
        ell2=report.ell2,
    )


class StrategyRow(NamedTuple):
    strategy: str
    scan_bytes: Fraction
    metadata_bytes: Fraction
    ell1: Fraction
    ell2: Fraction


STRATEGIES = ("optimal", "monolog1", "monolog2", "full_bidirectional")


def compare_strategies(g: ExchangeGraph, cfg: RendezvousConfig) -> list[StrategyRow]:
    """Run the rendezvous under the optimal policy, both monologs, and the
    naive everything-both-ways baseline; report bytes and workloads."""
    if g.num_vertices == 0:
        zero = Fraction(0)
        return [StrategyRow(name, zero, zero, zero, zero) for name in STRATEGIES]
    policies = {
        "optimal": None,
        "monolog1": monolog(g, 1),
        "monolog2": monolog(g, 2),
        "full_bidirectional": full_bidirectional(g),
    }
    rows = []
    for name in STRATEGIES:
        trace = run_rendezvous(g, cfg, policy=policies[name])
        rows.append(
            StrategyRow(name, trace.scan_bytes, trace.metadata_bytes, trace.ell1, trace.ell2)
        )
    return rows


def format_trace(trace: RendezvousTrace) -> str:
    """Line-oriented export: ``phase from to bytes payload_summary``."""
    lines = [
        f"{m.phase} {m.sender} {m.recipient} {format_rational(m.size)} {m.summary}"
        for m in trace.messages
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
