"""Exchange policies: which scans get transmitted, and what that costs.

A policy is a total 0/1 labeling of the graph's vertices; label 1 means
"send this pose's scan to the other robot". A policy is admissible when
every candidate edge has at least one transmitted endpoint, which is
exactly what guarantees a complete loop-closure search. Admissible
policies are indicator functions of vertex covers.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    EmptySide,
    GraphFormatError,
    InadmissiblePolicy,
    LabelDomainMismatch,
    ValidationError,
)
from .graph import EdgeKey, ExchangeGraph, VertexId, _load_int, weight_numerators
from .objectives import Objective, as_fraction


class Policy:
    """Immutable total labeling of a vertex set."""

    __slots__ = ("domain", "ones")

    def __init__(self, domain: Iterable[VertexId], ones: Iterable[VertexId]):
        self.domain = frozenset(domain)
        self.ones = frozenset(ones)
        if not self.ones <= self.domain:
            raise ValidationError("labeled vertices outside the policy domain")

    @classmethod
    def from_labels(cls, labels: Mapping[VertexId, int]) -> "Policy":
        for vid, bit in labels.items():
            if bit not in (0, 1):
                raise ValidationError(f"label of {vid} must be 0 or 1, got {bit!r}")
        return cls(labels.keys(), (vid for vid, bit in labels.items() if bit == 1))

    @classmethod
    def from_cover(cls, g: ExchangeGraph, cover: Iterable[VertexId]) -> "Policy":
        return cls(g.vertex_ids, cover)

    def label(self, vid: VertexId) -> int:
        if vid not in self.domain:
            raise LabelDomainMismatch(f"vertex {vid} not labeled by this policy")
        return 1 if vid in self.ones else 0

    def to_labels(self) -> dict[VertexId, int]:
        return {vid: (1 if vid in self.ones else 0) for vid in sorted(self.domain)}

    def __eq__(self, other):
        return (
            isinstance(other, Policy)
            and self.domain == other.domain
            and self.ones == other.ones
        )

    def __hash__(self):
        return hash((self.domain, self.ones))

    def __repr__(self):
        ones = ", ".join(str(v) for v in sorted(self.ones))
        return f"Policy(ones={{{ones}}})"


def _check_domain(g: ExchangeGraph, pi: Policy) -> None:
    if pi.domain != g.vertex_set:
        missing = g.vertex_set - pi.domain
        extra = pi.domain - g.vertex_set
        raise LabelDomainMismatch(
            f"policy domain mismatch (missing={sorted(missing)}, extra={sorted(extra)})"
        )


def is_admissible(g: ExchangeGraph, pi: Policy) -> bool:
    """True iff every candidate edge has at least one transmitted endpoint."""
    _check_domain(g, pi)
    sent1, sent2 = g.label_masks(pi.ones)
    return bool((sent1[g.eu] | sent2[g.ev]).all())


def monolog(g: ExchangeGraph, source_side: int) -> Policy:
    """The one-directional policy transmitting every scan of one robot."""
    source = g.side_vids(source_side)
    if not source:
        raise EmptySide(f"side {source_side} has no vertices")
    return Policy(g.vertex_ids, source)


def full_bidirectional(g: ExchangeGraph) -> Policy:
    """Every scan sent both ways: the naive all-ones baseline."""
    return Policy(g.vertex_ids, g.vertex_ids)


def comm_cost(g: ExchangeGraph, pi: Policy) -> Fraction:
    """Total bytes transmitted: the sum of effective scan sizes over
    labeled vertices. Defined for any labeling, admissible or not."""
    return objective_cost(g, pi, Objective.p2())


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


def workloads(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> WorkloadReport:
    """Compute the induced division of labor for an admissible policy."""
    _check_domain(g, pi)
    if not is_admissible(g, pi):
        raise InadmissiblePolicy("workload partition is defined for admissible policies")
    alpha1 = as_fraction(alpha1)
    alpha2 = as_fraction(alpha2)
    sent1, sent2 = g.label_masks(pi.ones)
    on_robot1 = sent2[g.ev]  # robot 1 received the side-2 scan
    on_robot2 = sent1[g.eu]  # robot 2 received the side-1 scan
    keys = g.edge_key_list
    verified = [m.tolist() for m in (on_robot1, on_robot2, on_robot1 & on_robot2)]
    ell1, ell2 = (Fraction(sum(compress(g.cost_num, m)), g.den) for m in verified[:2])
    return WorkloadReport(
        l1_edges=frozenset(compress(keys, verified[0])),
        l2_edges=frozenset(compress(keys, verified[1])),
        l12_edges=frozenset(compress(keys, verified[2])),
        ell1=ell1,
        ell2=ell2,
        f_balance=alpha1 * ell1 + alpha2 * ell2,
    )


def balance_cost(g: ExchangeGraph, pi: Policy, alpha1=1, alpha2=1) -> Fraction:
    """Workload objective as a pure per-vertex sum; unlike
    :func:`workloads` this is defined for inadmissible labelings too."""
    return objective_cost(g, pi, Objective.p1(alpha1, alpha2))


def objective_cost(g: ExchangeGraph, pi: Policy, obj: Objective) -> Fraction:
    """Cost of a labeling under an objective; equals the sum of per-vertex
    effective weights over the labeled vertices."""
    _check_domain(g, pi)
    weight, den = weight_numerators(g, obj)
    sent = g.label_masks(pi.ones)
    return Fraction(sum(sum(compress(w, m.tolist())) for w, m in zip(weight, sent)), den)


class Transmission(NamedTuple):
    vertex: VertexId
    dest_side: int
    size: Fraction


def execute_order(g: ExchangeGraph, pi: Policy) -> list[Transmission]:
    """Deterministic transmission schedule for an admissible policy: the
    labeled scans in ascending (side, index) order, each going to the
    other robot, with its effective byte count."""
    _check_domain(g, pi)
    if not is_admissible(g, pi):
        raise InadmissiblePolicy("refusing to execute an incomplete-search policy")
    return [
        Transmission(vid, 2 if vid.side == 1 else 1, g.scan_weight(vid))
        for vid in sorted(pi.ones)
    ]


# -- policy file format ----------------------------------------------------
#
# JSON object with a "labels" array of {"side", "index", "bit"} records,
# one per vertex, sorted by (side, index).


def dumps_policy(pi: Policy) -> str:
    rows = [
        f'    {{"side": {vid.side}, "index": {vid.index}, "bit": {1 if vid in pi.ones else 0}}}'
        for vid in sorted(pi.domain)
    ]
    return '{\n  "labels": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def loads_policy(text: str) -> Policy:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    try:
        labels = {
            VertexId(_load_int(row["side"]), _load_int(row["index"])): _load_int(row["bit"])
            for row in doc["labels"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed policy file: {exc!r}") from exc
    return Policy.from_labels(labels)


def save_policy(pi: Policy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_policy(pi))


def load_policy(path) -> Policy:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_policy(fh.read())
