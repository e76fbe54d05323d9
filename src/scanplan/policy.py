"""Exchange policies: which scans get transmitted, and what that costs.

A policy is a total 0/1 labeling of the graph's vertices; label 1 means
"send this pose's scan to the other robot". A policy is admissible when
every candidate edge has at least one transmitted endpoint, which is
exactly what guarantees a complete loop-closure search. Admissible
policies are indicator functions of vertex covers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptySide,
    GraphFormatError,
    LabelDomainMismatch,
    ValidationError,
)
from .graph import (
    ExchangeGraph,
    VertexId,
    _checked_graph,
    _id_lookup,
    _load_file,
    _load_int,
    _load_json,
    _objects,
    _side_position,
    _vertex_ids,
    weight_numerators,
)
from .objectives import Objective, _shown, _shown_ids


class Policy:
    """Immutable total labeling of a vertex set.

    A policy built from ids, labels or a file holds its ``domain`` and
    ``ones`` as frozensets. One built over a graph (by the solver,
    ``monolog`` or ``full_bidirectional``) holds instead, per side, a
    read-only boolean mask over the graph's ``ids``, and builds the
    frozensets on first access. Both kinds compare, hash and print alike.
    """

    __slots__ = ("_domain", "_ones", "_ids", "_masks")

    def __init__(self, domain: Iterable[VertexId], ones: Iterable[VertexId]):
        self._domain = frozenset(domain)
        self._ones = frozenset(ones)
        self._ids = self._masks = None
        if not self._ones <= self._domain:
            raise ValidationError("labeled vertices outside the policy domain")

    @classmethod
    def _over(cls, ids: tuple[tuple[int, ...], tuple[int, ...]], masks: Sequence[np.ndarray]) -> "Policy":
        """The policy labelling, per side, the vertices ``ids`` marked in
        ``masks`` (one boolean array per side, copied)."""
        pi = cls.__new__(cls)
        pi._domain = pi._ones = None
        pi._ids = ids
        pi._masks = tuple(np.array(m, dtype=bool) for m in masks)
        for m in pi._masks:
            m.flags.writeable = False
        return pi

    @property
    def domain(self) -> frozenset[VertexId]:
        if self._domain is None:
            self._domain = frozenset(chain(*map(_vertex_ids, (1, 2), self._ids)))
        return self._domain

    @property
    def ones(self) -> frozenset[VertexId]:
        if self._ones is None:
            sent = map(compress, self._ids, (m.tolist() for m in self._masks))
            self._ones = frozenset(chain(*map(_vertex_ids, (1, 2), sent)))
        return self._ones

    def _masks_over(self, ids) -> tuple[np.ndarray, np.ndarray] | None:
        """The per-side masks when this policy was built over ``ids``, else None."""
        if self._ids is not None and (self._ids is ids or self._ids == ids):
            return self._masks
        return None

    @classmethod
    def from_labels(cls, labels: Mapping[VertexId, int]) -> "Policy":
        for vid, bit in labels.items():
            if bit not in (0, 1):
                raise ValidationError(f"label of {_shown(vid, str)} must be 0 or 1, got {_shown(bit)}")
        return cls(labels.keys(), (vid for vid, bit in labels.items() if bit == 1))

    def label(self, vid: VertexId) -> int:
        if vid not in self.domain:
            raise LabelDomainMismatch(f"vertex {_shown(vid, str)} not labeled by this policy")
        return 1 if vid in self.ones else 0

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return False
        masks = None if other._ids is None else self._masks_over(other._ids)
        if masks is not None:
            return all(map(np.array_equal, masks, other._masks))
        return self.domain == other.domain and self.ones == other.ones

    def __hash__(self):
        return hash((self.domain, self.ones))

    def __repr__(self):
        ones = ", ".join(str(v) for v in sorted(self.ones))
        return f"Policy(ones={{{ones}}})"


def _masked_sum(column: np.ndarray, mask: np.ndarray) -> int:
    """The sum of an integer column (see ``graph._int_column``, which makes
    it exact) over a boolean mask of the same length: the one sum behind
    every cost of a labelling."""
    return int(column[mask].sum())


def _sent_masks(g: ExchangeGraph, pi: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Per side, a mask of the vertices the policy transmits: its own masks
    when it was built over g's ids. ``LabelDomainMismatch`` unless the
    policy labels exactly g's vertices."""
    _checked_graph(g)
    masks = pi._masks_over(g.ids)
    if masks is not None:
        return masks
    if pi.domain != g.vertex_set:
        missing = g.vertex_set - pi.domain
        extra = pi.domain - g.vertex_set
        raise LabelDomainMismatch(
            f"policy domain mismatch (missing {len(missing)}: [{_shown_ids(sorted(missing))}], "
            f"extra {len(extra)}: [{_shown_ids(sorted(extra))}])"
        )
    return g.label_masks(pi.ones)


def is_admissible(g: ExchangeGraph, pi: Policy) -> bool:
    """True iff every candidate edge has at least one transmitted endpoint."""
    sent1, sent2 = _sent_masks(g, pi)
    return bool((sent1[g.eu] | sent2[g.ev]).all())


def monolog(g: ExchangeGraph, source_side: int) -> Policy:
    """The one-directional policy transmitting every scan of one robot."""
    _checked_graph(g)
    s = _side_position(source_side)
    if not g.ids[s]:
        raise EmptySide(f"side {source_side} has no vertices")
    return Policy._over(g.ids, [np.full(len(ids), k == s) for k, ids in enumerate(g.ids)])


def full_bidirectional(g: ExchangeGraph) -> Policy:
    """Every scan sent both ways: the naive all-ones baseline."""
    _checked_graph(g)
    return Policy._over(g.ids, [np.ones(len(ids), bool) for ids in g.ids])


def comm_cost(g: ExchangeGraph, pi: Policy) -> Fraction:
    """Total bytes transmitted: the sum of effective scan sizes over
    labeled vertices. Defined for any labeling, admissible or not."""
    return objective_cost(g, pi, Objective.p2())


def objective_cost(g: ExchangeGraph, pi: Policy, obj: Objective) -> Fraction:
    """Cost of a labeling under an objective; equals the sum of per-vertex
    effective weights over the labeled vertices."""
    sent = _sent_masks(g, pi)
    weight, den = weight_numerators(g, obj)
    return Fraction(sum(map(_masked_sum, weight, sent)), den)


# -- policy file format ----------------------------------------------------
#
# JSON object with a "labels" array of {"side", "index", "bit"} records,
# one per vertex, sorted by (side, index).


_BIT_TEXTS = (', "bit": 0}', ', "bit": 1}')


def dumps_policy(pi: Policy) -> str:
    if pi._ids is None:
        ones = pi.ones
        sides = [
            (side, [(vid.index, int(vid in ones)) for vid in vids])
            for side, vids in groupby(sorted(pi.domain), itemgetter(0))
        ]
    else:  # from the masks, side by side, in each side's sorted ids
        sides = []
        for side, ids, mask in zip((1, 2), pi._ids, pi._masks):
            column, order = _id_lookup(ids)
            sides.append((side, zip(column.tolist(), mask[order].view(np.int8).tolist())))
    rows = []
    for side, labels in sides:
        head = f'    {{"side": {side}, "index": '
        rows += [f"{head}{index}{_BIT_TEXTS[bit]}" for index, bit in labels]
    return '{\n  "labels": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def loads_policy(text: str) -> Policy:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise GraphFormatError("policy file must hold a JSON object")
    labels = {}
    try:
        for k, row in enumerate(_objects(doc, "labels")):
            vid, bit = VertexId(_load_int(row["side"]), _load_int(row["index"])), _load_int(row["bit"])
            if vid in labels:
                raise ValidationError(f"duplicate vertex id {_shown(vid, str)} in labels[{k}]")
            labels[vid] = bit
    except KeyError as exc:
        raise GraphFormatError(f"malformed policy file: {exc!r}") from exc
    return Policy.from_labels(labels)


def save_policy(pi: Policy, path) -> None:
    Path(path).write_text(dumps_policy(pi), encoding="utf-8")


def load_policy(path) -> Policy:
    return _load_file(path, loads_policy)
