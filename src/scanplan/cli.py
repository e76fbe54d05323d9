"""Command-line front end: build exchange graphs, solve for optimal
policies, certify monolog optimality, simulate rendezvous sessions, and
run parameter sweeps that emit plot-ready CSV.

Exit codes: 0 success, 2 unreadable/malformed input, 3 validation
failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import candidates as cand
from .errors import GraphFormatError, InvariantViolation, ScanPlanError, ValidationError
from .graph import ExchangeGraph, format_rational, load_graph, save_graph, weight_numerators
from .objectives import Objective, _shown, as_fraction
from .policy import full_bidirectional, monolog  # noqa: F401  (perfbench/tracing.py wraps both as cli attributes)
from .policy import load_policy, objective_cost, save_policy
from .protocol import (
    RendezvousConfig,
    compare_strategies,
    format_trace,
    run_rendezvous,
    strategy_table_csv,
)
from .solver import _min_cut_covers, _optimal_cover, _strategy_costs, check_ghc, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _objective_from_args(args) -> Objective:
    return Objective(args.objective, alpha1=args.alpha1, alpha2=args.alpha2, omega=args.omega)


def _add_objective_flags(parser):
    parser.add_argument("--objective", choices=("p1", "p2", "p3"), default="p2")
    parser.add_argument("--alpha1", default="1", help="workload weight of robot 1 (p1/p3)")
    parser.add_argument("--alpha2", default="1", help="workload weight of robot 2 (p1/p3)")
    parser.add_argument("--omega", default="0", help="workload mixing weight (p3)")


def _input_flags() -> argparse.ArgumentParser:
    """Parent parser for the candidate-input flags of build-graph and sweep."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--poses1"), parser.add_argument("--poses2")
    parser.add_argument("--features1"), parser.add_argument("--features2")
    parser.add_argument("--scores", help="appearance mode: file of 'u v score' lines")
    parser.add_argument("--top-k", type=int, default=cand.AppearanceParams.top_k)
    parser.add_argument("--symmetric", action="store_true", help="also query side 2 against side 1")
    parser.add_argument("--synthetic", action="store_true", help="use the bundled two-loop fixture")
    synthetic = inspect.signature(cand.synthetic_two_loop).parameters
    parser.add_argument("--synthetic-poses", type=int, default=synthetic["n"].default)
    parser.add_argument("--synthetic-seed", type=int, default=synthetic["seed"].default)
    parser.add_argument("--dmax", default="30", help="max distance between candidate poses (m)")
    parser.add_argument("--eta", default="0", help="min field-of-view overlap fraction")
    parser.add_argument("--rate-divisor", type=int, default=cand.GeometryParams.rate_divisor)
    parser.add_argument("--fov-half-angle", type=float, default=cand.GeometryParams.fov_half_angle)
    parser.add_argument("--fov-range", type=float, default=cand.GeometryParams.fov_range)
    return parser


def _float_arg(value) -> float:
    """A gate value given as an exact decimal or ``p/q`` number, as a float."""
    try:
        return float(as_fraction(value))
    except OverflowError:
        raise ValidationError(f"number out of range: {_shown(value, str)}") from None


def _load_trajectories(args) -> tuple[cand.Trajectory, cand.Trajectory]:
    if args.synthetic:
        return cand.synthetic_two_loop(n=args.synthetic_poses, seed=args.synthetic_seed)
    if not args.poses1 or not args.poses2:
        raise GraphFormatError("provide --poses1/--poses2 or --synthetic")
    counts1 = cand.read_feature_counts(args.features1) if args.features1 else None
    counts2 = cand.read_feature_counts(args.features2) if args.features2 else None
    return cand.read_kitti_poses(args.poses1, counts1), cand.read_kitti_poses(args.poses2, counts2)


def _candidate_inputs(args, appearance: bool) -> tuple:
    """The inputs that build-graph and sweep gate: (scores, side-1 scan
    sizes, side-2 scan sizes) for an appearance graph, else the two
    trajectories."""
    if not appearance:
        return _load_trajectories(args)
    scores = cand.read_scores(args.scores)
    if not (args.features1 and args.features2):
        raise GraphFormatError("appearance graphs need --features1 and --features2")
    counts = (cand.read_feature_counts(args.features1), cand.read_feature_counts(args.features2))
    return (scores, *([c * cand.DESCRIPTOR_BYTES for c in side] for side in counts))


def _gate_params(args, appearance: bool, **swept) -> cand.AppearanceParams | cand.GeometryParams:
    """The gates of build-graph's or sweep's flags; a gate named in
    ``swept`` (``dmax``, ``eta`` or ``alpha``) takes that value instead,
    read before the flags."""
    gates = {name: _float_arg(value) for name, value in swept.items()}
    names = ("alpha",) if appearance else ("dmax", "eta")
    gates.update((name, _float_arg(getattr(args, name))) for name in names if name not in swept)
    if appearance:
        return cand.AppearanceParams(alpha=gates["alpha"], top_k=args.top_k, symmetric=args.symmetric)
    return cand.GeometryParams(
        d_max=gates["dmax"],
        eta=gates["eta"],
        rate_divisor=args.rate_divisor,
        fov_half_angle=args.fov_half_angle,
        fov_range=args.fov_range,
    )


# -- subcommands -------------------------------------------------------------


def cmd_build_graph(args) -> int:
    appearance = bool(args.scores)
    build = cand.build_appearance if appearance else cand.build_geometric
    g = build(*_candidate_inputs(args, appearance), _gate_params(args, appearance))
    save_graph(g, args.out)
    print(f"wrote {args.out}: |V1|={len(g.ids[0])} |V2|={len(g.ids[1])} |L|={g.num_edges}")
    if g.pruned:
        print(f"pruned {len(g.pruned)} isolated vertices")
    return EXIT_OK


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    obj = _objective_from_args(args)
    if args.engine != "dinic":
        # the compiled engine's first import would count in solve_seconds
        import scipy.sparse.csgraph  # noqa: F401
    start = time.perf_counter()
    result = solve(g, obj, engine=args.engine)
    elapsed = time.perf_counter() - start
    costs = _strategy_costs(*_optimal_cover(g, obj, args.engine))
    print(f"optimal_cost {format_rational(result.optimal_cost)}")
    for side in (1, 2):
        # a graph without vertices has no monolog
        print(f"monolog{side}_cost {format_rational(costs[side]) if g.num_vertices else 'n/a'}")
    print(f"method {result.method}[{result.engine}]")
    print(f"transmitted_vertices {len(result.policy.ones)}")
    print(f"solve_seconds {elapsed:.4f}")
    if args.policy_out:
        save_policy(result.policy, args.policy_out)
        print(f"wrote policy {args.policy_out}")
    return EXIT_OK


def cmd_check_monolog(args) -> int:
    g = load_graph(args.graph)
    obj = _objective_from_args(args)
    cert = check_ghc(g, obj, args.side)
    print(f"side {args.side}")
    print(f"monolog_cost {format_rational(cert.monolog_cost)}")
    print(f"optimal_cost {format_rational(cert.optimal_cost)}")
    if cert.holds:
        print("monolog_optimal yes")
    else:
        print("monolog_optimal no")
        witness = " ".join(str(v) for v in sorted(cert.witness))
        print(f"violating_subset {witness}")
        print(
            f"subset_weight {format_rational(cert.witness_weight)} "
            f"> neighborhood_weight {format_rational(cert.neighborhood_weight)}"
        )
        improving_cost = objective_cost(g, cert.improving_policy, obj)
        print(f"improving_cost {format_rational(improving_cost)}")
        if args.improving_out:
            save_policy(cert.improving_policy, args.improving_out)
            print(f"wrote improving policy {args.improving_out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    cfg = RendezvousConfig(
        objective=_objective_from_args(args),
        metadata_bytes_per_vertex=args.metadata_bytes,
        ground_truth_closures=cand.read_ground_truth(args.ground_truth) if args.ground_truth else frozenset(),
        channel_alive_after_exchange=not args.channel_dead,
        closure_message_bytes=args.closure_bytes,
        broker_host=args.broker_host,
    )
    if args.compare:
        sys.stdout.write(strategy_table_csv(compare_strategies(g, cfg)))
        return EXIT_OK
    policy = load_policy(args.policy) if args.policy else None
    trace = run_rendezvous(g, cfg, policy=policy)
    text = format_trace(trace)
    if args.trace_out:
        Path(args.trace_out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(f"metadata_bytes {format_rational(trace.metadata_bytes)}")
    print(f"scan_bytes {format_rational(trace.scan_bytes)}")
    print(f"closure_bytes {format_rational(trace.closure_bytes)}")
    print(f"ell1 {format_rational(trace.ell1)}")
    print(f"ell2 {format_rational(trace.ell2)}")
    discovered = sorted(trace.discovered_1 | trace.discovered_2)
    print(f"discovered {len(discovered)}")
    undelivered = sorted(trace.undelivered_1 | trace.undelivered_2)
    if undelivered:
        marks = " ".join(f"{u}-{v}" for u, v in undelivered)
        print(f"undelivered {marks}")
    return EXIT_OK


SWEEP_PARAMETERS = ("dmax", "eta", "alpha", "omega")

# Most points one sweep may have; each point builds and solves a graph.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class SweepSpec:
    """One swept gate parameter and its exact-rational range; every other
    parameter stays fixed at its flag value."""

    parameter: str
    start: Fraction
    stop: Fraction
    step: Fraction

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValidationError(f"unknown sweep parameter {_shown(self.parameter)}")
        for name in ("start", "stop", "step"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.step <= 0:
            raise ValidationError(f"sweep step must be positive, got {_shown(self.step, str)}")
        if self.start > self.stop:
            raise ValidationError(f"sweep start {_shown(self.start, str)} exceeds stop {_shown(self.stop, str)}")
        if self.num_points > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"sweep has {_shown(self.num_points, str)} points, more than the limit of {MAX_SWEEP_POINTS}"
            )

    @property
    def num_points(self) -> int:
        return math.floor((self.stop - self.start) / self.step) + 1

    def values(self) -> list[Fraction]:
        return [self.start + k * self.step for k in range(self.num_points)]


def _edge_codes(graphs: list[ExchangeGraph]) -> list[np.ndarray]:
    """Each graph's edges as codes ``u * stride + v`` of their endpoints'
    vertex ids, with one stride for all graphs, so two graphs share an
    edge exactly when they share its code. The codes are int64 where the
    largest fits, else exact Python ints."""
    top = max((max(g.ids[0], default=0) for g in graphs), default=0)
    stride = 1 + max((max(g.ids[1], default=0) for g in graphs), default=0)
    dtype = np.int64 if (top + 1) * stride < 2**63 else object
    return [np.array(g.ids[0], dtype)[g.eu] * stride + np.array(g.ids[1], dtype)[g.ev] for g in graphs]


def _nested(graphs, parameter: str):
    """``graphs`` in turn, each checked against the one before it only:
    candidate sets grow with dmax and shrink with eta and alpha."""
    before = None
    for g in graphs:
        narrower_first = [before, g] if parameter == "dmax" else [g, before]
        if before is not None and not np.isin(*_edge_codes(narrower_first)).all():
            raise InvariantViolation(f"candidate sets not nested along {parameter} sweep")
        yield g
        before = g


def run_sweep(args) -> tuple[list[str], str]:
    """Build one graph per sweep point, price all strategies, and return
    (CSV lines, nesting report). Points stream in one pass: each is checked
    for nesting against the point before it, then cut and formatted, so
    memory holds one joined flow network's points, not the sweep's."""
    spec = SweepSpec(args.parameter, args.start, args.stop, args.step)
    values = spec.values()
    parameter = spec.parameter
    obj = _objective_from_args(args)

    if parameter == "omega":
        # one graph, a P3 objective per point
        if not args.graph:
            raise GraphFormatError("omega sweeps need --graph")
        g = load_graph(args.graph)
        points = ((g, Objective.p3(alpha1=args.alpha1, alpha2=args.alpha2, omega=value)) for value in values)
    else:
        # a graph per point, one objective; each input is read, and each
        # pose pair's distance and FOV overlap or each score checked, once
        appearance = parameter == "alpha"
        if appearance and not args.scores:
            raise GraphFormatError("alpha sweeps need --scores")
        build = cand.build_appearance_sweep if appearance else cand.build_geometric_sweep
        params = (_gate_params(args, appearance, **{parameter: value}) for value in values)
        points = ((g, obj) for g in _nested(build(*_candidate_inputs(args, appearance), params), parameter))

    lines = ["param,optimal,monolog1,monolog2,bidirectional,num_vertices,num_edges"]
    jobs = ((g, *weight_numerators(g, obj_here)) for g, obj_here in points)
    for value, ((g, weight, den), result) in zip(values, _min_cut_covers(jobs)):
        costs = [format_rational(x) for x in _strategy_costs(result, weight, den)]
        lines.append(",".join([format_rational(value), *costs, str(g.num_vertices), str(g.num_edges)]))
    direction = {"omega": "constant", "dmax": "non-decreasing"}.get(parameter, "non-increasing")
    return lines, f"nesting {direction}: ok ({len(lines) - 1} points)"


def cmd_sweep(args) -> int:
    lines, report = run_sweep(args)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(report, file=sys.stderr)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanplan",
        description="Plan resource-optimal sensory-data exchange between two robots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = _input_flags()

    p = sub.add_parser(
        "build-graph", parents=[inputs], help="build an exchange graph from poses or scores"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", default="0.3", help="appearance score threshold")
    p.set_defaults(func="cmd_build_graph")

    p = sub.add_parser("solve", help="solve for the optimal exchange policy")
    p.add_argument("--graph", required=True)
    p.add_argument("--policy-out")
    p.add_argument("--engine", choices=("scipy", "dinic"))
    _add_objective_flags(p)
    p.set_defaults(func="cmd_solve")

    p = sub.add_parser("check-monolog", help="certify whether a monolog is optimal")
    p.add_argument("--graph", required=True)
    p.add_argument("--side", type=int, choices=(1, 2), required=True)
    p.add_argument("--improving-out")
    _add_objective_flags(p)
    p.set_defaults(func="cmd_check_monolog")

    p = sub.add_parser("simulate", help="simulate a broker-mediated rendezvous")
    p.add_argument("--graph", required=True)
    p.add_argument("--policy", help="execute this policy instead of solving")
    p.add_argument("--ground-truth", help="file of 'u_index v_index' true closures")
    p.add_argument("--metadata-bytes", type=int, default=RendezvousConfig.metadata_bytes_per_vertex)
    p.add_argument("--closure-bytes", type=int, default=RendezvousConfig.closure_message_bytes)
    p.add_argument("--channel-dead", action="store_true")
    p.add_argument("--broker-host", type=int, choices=(1, 2))
    p.add_argument("--trace-out")
    p.add_argument("--compare", action="store_true", help="emit the strategy comparison CSV")
    _add_objective_flags(p)
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser(
        "sweep", parents=[inputs], help="sweep a parameter and emit cost curves as CSV"
    )
    p.add_argument(
        "--parameter",
        choices=SWEEP_PARAMETERS,
        required=True,
        help="the swept value; an omega sweep prices p3 with --alpha1, --alpha2 and each swept omega, "
        "so --objective and --omega are checked but not used",
    )
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--out")
    p.add_argument("--graph", help="prebuilt graph (omega sweeps)")
    _add_objective_flags(p)
    p.set_defaults(func="cmd_sweep")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the handler is looked up when it is called, so a replaced cmd_* attribute takes effect
        return globals()[args.func](args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ScanPlanError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
