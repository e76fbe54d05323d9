"""Command-line front end: build exchange graphs, solve for optimal
policies, certify monolog optimality, simulate rendezvous sessions, and
run parameter sweeps that emit plot-ready CSV.

Exit codes: 0 success, 2 unreadable/malformed input, 3 validation
failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import candidates as cand
from .errors import EmptySide, GraphFormatError, InvariantViolation, ScanPlanError, ValidationError
from .graph import ExchangeGraph, VertexId, format_rational, load_graph, save_graph
from .objectives import Objective, as_fraction
from .policy import (
    full_bidirectional,
    load_policy,
    monolog,
    objective_cost,
    save_policy,
)
from .protocol import (
    RendezvousConfig,
    compare_strategies,
    format_trace,
    run_rendezvous,
    strategy_table_csv,
)
from .solver import check_ghc, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _objective_from_args(args) -> Objective:
    return Objective(
        args.objective,
        alpha1=as_fraction(args.alpha1),
        alpha2=as_fraction(args.alpha2),
        omega=as_fraction(args.omega),
    )


def _add_objective_flags(parser, default="p2"):
    parser.add_argument("--objective", choices=("p1", "p2", "p3"), default=default)
    parser.add_argument("--alpha1", default="1", help="workload weight of robot 1 (p1/p3)")
    parser.add_argument("--alpha2", default="1", help="workload weight of robot 2 (p1/p3)")
    parser.add_argument("--omega", default="0", help="workload mixing weight (p3)")


def _input_flags() -> argparse.ArgumentParser:
    """Parent parser for the candidate-input flags of build-graph and sweep."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--poses1"), parser.add_argument("--poses2")
    parser.add_argument("--features1"), parser.add_argument("--features2")
    parser.add_argument("--scores", help="appearance mode: file of 'u v score' lines")
    parser.add_argument("--top-k", type=int, default=2)
    parser.add_argument("--symmetric", action="store_true", help="also query side 2 against side 1")
    parser.add_argument("--synthetic", action="store_true", help="use the bundled two-loop fixture")
    parser.add_argument("--synthetic-poses", type=int, default=100)
    parser.add_argument("--synthetic-seed", type=int, default=7)
    parser.add_argument("--dmax", default="30", help="max distance between candidate poses (m)")
    parser.add_argument("--eta", default="0", help="min field-of-view overlap fraction")
    parser.add_argument("--rate-divisor", type=int, default=1)
    parser.add_argument("--fov-half-angle", type=float, default=0.7)
    parser.add_argument("--fov-range", type=float, default=30.0)
    return parser


def _float_arg(value) -> float:
    """A gate value given as an exact decimal or ``p/q`` number, as a float."""
    try:
        return float(as_fraction(value))
    except OverflowError:
        raise ValidationError(f"number out of range: {value}") from None


def _load_trajectories(args) -> tuple[cand.Trajectory, cand.Trajectory]:
    if args.synthetic:
        return cand.synthetic_two_loop(n=args.synthetic_poses, seed=args.synthetic_seed)
    if not args.poses1 or not args.poses2:
        raise GraphFormatError("provide --poses1/--poses2 or --synthetic")
    counts1 = cand.read_feature_counts(args.features1) if args.features1 else None
    counts2 = cand.read_feature_counts(args.features2) if args.features2 else None
    return (
        cand.read_kitti_poses(args.poses1, counts1),
        cand.read_kitti_poses(args.poses2, counts2),
    )


def _geometry_params(args, d_max=None, eta=None) -> cand.GeometryParams:
    return cand.GeometryParams(
        d_max=_float_arg(args.dmax) if d_max is None else d_max,
        eta=_float_arg(args.eta) if eta is None else eta,
        rate_divisor=args.rate_divisor,
        fov_half_angle=args.fov_half_angle,
        fov_range=args.fov_range,
    )


def _appearance_weights(args) -> tuple[list, list]:
    def weights(path):
        counts = cand.read_feature_counts(path)
        return [c * cand.DESCRIPTOR_BYTES for c in counts]

    if args.features1 and args.features2:
        return weights(args.features1), weights(args.features2)
    raise GraphFormatError("appearance graphs need --features1 and --features2")


def _monolog_cost_text(g: ExchangeGraph, side: int, obj: Objective) -> str:
    try:
        return format_rational(objective_cost(g, monolog(g, side), obj))
    except EmptySide:
        return "n/a"


# -- subcommands -------------------------------------------------------------


def cmd_build_graph(args) -> int:
    if args.scores:
        scores = cand.read_scores(args.scores)
        w1, w2 = _appearance_weights(args)
        params = cand.AppearanceParams(
            alpha=_float_arg(args.alpha), top_k=args.top_k, symmetric=args.symmetric
        )
        g = cand.build_appearance(scores, w1, w2, params)
    else:
        t1, t2 = _load_trajectories(args)
        g = cand.build_geometric(t1, t2, _geometry_params(args))
    save_graph(g, args.out)
    print(f"wrote {args.out}: |V1|={len(g.ids[0])} |V2|={len(g.ids[1])} |L|={g.num_edges}")
    if g.pruned:
        print(f"pruned {len(g.pruned)} isolated vertices")
    return EXIT_OK


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    obj = _objective_from_args(args)
    start = time.perf_counter()
    result = solve(g, obj, engine=args.engine)
    elapsed = time.perf_counter() - start
    print(f"optimal_cost {format_rational(result.optimal_cost)}")
    print(f"monolog1_cost {_monolog_cost_text(g, 1, obj)}")
    print(f"monolog2_cost {_monolog_cost_text(g, 2, obj)}")
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


def _read_ground_truth(path) -> frozenset:
    pairs = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno + 1}: expected 'u_index v_index'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno + 1}: bad indices") from exc
            pairs.add((VertexId(1, u), VertexId(2, v)))
    return frozenset(pairs)


def cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    cfg = RendezvousConfig(
        objective=_objective_from_args(args),
        metadata_bytes_per_vertex=args.metadata_bytes,
        ground_truth_closures=_read_ground_truth(args.ground_truth)
        if args.ground_truth
        else frozenset(),
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
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
            raise ValidationError(f"unknown sweep parameter {self.parameter!r}")
        for name in ("start", "stop", "step"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        if self.step <= 0:
            raise ValidationError(f"sweep step must be positive, got {self.step}")
        if self.start > self.stop:
            raise ValidationError(f"sweep start {self.start} exceeds stop {self.stop}")
        if self.num_points > MAX_SWEEP_POINTS:
            raise ValidationError(
                f"sweep has {self.num_points} points, more than the limit of {MAX_SWEEP_POINTS}"
            )

    @property
    def num_points(self) -> int:
        return math.floor((self.stop - self.start) / self.step) + 1

    def values(self) -> list[Fraction]:
        return [self.start + k * self.step for k in range(self.num_points)]


def run_sweep(args) -> tuple[list[str], str]:
    """Build one graph per sweep point, solve all strategies, and return
    (CSV lines, nesting report). Candidate sets must be nested along the
    sweep direction; a violation is an internal error."""
    spec = SweepSpec(args.parameter, args.start, args.stop, args.step)
    values = spec.values()
    parameter = spec.parameter
    obj = _objective_from_args(args)

    graphs: list[tuple[Fraction, ExchangeGraph]] = []
    if parameter in ("dmax", "eta"):
        t1, t2 = _load_trajectories(args)
        swept = "d_max" if parameter == "dmax" else "eta"
        for value in values:
            params = _geometry_params(args, **{swept: _float_arg(value)})
            graphs.append((value, cand.build_geometric(t1, t2, params)))
    elif parameter == "alpha":
        if not args.scores:
            raise GraphFormatError("alpha sweeps need --scores")
        scores = cand.read_scores(args.scores)
        w1, w2 = _appearance_weights(args)
        for value in values:
            params = cand.AppearanceParams(
                alpha=_float_arg(value), top_k=args.top_k, symmetric=args.symmetric
            )
            graphs.append((value, cand.build_appearance(scores, w1, w2, params)))
    else:  # omega; SweepSpec rejects every other name
        if not args.graph:
            raise GraphFormatError("omega sweeps need --graph")
        g = load_graph(args.graph)
        graphs = [(value, g) for value in values]

    # candidate sets grow with dmax and shrink with eta/alpha; omega leaves
    # the graph untouched
    edge_sets = [g.edge_keys() for _, g in graphs]
    if parameter == "dmax":
        nested = all(a <= b for a, b in zip(edge_sets, edge_sets[1:]))
        direction = "non-decreasing"
    elif parameter in ("eta", "alpha"):
        nested = all(b <= a for a, b in zip(edge_sets, edge_sets[1:]))
        direction = "non-increasing"
    else:
        nested, direction = True, "constant"
    if not nested:
        raise InvariantViolation(f"candidate sets not nested along {parameter} sweep")

    lines = ["param,optimal,monolog1,monolog2,bidirectional,num_vertices,num_edges"]
    for value, g in graphs:
        if parameter == "omega":
            obj_here = Objective.p3(alpha1=args.alpha1, alpha2=args.alpha2, omega=value)
        else:
            obj_here = obj
        if g.num_vertices == 0:
            optimal = mono1 = mono2 = bidir = Fraction(0)
        else:
            optimal = solve(g, obj_here).optimal_cost
            mono1 = objective_cost(g, monolog(g, 1), obj_here)
            mono2 = objective_cost(g, monolog(g, 2), obj_here)
            bidir = objective_cost(g, full_bidirectional(g), obj_here)
        lines.append(
            ",".join(
                [format_rational(value)]
                + [format_rational(x) for x in (optimal, mono1, mono2, bidir)]
                + [str(g.num_vertices), str(g.num_edges)]
            )
        )
    report = f"nesting {direction}: ok ({len(graphs)} points)"
    return lines, report


def cmd_sweep(args) -> int:
    lines, report = run_sweep(args)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("solve", help="solve for the optimal exchange policy")
    p.add_argument("--graph", required=True)
    p.add_argument("--policy-out")
    p.add_argument("--engine", choices=("scipy", "dinic"))
    _add_objective_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-monolog", help="certify whether a monolog is optimal")
    p.add_argument("--graph", required=True)
    p.add_argument("--side", type=int, choices=(1, 2), required=True)
    p.add_argument("--improving-out")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_check_monolog)

    p = sub.add_parser("simulate", help="simulate a broker-mediated rendezvous")
    p.add_argument("--graph", required=True)
    p.add_argument("--policy", help="execute this policy instead of solving")
    p.add_argument("--ground-truth", help="file of 'u_index v_index' true closures")
    p.add_argument("--metadata-bytes", type=int, default=cand.METADATA_WORD_BYTES)
    p.add_argument("--closure-bytes", type=int, default=64)
    p.add_argument("--channel-dead", action="store_true")
    p.add_argument("--broker-host", type=int, choices=(1, 2))
    p.add_argument("--trace-out")
    p.add_argument("--compare", action="store_true", help="emit the strategy comparison CSV")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[inputs], help="sweep a parameter and emit cost curves as CSV"
    )
    p.add_argument("--parameter", choices=("dmax", "eta", "alpha", "omega"), required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--step", required=True)
    p.add_argument("--out")
    p.add_argument("--graph", help="prebuilt graph (omega sweeps)")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
