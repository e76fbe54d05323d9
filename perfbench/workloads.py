"""Seeded workloads for the scanplan benchmark.

Every workload is a closed loop with one client: the next op starts when
the previous one returns, and every op of a workload is identical. A
workload generates its inputs from the seed (``setup``), runs one op
through the public API or the in-process CLI (``op``), and checks that
op's outputs (``check``, which the benchmark runs outside the timed op).

Ops call ``scanplan`` functions through their module attributes
(``graph.loads_graph``, not a name bound at import), so the traced run can
wrap them in place; see ``tracing.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from scanplan import cli, graph, policy, protocol, solver
from scanplan.graph import VertexId, format_rational
from scanplan.objectives import Objective

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data"

# Degree-zero vertices are pruned with a warning; the generated inputs
# have some, and the warning is not part of any checked output.
warnings.filterwarnings("ignore", message=r"pruned \d+ isolated", category=UserWarning)


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- broker96k and corridor_exact: one planning session through the API -----


@dataclass
class SessionInputs:
    text: str  # the serialized exchange graph
    objective: Objective
    config: protocol.RendezvousConfig
    engine: str  # the flow engine ``solve`` must pick by itself


@dataclass
class SessionOutput:
    graph: graph.ExchangeGraph
    result: solver.SolveResult
    certificates: list
    trace: protocol.RendezvousTrace
    policy_text: str
    trace_text: str


def session_op(inp: SessionInputs) -> SessionOutput:
    """Parse the graph file, solve, certify both monologs, run the broker
    session and export the policy and trace files."""
    g = graph.loads_graph(inp.text)
    result = solver.solve(g, inp.objective)
    certificates = [solver.check_ghc(g, inp.objective, side) for side in (1, 2)]
    trace = protocol.run_rendezvous(g, inp.config)
    return SessionOutput(
        g,
        result,
        certificates,
        trace,
        policy.dumps_policy(result.policy),
        protocol.format_trace(trace),
    )


def session_check(inp: SessionInputs, out: SessionOutput) -> list[str]:
    failures = []
    result = out.result
    if not policy.is_admissible(out.graph, result.policy):
        failures.append("optimal policy is not admissible")
    if result.certificate != result.optimal_cost:
        failures.append(f"certificate {result.certificate} != optimal cost {result.optimal_cost}")
    if result.engine != inp.engine:
        failures.append(f"solve picked engine {result.engine!r}, expected {inp.engine!r}")
    for cert in out.certificates:
        if cert.optimal_cost != result.optimal_cost:
            failures.append(f"check_ghc side {cert.side} optimum differs from solve")
        if cert.holds != (cert.monolog_cost == cert.optimal_cost):
            failures.append(f"check_ghc side {cert.side} verdict contradicts its costs")
    trace = out.trace
    sums = {phase: Fraction(0) for phase in ("metadata", "scan", "closure")}
    for m in trace.messages:
        sums[m.phase] += m.size
    totals = {
        "metadata": trace.metadata_bytes,
        "scan": trace.scan_bytes,
        "closure": trace.closure_bytes,
    }
    if sums != totals:
        failures.append(f"trace byte totals {totals} != message sums {sums}")
    if trace.policy != result.policy:
        failures.append("rendezvous executed a different policy than solve returned")
    return failures


def session_digest(inp: SessionInputs, out: SessionOutput) -> str:
    return _sha256([out.policy_text, out.trace_text, format_rational(out.result.optimal_cost)])


def _ground_truth(rng: random.Random, edges, share: Fraction) -> frozenset:
    chosen = rng.sample(edges, max(1, int(len(edges) * share)))
    return frozenset((VertexId(1, u), VertexId(2, v)) for u, v in chosen)


def broker96k_graph(seed: int, n: int = 1000, num_edges: int = 96_000):
    """The acceptance-criterion-7 instance shape: ``n`` + ``n`` vertices,
    ``num_edges`` distinct edges covering every vertex, integer scan sizes
    in [1, 4000]. Seed 4099 reproduces criterion 7 exactly."""
    rng = random.Random(seed)
    edges = set()
    for i in range(n):
        edges.add((i, rng.randrange(n)))
    for j in range(n):
        edges.add((rng.randrange(n), j))
    while len(edges) < num_edges:
        edges.add((rng.randrange(n), rng.randrange(n)))
    w1 = [rng.randint(1, 4000) for _ in range(n)]
    w2 = [rng.randint(1, 4000) for _ in range(n)]
    return graph.build_graph(w1, w2, sorted(edges))


# Denominators with no factor 2 or 5, so no value has a terminating
# decimal and the graph file stores every one of them as a "p/q" string.
_ODD_DENOMINATORS = (3, 7, 9, 11, 13)


def _rational(rng: random.Random, hi: int) -> Fraction:
    den = rng.choice(_ODD_DENOMINATORS)
    num = rng.randint(1, hi)
    while num % 3 == 0 or num % den == 0:
        num = rng.randint(1, hi)
    return Fraction(num, den)


def corridor_graph(seed: int, n: int = 10_000):
    """A long two-robot corridor: pose i of robot 1 faces poses i and i+1
    of robot 2, and i+2 on about a third of the poses (band width 1 to 2).
    Scan sizes and edge costs are non-decimal rationals, and a tenth of
    the side-1 poses carry an inertia price."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in (i, i + 1, i + 2):
            if j < n and (j < i + 2 or rng.random() < 0.3):
                edges.append((i, j, _rational(rng, 9)))
    w1 = [_rational(rng, 4000) for _ in range(n)]
    w2 = [_rational(rng, 4000) for _ in range(n)]
    inertia = {i: _rational(rng, 4000) for i in rng.sample(range(n), n // 10)}
    return graph.build_graph(w1, w2, edges, v1_inertia=inertia)


# P3 with rational weights: the scaled capacity total of the corridor
# exceeds 2**30, which makes ``solve`` choose the big-int Dinic engine.
CORRIDOR_OBJECTIVE = Objective.p3(alpha1=Fraction(2, 3), alpha2=Fraction(5, 7), omega=Fraction(1, 11))


def _session_inputs(g, seed: int, objective: Objective, engine: str) -> SessionInputs:
    rng = random.Random(seed + 1)
    truth = _ground_truth(rng, [(e.u.index, e.v.index) for e in g.edges], Fraction(1, 100))
    config = protocol.RendezvousConfig(objective=objective, ground_truth_closures=truth)
    return SessionInputs(graph.dumps_graph(g), objective, config, engine)


def setup_broker96k(seed: int, workdir: Path, small: bool = False) -> SessionInputs:
    g = broker96k_graph(seed, **({"n": 30, "num_edges": 200} if small else {}))
    return _session_inputs(g, seed, Objective.p2(), "scipy")


def engines_agree(inp: SessionInputs, out: SessionOutput) -> list[str]:
    """The scipy and Dinic engines return the same policy: both read the
    cover off the source-minimal cut, which every maximum flow shares."""
    policies = [solver.solve(out.graph, inp.objective, engine=e).policy for e in ("scipy", "dinic")]
    return [] if policies[0] == policies[1] else ["scipy and dinic engines returned different policies"]


def setup_corridor_exact(seed: int, workdir: Path, small: bool = False) -> SessionInputs:
    g = corridor_graph(seed, **({"n": 60} if small else {}))
    return _session_inputs(g, seed, CORRIDOR_OBJECTIVE, "dinic")


# -- fixture_cli: the two-loop fixture through ``scanplan.cli.main`` ---------


@dataclass
class CliInputs:
    workdir: Path
    commands: list  # (label, argv)


@dataclass
class CliRun:
    label: str
    code: int
    stdout: str
    stderr: str


def appearance_inputs(seed: int, workdir: Path, n: int = 200) -> list[str]:
    """Write an ``n`` x ``n`` score matrix and per-pose feature counts.

    Scores are low (below 0.45) except on a revisit band, where robot 2
    retraces robot 1's path with an index offset; band scores lie in
    [0.55, 0.95], so alpha thresholds between 0.3 and 0.9 cut candidates.
    """
    rng = random.Random(seed)
    offset = rng.randrange(n)
    lines = []
    for u in range(n):
        for v in range(n):
            on_band = abs((v - u - offset + n // 2) % n - n // 2) <= 2
            score = 0.55 + 0.4 * rng.random() if on_band else 0.45 * rng.random()
            lines.append(f"{u} {v} {score:.4f}\n")
    paths = [workdir / "scores.txt", workdir / "features_a1.txt", workdir / "features_a2.txt"]
    paths[0].write_text("".join(lines), encoding="utf-8")
    for path in paths[1:]:
        path.write_text("".join(f"{rng.randint(40, 240)}\n" for _ in range(n)), encoding="utf-8")
    return [str(p) for p in paths]


def setup_fixture_cli(seed: int, workdir: Path, small: bool = False) -> CliInputs:
    scores, fa1, fa2 = appearance_inputs(seed, workdir, n=20 if small else 200)
    poses = [
        f"--{flag}{side}={FIXTURE / f'two_loop_{name}{side}.txt'}"
        for flag, name in (("poses", "poses"), ("features", "features"))
        for side in (1, 2)
    ]
    rate = ["--rate-divisor", "5" if small else "1"]
    graph_path = str(workdir / "graph.json")
    policy_path = str(workdir / "policy.json")
    commands = [
        ("build-graph", ["build-graph", *poses, *rate, "--dmax", "30", "--eta", "0.4", "--out", graph_path]),
        ("sweep-dmax", ["sweep", "--parameter", "dmax", "--start", "2", "--stop", "60", "--step", "2",
                        "--eta", "0", *poses, *rate]),
        ("sweep-alpha", ["sweep", "--parameter", "alpha", "--start", "0.3", "--stop", "0.9",
                         "--step", "0.05", "--scores", scores, "--features1", fa1, "--features2", fa2]),
        ("solve", ["solve", "--graph", graph_path, "--objective", "p2", "--policy-out", policy_path]),
        ("check-monolog-1", ["check-monolog", "--graph", graph_path, "--side", "1"]),
        ("check-monolog-2", ["check-monolog", "--graph", graph_path, "--side", "2"]),
        ("simulate", ["simulate", "--graph", graph_path, "--compare"]),
    ]
    return CliInputs(workdir, commands)


def cli_op(inp: CliInputs) -> list[CliRun]:
    runs = []
    for label, argv in inp.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        runs.append(CliRun(label, code, out.getvalue(), err.getvalue()))
    return runs


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in text.splitlines() if " " in line)


def cli_check(inp: CliInputs, runs: list[CliRun]) -> list[str]:
    failures = [f"{r.label} exited {r.code}: {r.stderr.strip()}" for r in runs if r.code != 0]
    if failures:
        return failures
    by_label = {r.label: r for r in runs}
    for label in ("sweep-dmax", "sweep-alpha"):
        if not re.search(r"^nesting [a-z-]+: ok ", by_label[label].stderr, re.M):
            failures.append(f"{label} nesting report is not ok: {by_label[label].stderr.strip()}")
    optimal = Fraction(_fields(by_label["solve"].stdout)["optimal_cost"])
    g = graph.load_graph(inp.workdir / "graph.json")
    pi = policy.load_policy(inp.workdir / "policy.json")
    if not policy.is_admissible(g, pi):
        failures.append("solve wrote an inadmissible policy")
    if policy.objective_cost(g, pi, Objective.p2()) != optimal:
        failures.append("policy file cost differs from the reported optimum")
    for side in (1, 2):
        fields = _fields(by_label[f"check-monolog-{side}"].stdout)
        if Fraction(fields["optimal_cost"]) != optimal:
            failures.append(f"check-monolog side {side} optimum differs from solve")
        holds = fields["monolog_optimal"] == "yes"
        if holds != (Fraction(fields["monolog_cost"]) == optimal):
            failures.append(f"check-monolog side {side} verdict contradicts its costs")
    rows = {
        line.split(",")[0]: [Fraction(x) for x in line.split(",")[1:]]
        for line in by_label["simulate"].stdout.splitlines()[1:]
    }
    scan = {name: row[0] for name, row in rows.items()}
    if scan.get("optimal") != optimal:
        failures.append("rendezvous optimal scan bytes differ from the optimum")
    elif not scan["optimal"] <= min(scan["monolog1"], scan["monolog2"]):
        failures.append("a monolog beats the optimal strategy")
    elif scan["monolog1"] + scan["monolog2"] != scan["full_bidirectional"]:
        failures.append("monolog byte sums differ from the bidirectional total")
    return failures


def cli_digest(inp: CliInputs, runs: list[CliRun]) -> str:
    """Digest of every command's stdout and the graph and policy files.
    The solve timing line and the work directory's location are left out;
    they differ between runs of identical code."""
    work = str(inp.workdir)
    parts = []
    for r in runs:
        lines = [line for line in r.stdout.splitlines() if not line.startswith("solve_seconds ")]
        parts += [r.label, str(r.code), "\n".join(lines).replace(work, "<work>")]
    for name in ("graph.json", "policy.json"):
        parts.append((inp.workdir / name).read_text(encoding="utf-8"))
    return _sha256(parts)


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, workdir, small) -> inputs
    op: object  # inputs -> outputs
    check: object  # (inputs, outputs) -> list of failure messages
    digest: object  # (inputs, outputs) -> hex digest
    once: object = None  # (inputs, warm-up outputs) -> failures; a set-up check


WORKLOADS = {
    "broker96k": Workload(setup_broker96k, session_op, session_check, session_digest, once=engines_agree),
    "corridor_exact": Workload(setup_corridor_exact, session_op, session_check, session_digest),
    "fixture_cli": Workload(setup_fixture_cli, cli_op, cli_check, cli_digest),
}
