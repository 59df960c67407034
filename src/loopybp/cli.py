"""Command-line front end.

Subcommands wrap the library modules: ``bounds`` sweeps distance bounds to
CSV, ``converge`` evaluates certificates and critical values, ``run``
executes a single message-passing run, ``fixed-points`` and ``accuracy``
print the scalar dynamics and interval tables. Exit codes: 0 success, 2
usage problems, 3 graph file or model problems (including potentials the
strength measures cannot represent), 4 enumeration or convergence budget
failures.
"""

from __future__ import annotations

import argparse
import math
import sys

from .accuracy import (ConvergenceFailure, EnumerationLimitError,
                       exact_marginals, saw_accuracy)
from .bounds import BOUND_KEYS, bound_report, true_distance
from .convergence import CONDITION_NAMES, critical_eta, evaluate_condition
from .engine import run_residual_scheduled, run_synchronous
from .models import (GraphFormatError, ModelError, build_generator,
                     compute_strengths, parse_graph_file, with_uniform_binary)
from .uniform import fixed_points, uniform_belief


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _parse_eta_single(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise UsageError("eta must lie strictly between 0 and 1")
    return value


_MAX_ETAS = 10000


def _parse_eta_range(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) == 1:
        return [_parse_eta_single(_parse_float(parts[0]))]
    if len(parts) != 3:
        raise UsageError("eta must be a value or start:stop:step")
    start, stop, step = (_parse_float(p) for p in parts)
    if step <= 0.0:
        raise UsageError("eta step must be positive")
    if not start < stop:
        raise UsageError("eta start must be below stop")
    values = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12:
            break
        if len(values) == _MAX_ETAS:
            raise UsageError(f"eta range holds more than {_MAX_ETAS} values")
        values.append(_parse_eta_single(v))
        i += 1
    return values


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None


def _at_least(value, low, flag):
    if value is not None and value < low:
        raise UsageError(f"{flag} must be at least {low}")


def _load_topology(args):
    if args.graph is not None and args.generate is not None:
        raise UsageError("give either --graph or --generate, not both")
    if args.graph is not None:
        return parse_graph_file(args.graph)
    if args.generate is not None:
        try:
            return build_generator(args.generate, 0.5)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("a graph is required: --graph FILE or --generate KIND")


def _load_model(args):
    """Topology plus potentials: file potentials as-is unless --eta is set,
    generators always re-potentialed at --eta."""
    topo = _load_topology(args)
    eta = getattr(args, "eta", None)
    if args.generate is not None and eta is None:
        raise UsageError("--generate needs --eta")
    if eta is not None:
        return with_uniform_binary(topo, _parse_eta_single(eta))
    return topo


# -- subcommands -----------------------------------------------------------

_BOUND_COLUMNS = ("true_distance",) + BOUND_KEYS


def _parse_methods(spec: str) -> list:
    tokens = [t for t in (s.strip() for s in spec.split(",")) if t]
    if not tokens:
        raise UsageError("methods list is empty")
    if tokens == ["all"]:
        return list(_BOUND_COLUMNS)
    valid = set(_BOUND_COLUMNS) | {"true"}
    for t in tokens:
        if t not in valid:
            raise UsageError(f"unknown method {t!r}")
    return ["true_distance" if t == "true" else t for t in tokens]


def cmd_bounds(args) -> int:
    methods = _parse_methods(args.methods)
    _at_least(args.nudb_iters, 1, "--nudb-iters")
    _at_least(args.seed, 0, "--seed")
    if "true_distance" in methods:
        _at_least(args.true_runs, 2, "--true-runs")
    topo = _load_topology(args)
    if args.eta is not None:
        etas = _parse_eta_range(args.eta)
    elif args.generate is not None:
        raise UsageError("--generate needs --eta")
    else:
        etas = [None]

    columns = [c for c in _BOUND_COLUMNS if c in methods]
    models = [topo if eta is None else with_uniform_binary(topo, eta)
              for eta in etas]
    # One restart batch for the whole sweep: every eta shares the topology.
    truths = (true_distance(models, seeds=args.seed, runs=args.true_runs)
              if "true_distance" in columns else [None] * len(models))
    lines = ["eta,node," + ",".join(columns)]
    for eta, model, truth in zip(etas, models, truths):
        report = bound_report(model, n=args.nudb_iters)
        for v in range(model.num_nodes):
            cells = [_fmt(eta) if eta is not None else "nan", str(v)]
            for c in columns:
                if c == "true_distance":
                    cells.append("nan" if truth is None else _fmt(truth[v]))
                else:
                    cells.append(_fmt(report.node_bounds[c][v]))
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    return 0


def _fmt_witness(witness) -> str:
    if witness is None:
        return ""
    if isinstance(witness, tuple):
        return f"{witness[0]}->{witness[1]}"
    return str(witness)


def cmd_converge(args) -> int:
    _at_least(args.depth, 1, "--depth")
    if not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    model = _load_model(args)
    conditions = args.condition or list(CONDITION_NAMES)
    strengths = compute_strengths(model)
    N = args.depth if args.depth is not None else 2 * model.num_nodes
    print("condition,statistic,threshold,holds,witness")
    for c in conditions:
        v = evaluate_condition(model, c, strengths, N=N)
        print(f"{v.condition},{_fmt(v.statistic)},{_fmt(v.threshold)},"
              f"{str(v.holds).lower()},{_fmt_witness(v.witness)}")
    if args.critical:
        print()
        print("condition,critical_eta")
        for c in conditions:
            print(f"{c},{_fmt(critical_eta(model, c, tol=args.tol, N=N))}")
    return 0


def cmd_run(args) -> int:
    _at_least(args.max_iters, 1, "--max-iters")
    _at_least(args.max_updates, 1, "--max-updates")
    _at_least(args.seed, 0, "--seed")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    model = _load_model(args)
    if args.schedule == "sync":
        result = run_synchronous(model, init=args.init,
                                 max_iters=args.max_iters,
                                 tol=args.tol if args.tol is not None else 1e-10,
                                 seed=args.seed)
        trace = None
    else:
        result, trace = run_residual_scheduled(
            model, max_updates=args.max_updates,
            tol=args.tol if args.tol is not None else 1e-9,
            init=args.init, seed=args.seed)
    if args.trace is not None:
        if trace is None:
            raise UsageError("--trace needs --schedule residual")
        with open(args.trace, "w", newline="\n") as fh:
            trace.write_csv(fh)
    print("status,iterations,period")
    print(f"{result.status},{result.iterations},"
          f"{'' if result.period is None else result.period}")
    print("node,state,belief")
    for v, belief in enumerate(result.beliefs):
        for x, p in enumerate(belief):
            print(f"{v},{x},{_fmt(p)}")
    return 0


def cmd_fixed_points(args) -> int:
    if (args.degree is None) == (args.k is None):
        raise UsageError("give exactly one of --degree or --k")
    k = args.k if args.k is not None else args.degree - 1
    if k < 1:
        raise UsageError("degree must be at least 2")
    eta = _parse_eta_single(args.eta)
    fp = fixed_points(eta, 1.0 - eta, k)
    degree = k + 1
    print(f"regime,{fp.regime}")
    print(f"slope_at_half,{_fmt(fp.slope_at_half)}")
    print("kind,x,stable,belief")
    for x, stable in zip(fp.fixed, fp.stability):
        print(f"fixed,{_fmt(x)},{str(stable).lower()},"
              f"{_fmt(uniform_belief(x, degree))}")
    for q in fp.quasi:
        print(f"quasi,{_fmt(q)},,{_fmt(uniform_belief(q, degree))}")
    return 0


def cmd_accuracy(args) -> int:
    model = _load_model(args)
    if args.node is not None and not 0 <= args.node < model.num_nodes:
        raise UsageError(f"node {args.node} out of range")
    exact = exact_marginals(model)
    nodes = [args.node] if args.node is not None else range(model.num_nodes)
    print("node,state,belief,exact,lower,upper")
    for s in nodes:
        bound = saw_accuracy(model, s)
        for x in range(model.cards[s]):
            print(f"{s},{x},{_fmt(bound.belief[x])},{_fmt(exact[s][x])},"
                  f"{_fmt(bound.lower[x])},{_fmt(bound.upper[x])}")
    return 0


# -- parser ----------------------------------------------------------------


def _add_graph_args(sub, eta_kind="float"):
    sub.add_argument("--graph", help="graph description file")
    sub.add_argument("--generate",
                     help="generator spec, e.g. complete:4, grid:3x3, "
                          "torus:3x3, cycle:5, chain:6, k4minus, tree:8:1")
    if eta_kind == "float":
        sub.add_argument("--eta", type=float,
                         help="symmetric binary potential strength")
    else:
        sub.add_argument("--eta",
                         help="eta value or sweep start:stop:step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopybp",
        description="sum-product message passing with distance bounds and "
                    "convergence certificates")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="distance-bound sweep as CSV")
    _add_graph_args(p, eta_kind="range")
    p.add_argument("--methods", default="all",
                   help="comma list from true,udb,improved_udb,ihler_udb,"
                        "nudb,improved_nudb,ihler_nudb (default all)")
    p.add_argument("--nudb-iters", type=int, default=None,
                   help="recursion steps for the per-edge bounds "
                        "(default: run to the fixed point)")
    p.add_argument("--true-runs", type=int, default=12,
                   help="random restarts behind true_distance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("converge", help="certificate verdicts")
    _add_graph_args(p)
    p.add_argument("--condition", action="append", choices=CONDITION_NAMES,
                   help="certificate to evaluate (repeatable; default all)")
    p.add_argument("--depth", type=int, default=None,
                   help="walk depth N for the bethe condition "
                        "(default 2x node count)")
    p.add_argument("--critical", action="store_true",
                   help="also bisect the critical eta per condition")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="bisection tolerance for --critical, positive")
    p.set_defaults(func=cmd_converge)

    p = subs.add_parser("run", help="execute one message-passing run")
    _add_graph_args(p)
    p.add_argument("--schedule", choices=("sync", "residual"),
                   default="sync")
    p.add_argument("--init", choices=("uniform", "random"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=2000,
                   help="sweep budget for --schedule sync")
    p.add_argument("--max-updates", type=int, default=20000,
                   help="update budget for --schedule residual")
    p.add_argument("--tol", type=float, default=None,
                   help="stopping tolerance, positive")
    p.add_argument("--trace", help="write the residual pop log as CSV here")
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("fixed-points", help="scalar fixed-point table")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--degree", type=int, help="node degree (k = degree - 1)")
    p.add_argument("--k", type=int, help="incoming message count")
    p.set_defaults(func=cmd_fixed_points)

    p = subs.add_parser("accuracy", help="belief accuracy intervals")
    _add_graph_args(p)
    p.add_argument("--node", type=int, default=None,
                   help="restrict to one node (default: all)")
    p.set_defaults(func=cmd_accuracy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EnumerationLimitError, ConvergenceFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
