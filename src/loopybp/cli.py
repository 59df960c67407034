"""Command-line front end.

Subcommands wrap the library modules: ``bounds`` sweeps distance bounds to
CSV, ``converge`` evaluates certificates and critical values, ``run``
executes a single message-passing run, ``fixed-points`` and ``accuracy``
print the scalar dynamics and interval tables. Exit codes: 0 success, 2
usage problems (generator specs above the size caps too), 3 graph file or
model problems (potentials the strength measures cannot represent too), 4
enumeration, convergence or memory budget failures. Closed stdout: 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys

from .accuracy import ConvergenceFailure, exact_marginals, saw_accuracy
from .bounds import BOUND_KEYS, bound_report, true_distance
from .convergence import CONDITION_NAMES, critical_eta, evaluate_condition
from .engine import run_residual_scheduled, run_synchronous
from .models import (EnumerationLimitError, GraphFormatError, ModelError,
                     build_generator, parse_graph_file, with_uniform_binary)
from .uniform import _MAX_K, fixed_points, uniform_belief


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises what argparse refuses as UsageError: exit 2, one error line."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _parse_eta_single(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise UsageError("eta must lie strictly between 0 and 1")
    return value


_MAX_ETAS = 10000
_MAX_COUNT = 100000  # cap on a walk depth, recursion length or restart count


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
    for i in itertools.count():
        v = start + i * step
        if v > stop + 1e-12:
            return values
        if len(values) == _MAX_ETAS:
            raise UsageError(f"eta range holds more than {_MAX_ETAS} values")
        values.append(_parse_eta_single(v))


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None


def _bounded(value, low, flag, high=math.inf):
    if value is not None and not low <= value <= high:
        limit = f"at least {low}" if value < low else f"at most {high}"
        raise UsageError(f"{flag} must be {limit}")


def _load_models(args, sweep=False):
    """(etas, models), one per --eta value: file potentials as-is without
    --eta, else the topology re-potentialed at each. --eta is read first, so
    a refused value (a sweep unless ``sweep``) builds nothing."""
    if args.eta is None:
        if args.generate is not None:
            raise UsageError("--generate needs --eta")
        etas = [None]
    elif ":" in args.eta and not sweep:
        raise UsageError("--eta takes one value; only bounds takes a sweep")
    else:
        etas = _parse_eta_range(args.eta)
    if args.graph is not None and args.generate is not None:
        raise UsageError("give either --graph or --generate, not both")
    if args.graph is not None:
        topo = parse_graph_file(args.graph)
    elif args.generate is not None:
        try:
            topo = build_generator(args.generate, 0.5)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        raise UsageError("a graph is required: --graph FILE or --generate KIND")
    return etas, [topo if eta is None else with_uniform_binary(topo, eta)
                  for eta in etas]


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
    _bounded(args.nudb_iters, 1, "--nudb-iters", _MAX_COUNT)
    _bounded(args.seed, 0, "--seed")
    if "true_distance" in methods:
        _bounded(args.true_runs, 2, "--true-runs", _MAX_COUNT)
    etas, models = _load_models(args, sweep=True)
    columns = [c for c in _BOUND_COLUMNS if c in methods]
    # One restart batch for the whole sweep: every eta shares the topology.
    truths = (true_distance(models, seeds=args.seed, runs=args.true_runs)
              if "true_distance" in columns else [None] * len(models))
    lines = ["eta,node," + ",".join(columns)]
    for eta, model, truth in zip(etas, models, truths):
        report = (bound_report(model, n=args.nudb_iters)
                  if columns != ["true_distance"] else None)
        for v in range(model.num_nodes):
            cells = [_fmt(eta) if eta is not None else "nan", str(v)]
            for c in columns:
                if c == "true_distance":
                    cells.append("nan" if truth is None else _fmt(truth[v]))
                else:
                    cells.append(_fmt(report.node_bounds[c][v]))
            lines.append(",".join(cells))
    _write_csv(lines, args.output)
    return 0


def _write_csv(lines, path=None) -> None:
    """The rows as one text, written at once to ``path`` or stdout."""
    text = "\n".join(lines) + "\n"
    if path is None:
        print(text, end="")  # nothing if stdout was closed at start
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _fmt_witness(witness) -> str:
    if witness is None:
        return ""
    if isinstance(witness, tuple):
        return f"{witness[0]}->{witness[1]}"
    return str(witness)


def cmd_converge(args) -> int:
    _bounded(args.depth, 1, "--depth", _MAX_COUNT)
    if not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    _, [model] = _load_models(args)
    conditions = args.condition or list(CONDITION_NAMES)
    N = args.depth if args.depth is not None else 2 * model.num_nodes
    # Every value before any output, so a failure leaves stdout empty.
    verdicts = [evaluate_condition(model, c, N=N) for c in conditions]
    criticals = ([critical_eta(model, c, tol=args.tol, N=N)
                  for c in conditions] if args.critical else [])
    print("condition,statistic,threshold,holds,witness")
    for v in verdicts:
        print(f"{v.condition},{_fmt(v.statistic)},{_fmt(v.threshold)},"
              f"{str(v.holds).lower()},{_fmt_witness(v.witness)}")
    if args.critical:
        print()
        print("condition,critical_eta")
        for c, eta in zip(conditions, criticals):
            print(f"{c},{_fmt(eta)}")
    return 0


def cmd_run(args) -> int:
    if args.trace is not None and args.schedule != "residual":
        raise UsageError("--trace needs --schedule residual")
    _bounded(args.max_iters, 1, "--max-iters")
    _bounded(args.max_updates, 1, "--max-updates")
    _bounded(args.seed, 0, "--seed")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be finite and positive")
    _, [model] = _load_models(args)
    if args.schedule == "sync":
        result = run_synchronous(model, init=args.init,
                                 max_iters=args.max_iters,
                                 tol=args.tol if args.tol is not None else 1e-10,
                                 seed=args.seed)
    else:
        result, trace = run_residual_scheduled(
            model, max_updates=args.max_updates,
            tol=args.tol if args.tol is not None else 1e-9,
            init=args.init, seed=args.seed)
    if args.trace is not None:
        with open(args.trace, "w", newline="\n") as fh:
            trace.write_csv(fh)
    period = "" if result.period is None else result.period
    _write_csv(["status,iterations,period",
                f"{result.status},{result.iterations},{period}",
                "node,state,belief"]
               + [f"{v},{x},{_fmt(p)}" for v, belief in enumerate(result.beliefs)
                  for x, p in enumerate(belief.tolist())])
    return 0


def cmd_fixed_points(args) -> int:
    _bounded(args.degree, 2, "--degree", _MAX_K + 1)
    eta = _parse_eta_single(_parse_float(args.eta))
    try:
        fp = fixed_points(eta, 1.0 - eta, args.degree - 1)
    except ValueError as exc:  # a potential entry below the normal floats
        raise UsageError(str(exc)) from None
    print(f"regime,{fp.regime}")
    print(f"slope_at_half,{_fmt(fp.slope_at_half)}")
    print("kind,x,stable,belief")
    for x, stable in zip(fp.fixed, fp.stability):
        print(f"fixed,{_fmt(x)},{str(stable).lower()},"
              f"{_fmt(uniform_belief(x, args.degree))}")
    for q in fp.quasi:
        print(f"quasi,{_fmt(q)},,{_fmt(uniform_belief(q, args.degree))}")
    return 0


def cmd_accuracy(args) -> int:
    _, [model] = _load_models(args)
    if args.node is not None and not 0 <= args.node < model.num_nodes:
        raise UsageError(f"node {args.node} out of range")
    exact = exact_marginals(model)
    nodes = [args.node] if args.node is not None else range(model.num_nodes)
    bounds = [saw_accuracy(model, s) for s in nodes]  # any failure first
    _write_csv(["node,state,belief,exact,lower,upper"]
               + [f"{s},{x},{_fmt(bound.belief[x])},{_fmt(exact[s][x])},"
                  f"{_fmt(bound.lower[x])},{_fmt(bound.upper[x])}"
                  for s, bound in zip(nodes, bounds)
                  for x in range(model.cards[s])])
    return 0


# -- parser ----------------------------------------------------------------


def _add_graph_args(sub):
    sub.add_argument("--graph", help="graph description file")
    sub.add_argument("--generate",
                     help="generator spec, e.g. complete:4, grid:3x3, "
                          "torus:3x3, cycle:5, chain:6, k4minus, tree:8:1")
    sub.add_argument("--eta",
                     help="symmetric binary potential strength; bounds also "
                          "takes a sweep start:stop:step")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loopybp",
        description="sum-product message passing with distance bounds and "
                    "convergence certificates")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="distance-bound sweep as CSV")
    _add_graph_args(p)
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
    p.add_argument("--eta", required=True)
    p.add_argument("--degree", type=int, required=True,
                   help="node degree, so degree - 1 incoming messages")
    p.set_defaults(func=cmd_fixed_points)

    p = subs.add_parser("accuracy", help="belief accuracy intervals")
    _add_graph_args(p)
    p.add_argument("--node", type=int, default=None,
                   help="restrict to one node (default: all)")
    p.set_defaults(func=cmd_accuracy)
    return parser


# Built on the first main call; parse_args keeps no state between calls.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        print(end="", flush=True)  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left early: drop what is buffered
        if sys.stdout is not None and sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EnumerationLimitError, ConvergenceFailure, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
