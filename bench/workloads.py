"""The benchmark's workloads: fixed lists of CLI invocations and library
calls, generated from a workload seed.

The seed sets every ``--seed`` value, every random message initialization
and the potentials of generated graph files; the program sees only the
generated argv and files. See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks

WORKLOADS = ("desk", "lattice", "glass")

# End-to-end metric bucket of each operation kind.
KINDS = ("run_sync", "run_residual", "converge", "critical", "bounds",
         "accuracy", "fixed_points", "empirical_critical")


@dataclass
class Op:
    """One closed-loop operation.

    ``argv`` is passed to ``loopybp.cli.main``; a library operation sets
    ``call`` instead, which receives the ``loopybp`` package and returns
    the value its ``check`` inspects. ``trace``/``output`` name files the
    invocation writes. ``label`` identifies the operation independently of
    the work directory, for the recorded-output comparison.
    ``known_defects`` names checks that this operation fails because of a
    documented defect of the program (README.md, "Known defect"): such a
    failure is counted and reported, but does not make the run incorrect.
    """

    kind: str
    label: str
    check: Callable
    argv: Optional[list] = None
    call: Optional[Callable] = None
    trace: Optional[str] = None
    output: Optional[str] = None
    known_defects: tuple = ()


class _Builder:
    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops: list = []

    def seed(self) -> str:
        return str(self.rng.randrange(1 << 16))

    def path(self, stem: str) -> str:
        return os.path.join(self.workdir, f"{len(self.ops):03d}-{stem}")

    def cli(self, kind, argv, check, trace=None, output=None,
            known_defects=()):
        label = " ".join(os.path.basename(a) if a.startswith(self.workdir)
                         else a for a in argv)
        self.ops.append(Op(kind, label, check, argv=argv, trace=trace,
                           output=output, known_defects=known_defects))

    def run(self, graph_args, schedule="sync", init="uniform",
            known_defects=()):
        argv = ["run", *graph_args, "--schedule", schedule, "--init", init]
        if init == "random":
            argv += ["--seed", self.seed()]
        trace = None
        if schedule == "residual":
            trace = self.path("trace.csv")
            argv += ["--trace", trace]
        kind = "run_sync" if schedule == "sync" else "run_residual"
        self.cli(kind, argv, lambda out, files: checks.check_run(
            out, files.get("trace")), trace=trace,
            known_defects=known_defects)

    def converge(self, graph_args, conditions=(), critical=False):
        argv = ["converge", *graph_args]
        for c in conditions:
            argv += ["--condition", c]
        if critical:
            argv.append("--critical")
        self.cli("critical" if critical else "converge", argv,
                 lambda out, files: checks.check_converge(out, critical))

    def bounds(self, graph_args, methods, to_file=False):
        argv = ["bounds", *graph_args, "--methods", methods]
        with_true = methods == "all" or "true" in methods.split(",")
        if with_true:
            argv += ["--seed", self.seed()]
        output = None
        if to_file:
            output = self.path("bounds.csv")
            argv += ["--output", output]
        self.cli("bounds", argv, lambda out, files: checks.check_bounds(
            files["output"] if output else out, with_true), output=output)


NON_SAW = ("uniform", "ihler-uniform", "walksum", "nonuniform-bethe")
ALL_BOUNDS = ",".join(checks.BOUND_COLUMNS)


def _desk(b: _Builder, tiny: bool):
    graphs = ["k4minus"] if tiny else ["complete:4", "k4minus", "grid:3x3",
                                       "torus:3x3"]
    sweep = "0.6:0.7:0.1" if tiny else "0.5:0.95:0.05"
    for g in graphs:
        at07 = ["--generate", g, "--eta", "0.7"]
        at06 = ["--generate", g, "--eta", "0.6"]
        for init in ("uniform", "random"):
            b.run(at07, "sync", init)
            b.run(at07, "residual", init)
        b.converge(at06)
        b.converge(at06, critical=True)
        b.bounds(["--generate", g, "--eta", sweep], "all", to_file=True)
        b.cli("accuracy", ["accuracy", *at06],
              lambda out, files: checks.check_accuracy(out))
    if not tiny:
        b.cli("accuracy", ["accuracy", "--generate", "grid:4x4", "--eta", "0.6"],
              lambda out, files: checks.check_accuracy(out))
    for degree in ((2, 3) if tiny else range(2, 7)):
        for eta in ((0.8,) if tiny else (0.3, 0.6, 0.8)):
            b.cli("fixed_points", ["fixed-points", "--eta", str(eta),
                                   "--degree", str(degree)],
                  lambda out, files, eta=eta, d=degree:
                  checks.check_fixed_points(out, eta, d))
    opts = dict(tol=0.05, runs=4, max_iters=500) if tiny else {}
    for g in graphs[:2]:
        base = int(b.seed())

        def call(lb, g=g, base=base):
            return lb.empirical_critical_eta(lb.build_generator(g, 0.5),
                                             base_seed=base, **opts)

        b.ops.append(Op("empirical_critical",
                        f"empirical_critical_eta {g} base_seed={base}",
                        lambda value, files: checks.check_empirical(
                            value, 0.5, 0.99), call=call))


def _lattice(b: _Builder, tiny: bool):
    for g in (("grid:4x4", "grid:5x5") if tiny
              else ("grid:20x20", "grid:30x30")):
        args = ["--generate", g, "--eta", "0.6"]
        b.bounds(args, ALL_BOUNDS)
        b.converge(args, NON_SAW)
        b.run(args, "sync", "random")
        b.run(args, "residual", "uniform")
        b.run(args, "residual", "random")


# Glass graphs: edge potential entries and node fields are independent
# log-normal draws, so potentials are asymmetric and messages differ per
# edge; about a fifth of the nodes take three states.
GLASS_SIGMA = 0.5
GLASS_FIELD = 0.5
GLASS_THREE_STATE = 0.2
# Twelve 12x12 files rather than a few 20x20 ones: at 20x20 the walksum
# power iteration's step count varies eightfold between seeds (0.15 s to
# 1.2 s), which no affordable number of files averages out.
GLASS_FILES = 12
# On asymmetric potentials the residual scheduler's certified priority is
# exceeded by some pops (README.md, "Known defect"). Glass residual runs
# still check every pop and count each failure in error_rate and
# engine.certificate_violations; any other failed check on them, and a
# certificate failure on any other workload, still makes the run incorrect.
GLASS_KNOWN_DEFECTS = ("residual_certificate",)


def glass_graph_text(rows: int, cols: int, rng: random.Random) -> str:
    n = rows * cols
    cards = [3 if rng.random() < GLASS_THREE_STATE else 2 for _ in range(n)]
    lines = [f"nodes {n}"]
    lines += [f"card {v} {c}" for v, c in enumerate(cards) if c != 2]

    def draws(count, sigma):
        return " ".join(repr(math.exp(rng.gauss(0.0, sigma)))
                        for _ in range(count))

    lines += [f"node {v} {draws(c, GLASS_FIELD)}" for v, c in enumerate(cards)]
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for u in ([v + 1] if c + 1 < cols else []) + \
                     ([v + cols] if r + 1 < rows else []):
                lines.append(f"edge {v} {u} "
                             f"{draws(cards[v] * cards[u], GLASS_SIGMA)}")
    return "\n".join(lines) + "\n"


def _glass(b: _Builder, tiny: bool):
    sizes = [(4, 4), (5, 5)] if tiny else [(12, 12)] * GLASS_FILES
    for rows, cols in sizes:
        path = b.path(f"glass-{rows}x{cols}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(glass_graph_text(rows, cols, b.rng))
        args = ["--graph", path]
        b.run(args, "sync")
        b.run(args, "residual", known_defects=GLASS_KNOWN_DEFECTS)
        b.converge(args, NON_SAW)
        b.bounds(args, "all")


_BUILDERS = {"desk": _desk, "lattice": _lattice, "glass": _glass}


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """The operations of one pass, in order; writes the graph files the
    pass reads into ``workdir``."""
    b = _Builder(seed, workdir)
    _BUILDERS[workload](b, tiny)
    return b.ops


def probe_model(lb, workload: str, ops: list, tiny: bool):
    """The model the stage probes run on: desk's torus, lattice's smaller
    grid (the larger one would make the probes outlast the passes), and
    glass's last file."""
    if workload == "glass":
        return lb.parse_graph_file(ops[-1].argv[2])
    spec = {"desk": "torus:3x3", "lattice": "grid:5x5" if tiny
            else "grid:20x20"}[workload]
    return lb.with_uniform_binary(lb.build_generator(spec, 0.5), 0.6)
