"""loopybp benchmark.

Replays a workload's fixed list of CLI invocations in-process through
``loopybp.cli.main(argv)`` with stdout captured, plus a few library calls,
as a closed loop: one client, one thread, each call issued after the
previous one returns. Every output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload desk --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes, scaled to
the nominal host speed by cold imports of numpy; ``--trace 1``
reports per-module metrics from traced passes and stage probes. See
bench/README.md for the workloads and metrics.
"""

import os
import sys

# One thread for every numeric library; must be set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

# Set in the environment of the re-executed process; see fixed_layout().
LAYOUT_ENV = "LOOPYBP_BENCH_FIXED_LAYOUT"
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Re-execute this script once with address-space randomization turned
    off for this process and its children (the Linux personality flag that
    ``setarch -R`` sets), so every run gets the same memory layout.

    With randomization on, the fastest time of one small operation (a
    ``converge`` on torus:3x3) fell near 27 ms in some processes and near
    43 ms in others, and a cold import varied as much; with it off, each
    process showed the same times. Where the flag cannot be set, the run
    goes on with randomization, as before.
    """
    if os.environ.get(LAYOUT_ENV) or not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1 \
                or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
            return
    except (OSError, AttributeError):
        return
    os.environ[LAYOUT_ENV] = "1"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    fixed_layout()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
SPANS = ROOT / ".bench_spans"
DEFAULT_SEED = 0
# Cold imports of the CLI per run, spread evenly over the run, each paired
# with a host-reference sample taken just before it.
SETUP_SAMPLES = 10
# The host-speed reference: a cold import of numpy, which the program does
# not change, timed at the start of every round of a run and otherwise
# every REF_EVERY_S seconds. REF_NOMINAL_S is
# its fastest time on the 2-core x86-64 VM the benchmark was calibrated on
# (Python 3.11, numpy 2.4); it sets only the scale of the reported times.
REF_MODULE = "numpy"
REF_EVERY_S = 3.0
REF_NOMINAL_S = 0.055
MAX_FAIL_LINES = 40
# Operations faster than this are issued in every round of a run.
LIGHT_S = 1.0
# In a round, a light operation is issued again, back to back, until its
# samples there add up to this: a few milliseconds is too short to ride
# out a second in which the core runs slow, and a few dozen samples are not.
BURST_S = 0.05

# cold import of a module in a fresh interpreter; prints seconds
_IMPORT_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
                "t = time.perf_counter(); import {module}; "
                "print(repr(time.perf_counter() - t))")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest graphs, for the benchmark's own tests")
    p.add_argument("--record-golden", action="store_true",
                   help="write this workload's outputs at the default seed "
                        "to bench/golden/ instead of comparing them")
    return p.parse_args(argv)


# -- environment -----------------------------------------------------------


def _git_rev():
    """HEAD of the checkout if it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "loopybp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, load_at_start) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "fixed_layout": os.environ.get(LAYOUT_ENV) == "1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cold_import(module: str) -> float:
    """Seconds of one cold ``import module`` in a fresh interpreter."""
    code = _IMPORT_CODE.format(src=str(SRC), module=module)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# -- one pass --------------------------------------------------------------


class Outcome:
    __slots__ = ("seconds", "rc", "stdout", "stderr", "value")


def execute(lb, op) -> Outcome:
    """Run one operation with stdout and stderr captured."""
    res = Outcome()
    out, err = io.StringIO(), io.StringIO()
    res.value = None
    # Garbage left by earlier operations is collected outside the timed
    # region, so neither its collection nor its memory lands on this one.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.call is not None:
                res.value = op.call(lb)
                res.rc = 0
            else:
                res.rc = lb.cli.main(op.argv)
    except SystemExit as exc:
        res.rc = exc.code
    except Exception as exc:  # a traceback is an operation failure
        res.rc = f"{type(exc).__name__}: {exc}"
    res.seconds = time.perf_counter() - start
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    return res


def _read(path):
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError:
        return None


def _digest(text):
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def recorded_outputs(op, res, files) -> dict:
    main = repr(res.value) if op.call is not None else res.stdout
    return {"stdout": _digest(main), "trace": _digest(files["trace"]),
            "output": _digest(files["output"])}


def check(op, res, golden) -> list:
    """Failures of one operation as (check_name, detail) pairs."""
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return [("exit_code", f"expected 0, got {res.rc!r} {tail[0]}")]
    files = {"trace": _read(op.trace), "output": _read(op.output)}
    try:
        fails = list(op.check(res.value if op.call is not None
                              else res.stdout, files))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        fails = [("output_parse", f"{type(exc).__name__}: {exc}")]
    if golden is not None:
        label, want = golden
        got = recorded_outputs(op, res, files)
        if label != op.label:
            fails.append(("recorded_output", f"op is {op.label!r}, "
                                             f"recording has {label!r}"))
        else:
            for key, digest in want.items():
                if got[key] != digest:
                    fails.append(("recorded_output", f"{key} differs"))
    return fails


class Tally:
    """Attempted and failed operations, with each failed check by name.

    ``failed`` counts operations with a failed check other than their
    documented known defects; ``known`` counts those whose only failures
    are known defects. Both count towards ``error_rate``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.by_check: dict = {}
        self._first: dict = {}  # (tag, check, op label) -> [detail, count]

    def add(self, op, fails):
        self.attempted += 1
        if not fails:
            return
        if all(name in op.known_defects for name, _ in fails):
            self.known += 1
        else:
            self.failed += 1
        for name, detail in fails:
            self.by_check[name] = self.by_check.get(name, 0) + 1
            tag = "KNOWN" if name in op.known_defects else "FAIL"
            key = (tag, name, op.label)
            if key in self._first:
                self._first[key][1] += 1
            elif len(self._first) < MAX_FAIL_LINES:
                self._first[key] = [detail, 1]

    @property
    def error_rate(self) -> float:
        return (self.failed + self.known) / self.attempted

    @property
    def lines(self) -> list:
        return [f"{tag} check={name} op=[{label}] times={count} {detail}"
                for (tag, name, label), (detail, count)
                in self._first.items()]


def run_round(lb, ops, indices, tally, golden, tracer=None):
    """Issue the operations at ``indices`` in turn, then check their
    outputs (before a later round overwrites the files they wrote). With a
    tracer, the issuing is recorded under one ``bench.pass`` span.

    Returns the seconds each one took.
    """
    if tracer is not None:
        tracer.spans = []
        root = tracer.open("bench.pass")
    results = [execute(lb, ops[i]) for i in indices]
    if tracer is not None:
        tracer.close(root)
    for i, res in zip(indices, results):
        tally.add(ops[i], check(ops[i], res, golden[i] if golden else None))
    return [res.seconds for res in results]


def sample(lb, ops, tally, golden, seconds):
    """Per-operation time samples, cold-import samples and host-reference
    samples taken over ``seconds``.

    One full pass first; then rounds, each issuing every light operation
    (under LIGHT_S in the pass), in a burst of BURST_S, and the next heavy
    one in turn, until the next operation would end after ``seconds``.
    Light operations so get samples at many points of the run, and a heavy
    one gets a sample every few rounds. Before an operation, the host
    reference is timed whenever REF_EVERY_S have passed since its last
    sample, and a cold import of the CLI, right after a reference sample,
    whenever the run has passed the next of SETUP_SAMPLES evenly spaced
    points, so set-up is sampled across the run too.

    Each operation sample is kept with the latest reference sample, taken
    at the start of its round or at most REF_EVERY_S before it.

    Returns the (seconds, reference) samples per operation, the
    (reference, set-up) pairs and every reference sample.
    """
    start = time.perf_counter()
    samples = [[] for _ in ops]
    setup, ref = [], []
    last_ref = -math.inf

    def issue(i, burst):
        nonlocal last_ref
        spent = 0.0
        while True:
            now = time.perf_counter() - start
            if len(setup) < SETUP_SAMPLES \
                    and now >= len(setup) * seconds / SETUP_SAMPLES:
                ref.append(cold_import(REF_MODULE))
                setup.append((ref[-1], cold_import("loopybp.cli")))
                last_ref = now
            if now - last_ref >= REF_EVERY_S:
                ref.append(cold_import(REF_MODULE))
                last_ref = now
            t = run_round(lb, ops, [i], tally, golden)[0]
            samples[i].append((t, ref[-1]))
            spent += t
            if spent > burst:
                return

    every = list(range(len(ops)))
    for i in every:
        issue(i, 0.0)
    first = [samples[i][0][0] for i in every]
    light = [i for i in every if first[i] < LIGHT_S]
    heavy = [i for i in every if first[i] >= LIGHT_S]
    for turn in itertools.count():
        last_ref = -math.inf
        for i in light + ([heavy[turn % len(heavy)]] if heavy else []):
            if time.perf_counter() - start + max(first[i], BURST_S) \
                    > seconds:
                return samples, setup, ref
            issue(i, BURST_S if i in light else 0.0)


# -- metrics ---------------------------------------------------------------


def end_to_end(ops, times) -> dict:
    """One pass's time, in total and per kind of operation, as the sum of
    the given time of each of its operations."""
    m = {"total_s": (sum(times), "s")}
    for kind in workloads.KINDS:
        of_kind = [t for t, op in zip(times, ops) if op.kind == kind]
        if of_kind:
            m[f"{kind}_s"] = (sum(of_kind), "s")
    return m


def _timed(fn, repeats=3):
    """Fastest of ``repeats`` timed calls, as for the operations."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def stage_probes(lb, model) -> dict:
    """The ROADMAP's seven stages, each timed through public calls alone."""
    strengths = lb.compute_strengths(model)
    n_dir = model.num_directed
    # Sweeps and pops are timed as differences of two calls, so enough of
    # them that their cost stands well above the timing noise of the calls'
    # set-up. The solve is a difference too, and can read slightly below 0
    # where it costs less than that noise.
    sweeps, pops = 20, max(1000, 2 * n_dir)
    structure = _timed(lambda: lb.nonuniform_distance_bound(
        model, strengths, n=1), repeats=5)
    solved = _timed(lambda: lb.nonuniform_distance_bound(
        model, strengths, improved=True), repeats=5)

    def sync(iters):
        return lambda: lb.run_synchronous(model, init="random", seed=0,
                                          max_iters=iters, tol=0.0)

    def residual(updates):
        return lambda: lb.run_residual_scheduled(
            model, max_updates=updates, tol=0.0, init="random", seed=0,
            strengths=strengths)

    m = {
        "stage.strengths_ms": (
            _timed(lambda: lb.compute_strengths(model)) * 1e3, "ms"),
        "bounds.structure_s": (structure, "s"),
        "bounds.solve_s": (solved - structure, "s"),
        "stage.sweep_us": ((_timed(sync(1 + sweeps)) - _timed(sync(1)))
                           / sweeps * 1e6, "us"),
        "stage.pop_us": ((_timed(residual(n_dir + pops))
                          - _timed(residual(n_dir))) / pops * 1e6, "us"),
    }
    for cond in ("uniform", "ihler-uniform", "walksum", "nonuniform-bethe"):
        key = cond.replace("nonuniform-", "").replace("-", "_")
        m[f"stage.cert_{key}_ms"] = (_timed(lambda: lb.evaluate_condition(
            model, cond, strengths)) * 1e3, "ms")
    probe = lb.with_uniform_binary(model, 0.6)
    m["stage.bisection_probe_ms"] = (_timed(lambda: lb.evaluate_condition(
        lb.with_uniform_binary(model, 0.6), "walksum").holds) * 1e3, "ms")
    m["stage.empirical_probe_ms"] = (_timed(
        lambda: lb.empirical_convergent(probe), repeats=1) * 1e3, "ms")
    return m


def _median_metrics(per_pass: list) -> dict:
    out = {}
    for name, (_, unit) in per_pass[0].items():
        vals = [m[name][0] for m in per_pass if m[name][0] is not None]
        out[name] = (statistics.median(vals) if vals else None, unit)
    return out


def per_layer(lb, args, ops, tally, golden):
    """Untraced and traced full passes in turn while another pair fits in
    ``--seconds`` (at least one pair), then the stage probes."""
    tracer = tracing.Tracer()
    plan = list(range(len(ops)))
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_round(lb, ops, plan, tally, golden))
        tracer.install()
        try:
            times = run_round(lb, ops, plan, tally, golden, tracer)
        finally:
            tracer.uninstall()
        traced.append((times, tracer.spans))
        used = time.perf_counter() - start
        if used * (len(traced) + 1) / len(traced) > args.seconds:
            break
    metrics = _median_metrics([tracing.pass_metrics(
        spans, checks.USEFUL_RESIDUAL) for _, spans in traced])

    def best_total(passes):
        return end_to_end(ops, [min(ts) for ts in zip(*passes)])[
            "total_s"][0]

    metrics["trace.overhead_ratio"] = (
        best_total([t for t, _ in traced]) / best_total(untraced) - 1.0,
        "ratio")
    times, spans = traced[len(traced) // 2]
    selfs = tracing.module_self(spans)
    pass_s = sum(selfs.values())
    # Library spans over the operations' timed wall time; the harness's own
    # work between operations (checks, garbage collection) is left out.
    metrics["trace.accounted_share"] = (
        (pass_s - selfs.get("bench", 0.0)) / sum(times), "ratio")
    print(f"self time by module over one traced pass of {pass_s:.4f} s:")
    for mod, sec in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {mod:<12} {sec:10.4f} s {100.0 * sec / pass_s:6.2f} %")
    write_spans(args, [spans for _, spans in traced])
    model = workloads.probe_model(lb, args.workload, ops, args.tiny)
    metrics.update(stage_probes(lb, model))
    return metrics


def write_spans(args, passes):
    """Dump every traced pass's spans as [name, start, end, parent index],
    times in seconds from the pass's start."""
    path = SPANS / f"{args.workload}-seed{args.seed}.json"
    SPANS.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[[name, start - spans[0][1], end - spans[0][1], parent]
                    for name, start, end, parent, _ in spans]
                   for spans in passes], fh)
    print(f"spans of {len(passes)} traced pass(es) written to "
          f"{path.relative_to(ROOT)}")


# -- main ------------------------------------------------------------------


def _load_golden(workload):
    path = GOLDEN / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return [tuple(x) for x in json.load(fh)]


def _json_value(v):
    return v if isinstance(v, int) else float(v)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "loopybp" / "__init__.py").is_file():
        print(f"error: no loopybp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    lb = importlib.import_module("loopybp")
    importlib.import_module("loopybp.cli")
    print("env " + json.dumps(environment(args, load_at_start)))

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, args.tiny)
        tally = Tally()
        if args.record_golden:
            return record_golden(lb, args, ops, tally)
        golden = None
        if args.seed == DEFAULT_SEED and not args.tiny:
            golden = _load_golden(args.workload)
            if len(golden) != len(ops):
                print("error: recorded outputs do not match the workload",
                      file=sys.stderr)
                return 2
        if args.trace:
            metrics = per_layer(lb, args, ops, tally, golden)
        else:
            samples, setup, ref = sample(lb, ops, tally, golden,
                                         args.seconds)
            # Times at the nominal host speed: the median over an
            # operation's samples (or set-up's) of each sample divided by
            # the reference sample taken with it, times REF_NOMINAL_S.
            metrics = {"setup_s": (statistics.median(
                s / r for r, s in setup) * REF_NOMINAL_S, "s")}
            metrics.update(end_to_end(ops, [statistics.median(
                t / r for t, r in ts) * REF_NOMINAL_S for ts in samples]))
            wall = {"setup_s": (statistics.median(s for _, s in setup), "s")}
            wall.update(end_to_end(
                ops, [min(t for t, _ in ts) for ts in samples]))
            metrics.update({f"wall.{k}": m for k, m in wall.items()})
            slowdown = min(ref) / REF_NOMINAL_S
            metrics["host.slowdown"] = (slowdown, "ratio")
            metrics["peak_rss_mb"] = (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["error_rate"] = (tally.error_rate, "ratio")
    metrics["known_defect_ops"] = (tally.known, "count")
    for line in tally.lines:
        print(line)
    for name, count in sorted(tally.by_check.items()):
        print(f"failed check {name}: {count}")
    for name, (value, unit) in metrics.items():
        shown = "n/a (layer not run)" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {unit}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": _json_value(
                  metrics[m["name"]][0]), "unit": m["unit"]}
                  for m in wanted}}
    print(json.dumps(result))
    return 0


def record_golden(lb, args, ops, tally) -> int:
    if args.seed != DEFAULT_SEED or args.tiny:
        print("error: recordings are made at the default seed and size",
              file=sys.stderr)
        return 2
    results = [execute(lb, op) for op in ops]
    recording = []
    for op, res in zip(ops, results):
        fails = check(op, res, None)
        tally.add(op, fails)
        files = {"trace": _read(op.trace), "output": _read(op.output)}
        recording.append([op.label, recorded_outputs(op, res, files)])
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recording, fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(recording)} operations to {path}; "
          f"{tally.failed} failed their checks, {tally.known} only known "
          f"defects")
    for line in tally.lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
