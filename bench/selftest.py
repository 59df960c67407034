"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

Tiny-size runs of every workload must print every named metric with its
unit; negative controls show that one corrupted output, one residual trace
line whose residual exceeds its priority, or one byte off a recorded output
each fail their operation and so raise the error rate. On glass, whose
residual runs show a documented known defect, a certificate failure raises
the error rate without failing the run, and any other failure still fails
it.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics each workload reports beyond the BENCHMARK.json lists, by the
# names the documentation uses. The traced run's differences of two timings
# and its zero-on-some-workloads counter are printed on every workload.
TRACED_ALL = ["engine.certificate_violations", "bounds.solve_s",
              "trace.overhead_ratio", "stage.sweep_us", "stage.pop_us",
              "error_rate", "known_defect_ops"]
WALL = ["host.slowdown", "wall.setup_s", "wall.total_s", "error_rate",
        "known_defect_ops"]
REPORT_ONLY = {
    0: {"desk": WALL + ["critical_s", "accuracy_s", "fixed_points_s",
                        "empirical_critical_s", "wall.critical_s"],
        "lattice": WALL, "glass": WALL},
    1: {"desk": TRACED_ALL + [
                 "models.generate_s", "engine.empirical_critical_s",
                 "engine.empirical_probes", "engine.empirical_probe_ms",
                 "bounds.true_distance_s", "convergence.saw_s",
                 "convergence.critical_probes", "convergence.probe_ms",
                 "trees.saw_tree_s", "trees.saw_tree_nodes",
                 "accuracy.exact_s", "accuracy.saw_accuracy_s",
                 "accuracy.per_node_ms", "uniform.fixed_points_s"],
        "lattice": TRACED_ALL + ["models.generate_s"],
        "glass": TRACED_ALL + ["models.parse_s", "bounds.true_distance_s"]},
}


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = {ln.split()[1]: ln.split()[2:] for ln in lines
              if ln.startswith("metric ")}
    for name in [m["name"] for m in wanted] + REPORT_ONLY[trace][workload]:
        assert name in report, name
        assert report[name][0] != "n/a", name


@pytest.fixture(scope="module")
def desk_pass(tmp_path_factory):
    """Outcomes of one tiny desk pass, run in-process."""
    import loopybp
    import loopybp.cli  # noqa: F401
    workdir = str(tmp_path_factory.mktemp("desk"))
    ops = workloads.build("desk", 5, workdir, tiny=True)
    return loopybp, ops, [run.execute(loopybp, op) for op in ops]


def _error_rate(ops, results, golden=None):
    tally = run.Tally()
    for i, (op, res) in enumerate(zip(ops, results)):
        tally.add(op, run.check(op, res, golden[i] if golden else None))
    return tally.error_rate, tally


def test_clean_pass_has_no_failures(desk_pass):
    _, ops, results = desk_pass
    rate, tally = _error_rate(ops, results)
    assert rate == 0.0, tally.lines


def test_corrupted_output_raises_error_rate(desk_pass):
    _, ops, results = desk_pass
    i = next(k for k, op in enumerate(ops) if op.kind == "accuracy")
    res = results[i]
    corrupt = run.Outcome()
    corrupt.rc, corrupt.value, corrupt.stderr, corrupt.seconds = 0, None, "", 0
    rows = res.stdout.splitlines()
    cells = rows[1].split(",")
    cells[3] = repr(float(cells[5]) * 1.01)  # exact above the upper end
    corrupt.stdout = "\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n"
    rate, tally = _error_rate(ops, results[:i] + [corrupt] + results[i + 1:])
    assert rate == 1.0 / len(ops)
    assert tally.by_check == {"interval_contains_exact": 1}


def _raise_first_pop(path):
    """Rewrite a residual trace so its first pop realizes more than its
    priority; returns the original text."""
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.splitlines()
    step, edge, prio, _ = lines[1].split(",")
    lines[1] = f"{step},{edge},{prio},{float(prio) * 2 + 1e-6!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return original


def test_trace_line_above_priority_raises_error_rate(desk_pass):
    _, ops, results = desk_pass
    i = next(k for k, op in enumerate(ops) if op.kind == "run_residual")
    original = _raise_first_pop(ops[i].trace)
    try:
        rate, tally = _error_rate(ops, results)
    finally:
        with open(ops[i].trace, "w", encoding="utf-8") as fh:
            fh.write(original)
    assert rate == 1.0 / len(ops)
    assert (tally.failed, tally.known) == (1, 0)
    assert tally.by_check == {"residual_certificate": 1}


def test_known_defect_counts_without_failing_the_run(tmp_path):
    import loopybp
    import loopybp.cli  # noqa: F401
    ops = workloads.build("glass", 5, str(tmp_path), tiny=True)
    op = next(op for op in ops if op.kind == "run_residual")
    assert op.known_defects == ("residual_certificate",)
    res = run.execute(loopybp, op)
    _raise_first_pop(op.trace)
    tally = run.Tally()
    tally.add(op, run.check(op, res, None))
    assert (tally.failed, tally.known, tally.error_rate) == (0, 1, 1.0)
    assert tally.by_check == {"residual_certificate": 1}
    # Another failure on the same operation still fails the run.
    res.stdout = res.stdout.replace("node,state,belief",
                                    "node,state,probability")
    tally = run.Tally()
    tally.add(op, run.check(op, res, None))
    assert (tally.failed, tally.known) == (1, 0)


def test_recorded_output_mismatch_is_a_failure(desk_pass):
    _, ops, results = desk_pass
    golden = []
    for op, res in zip(ops, results):
        files = {"trace": run._read(op.trace), "output": run._read(op.output)}
        golden.append((op.label, run.recorded_outputs(op, res, files)))
    assert _error_rate(ops, results, golden)[0] == 0.0
    i = next(k for k, op in enumerate(ops) if op.kind == "fixed_points")
    edited = run.Outcome()
    edited.rc, edited.value, edited.stderr, edited.seconds = 0, None, "", 0
    edited.stdout = results[i].stdout.replace("\n", " \n", 1)
    rate, tally = _error_rate(ops, results[:i] + [edited] + results[i + 1:],
                              golden)
    assert rate == 1.0 / len(ops)
    assert tally.by_check == {"recorded_output": 1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "desk", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "bench"]
