import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopybp import PairwiseMRF, torus_graph, write_graph_file
from loopybp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_run_sync_on_tree(capsys):
    code, out = run_cli(capsys, "run", "--generate", "chain:3", "--eta", "0.7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "status,iterations,period"
    assert lines[1].startswith("converged,")
    assert lines[2] == "node,state,belief"
    assert len(lines) == 3 + 6


def test_run_oscillation_reported(capsys):
    code, out = run_cli(capsys, "run", "--generate", "torus:3x3", "--eta", "0.3",
                        "--init", "random", "--seed", "0")
    assert code == 0
    status_line = out.strip().splitlines()[1]
    assert status_line.split(",")[0] == "oscillating"
    assert status_line.split(",")[2] == "2"


def test_run_residual_matches_sync(capsys):
    code_s, out_s = run_cli(capsys, "run", "--generate", "complete:4",
                            "--eta", "0.6")
    code_r, out_r = run_cli(capsys, "run", "--generate", "complete:4",
                            "--eta", "0.6", "--schedule", "residual")
    assert code_s == 0 and code_r == 0

    def beliefs(text):
        rows = text.strip().splitlines()[3:]
        return {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}

    left, right = beliefs(out_s), beliefs(out_r)
    assert left.keys() == right.keys()
    for key in left:
        assert left[key] == pytest.approx(right[key], abs=1e-6)


def test_run_residual_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _ = run_cli(capsys, "run", "--generate", "complete:4", "--eta", "0.6",
                      "--schedule", "residual", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "step,edge,priority,residual"
    assert len(lines) > 1


def test_run_residual_budget_counts_initial_sweep(capsys):
    # cycle:5 has 10 directed edges; a budget of 3 stops the initial sweep.
    code, out = run_cli(capsys, "run", "--generate", "cycle:5", "--eta", "0.6",
                        "--schedule", "residual", "--max-updates", "3")
    assert code == 0
    assert out.splitlines()[1] == "max_iters,3,"


def test_trace_requires_residual_schedule(capsys):
    code = main(["run", "--generate", "complete:4", "--eta", "0.6",
                 "--trace", "unused.csv"])
    capsys.readouterr()
    assert code == 2


def test_bounds_sweep_row_count(capsys):
    code, out = run_cli(capsys, "bounds", "--generate", "complete:4",
                        "--eta", "0.5:0.95:0.01", "--methods", "udb")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,node,udb"
    assert len(lines) == 1 + 46 * 4


def test_bounds_true_distance_column(capsys):
    code, out = run_cli(capsys, "bounds", "--generate", "torus:3x3",
                        "--eta", "0.7", "--methods", "true,improved_udb")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,node,true_distance,improved_udb"
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(2.2784724, abs=1e-4)
    assert float(first[3]) == pytest.approx(2.3318236, abs=1e-4)


def test_bounds_output_file_and_determinism(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = ("bounds", "--generate", "k4minus", "--eta", "0.8:0.9:0.05",
            "--methods", "udb,nudb", "--output", str(out_path))
    code, printed = run_cli(capsys, *args)
    assert code == 0
    assert printed == ""
    first = out_path.read_text()
    code, _ = run_cli(capsys, *args)
    assert code == 0
    assert out_path.read_text() == first


def test_bounds_from_file_has_nan_eta(tmp_path, capsys):
    path = tmp_path / "torus.graph"
    write_graph_file(torus_graph(3, 3, 0.7), path)
    code, out = run_cli(capsys, "bounds", "--graph", str(path),
                        "--methods", "udb")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "nan"
    assert float(row[2]) == pytest.approx(2.4264419, abs=1e-4)


def test_converge_verdict_table(capsys):
    code, out = run_cli(capsys, "converge", "--generate", "torus:3x3",
                        "--eta", "0.6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "condition,statistic,threshold,holds,witness"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["uniform", "ihler-uniform", "walksum",
                     "nonuniform-saw", "nonuniform-bethe(18)"]
    assert all(ln.split(",")[3] == "true" for ln in lines[1:])


def test_converge_critical_block(capsys):
    code, out = run_cli(capsys, "converge", "--generate", "k4minus",
                        "--eta", "0.8", "--condition", "nonuniform-saw",
                        "--critical")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    crit = blocks[1].splitlines()
    assert crit[0] == "condition,critical_eta"
    assert float(crit[1].split(",")[1]) == pytest.approx(0.7847, abs=2e-3)


def test_converge_walksum_critical(capsys):
    code, out = run_cli(capsys, "converge", "--generate", "torus:3x3",
                        "--eta", "0.6", "--condition", "walksum", "--critical")
    assert code == 0
    crit = out.strip().split("\n\n")[1].splitlines()[1]
    assert float(crit.split(",")[1]) == pytest.approx(2 / 3, abs=2e-3)


def test_fixed_points_table(capsys):
    code, out = run_cli(capsys, "fixed-points", "--eta", "0.7", "--degree", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "regime,ferromagnetic"
    assert lines[1] == "slope_at_half,1.2"
    assert lines[2] == "kind,x,stable,belief"
    rows = [ln.split(",") for ln in lines[3:]]
    xs = [float(r[1]) for r in rows if r[0] == "fixed"]
    assert xs == pytest.approx([0.36132495, 0.5, 0.63867505], abs=1e-6)
    beliefs = [float(r[3]) for r in rows if r[0] == "fixed"]
    assert beliefs[2] == pytest.approx(0.90707837, abs=1e-6)


def test_fixed_points_k_equals_degree_minus_one(capsys):
    _, via_degree = run_cli(capsys, "fixed-points", "--eta", "0.7", "--degree", "4")
    _, via_k = run_cli(capsys, "fixed-points", "--eta", "0.7", "--k", "3")
    assert via_degree == via_k


def test_fixed_points_paramagnetic_single_row(capsys):
    code, out = run_cli(capsys, "fixed-points", "--eta", "0.5", "--degree", "4")
    assert code == 0
    rows = [ln for ln in out.strip().splitlines()[3:] if ln.startswith("fixed")]
    assert len(rows) == 1
    assert float(rows[0].split(",")[1]) == pytest.approx(0.5, abs=1e-12)


def test_fixed_points_stable_at_high_degree(capsys):
    # F'(x)'s squared denominator underflowed from k of about 538, which
    # marked the stable symmetric point unstable.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, "fixed-points", "--eta", "0.5",
                            "--degree", "1000")
        assert code == 0
        assert out.strip().splitlines()[3:] == ["fixed,0.5,true,0.5"]
        code, out = run_cli(capsys, "fixed-points", "--eta", "0.7",
                            "--k", "1022")
        assert code == 0
        assert [ln.split(",")[2] for ln in out.strip().splitlines()[3:]] == \
            ["true", "false", "true"]


@settings(max_examples=150, deadline=None)
@given(eta=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats()),
       flag=st.sampled_from(["--degree", "--k"]),
       count=st.integers(-2, 1100))
def test_fixed_points_argv_exits_cleanly(eta, flag, count):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(["fixed-points", "--eta", repr(eta), flag,
                             str(count)])
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.getvalue().startswith("regime,")
    else:
        assert code == 2
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_accuracy_intervals_contain_exact(capsys):
    code, out = run_cli(capsys, "accuracy", "--generate", "grid:3x3",
                        "--eta", "0.6", "--node", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,state,belief,exact,lower,upper"
    for row in lines[1:]:
        _, _, belief, exact, lower, upper = row.split(",")
        assert float(lower) - 1e-12 <= float(exact) <= float(upper) + 1e-12
        assert float(lower) - 1e-12 <= float(belief) <= float(upper) + 1e-12


def test_critical_with_tolerance_below_float_spacing(capsys):
    code, out = run_cli(capsys, "converge", "--generate", "complete:4",
                        "--eta", "0.6", "--condition", "uniform",
                        "--critical", "--tol", "1e-300")
    assert code == 0
    assert float(out.strip().splitlines()[-1].split(",")[1]) == \
        pytest.approx(25 / 34, abs=1e-12)


def test_usage_errors_exit_two(capsys):
    assert main(["bounds", "--generate", "complete:4", "--eta", "0.6",
                 "--methods", ""]) == 2
    assert main(["bounds", "--eta", "0.6", "--methods", "udb"]) == 2
    assert main(["run", "--generate", "complete:4"]) == 2  # generate needs eta
    assert main(["fixed-points", "--eta", "0.7"]) == 2
    assert main(["fixed-points", "--eta", "0.7", "--degree", "4", "--k", "3"]) == 2
    capsys.readouterr()
    for argv in (
            ["run", "--generate", "complete:4", "--eta", "0.6",
             "--max-iters", "0"],
            ["run", "--generate", "cycle:5", "--eta", "0.6",
             "--schedule", "residual", "--max-updates", "0"],
            ["converge", "--generate", "torus:3x3", "--eta", "0.6",
             "--depth", "0"],
            ["bounds", "--generate", "complete:4", "--eta", "0.6",
             "--nudb-iters", "0"],
            ["bounds", "--generate", "complete:4", "--eta", "0.6",
             "--methods", "true,udb", "--true-runs", "1"],
            *(["converge", "--generate", "torus:3x3", "--eta", "0.6",
               "--critical", "--tol", tol]
              for tol in ("0", "-1", "nan", "inf")),
            *(["run", "--generate", "cycle:5", "--eta", "0.6",
               "--schedule", schedule, "--tol", tol]
              for schedule in ("sync", "residual")
              for tol in ("nan", "-1", "0", "inf")),
            ["run", "--generate", "cycle:5", "--eta", "0.6",
             "--init", "random", "--seed", "-1"],
            ["bounds", "--generate", "cycle:5", "--eta", "0.6",
             "--methods", "true", "--seed", "-3"],
            # Refused, not built: about 1e299 etas.
            ["bounds", "--generate", "cycle:4", "--eta", "0.5:0.6:1e-300"],
            ["bounds", "--generate", "cycle:4", "--eta", "0.1:0.9:0.00008"],
            # Checked before the joint (2**36 states) is enumerated.
            ["accuracy", "--generate", "grid:6x6", "--eta", "0.6",
             "--node", "999"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:"), argv


def test_argparse_rejects_unknown_condition():
    with pytest.raises(SystemExit):
        main(["converge", "--generate", "torus:3x3", "--eta", "0.6",
              "--condition", "nope"])


def test_parse_failure_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes 2\nedge 0 1 1 2 3\n")
    assert main(["run", "--graph", str(bad)]) == 3
    assert main(["run", "--graph", str(tmp_path / "missing.graph")]) == 3
    capsys.readouterr()


# A numpy warning on the way to the error would reach stderr before it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["converge"], ["bounds"], ["run", "--schedule", "residual"]])
def test_model_error_exit_three(tmp_path, capsys, argv):
    path = tmp_path / "strong.graph"
    for text in (
            # Cross ratio 1e24: sigma = 1 - 1e-24 rounds to 1.0, which the
            # strength table rejects.
            "nodes 3\nedge 0 1 1e12 1 1 1e12\n",
            # Row sums 2e200 and 2e-200: their ratio overflows, so the
            # summed strength would be inf.
            "nodes 3\nedge 0 1 1 2 2 1\nedge 1 2 1e200 1e200 1e-200 1e-200\n"):
        path.write_text(text)
        assert main([*argv, "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1, captured.err


def test_numeric_budget_exit_four(tmp_path, capsys):
    assert main(["accuracy", "--generate", "chain:25", "--eta", "0.6",
                 "--node", "0"]) == 4
    base = torus_graph(3, 3, 0.25)
    biased = PairwiseMRF(9, base.edges,
                         node_potentials=[[1.0, 2.0]] * 9,
                         edge_potentials={e: base.edge_matrix(*e)
                                          for e in base.edges})
    path = tmp_path / "biased.graph"
    write_graph_file(biased, path)
    assert main(["accuracy", "--graph", str(path), "--node", "0"]) == 4
    capsys.readouterr()


EDGE_CASE_GRAPHS = {
    "edgeless": "nodes 2\n",
    # Node 0's belief is (1e-300, 1.0) in floats.
    "saturated": "nodes 2\nnode 0 1e-300 1\nedge 0 1 1 2 2 1\n",
    # The cross ratio 1e400 overflows a float.
    "overflowing": "nodes 2\nedge 0 1 1 1e200 1e-200 1\n",
}


def test_edgeless_converge_reports_zero_statistics(tmp_path, capsys):
    path = tmp_path / "edgeless.graph"
    path.write_text(EDGE_CASE_GRAPHS["edgeless"])
    for extra in ([], ["--critical"]):
        code, out = run_cli(capsys, "converge", "--graph", str(path), *extra)
        assert code == 0
        verdicts = out.split("\n\n")[0].strip().splitlines()[1:]
        assert len(verdicts) == 5
        for line in verdicts:
            _, statistic, _, holds, witness = line.split(",")
            assert (statistic, holds, witness) == ("0", "true", "")


def test_every_subcommand_exits_with_a_documented_code(tmp_path, capsys):
    runs = [(["fixed-points", "--eta", "0.7", "--degree", "3000"], 2)]
    for name, text in EDGE_CASE_GRAPHS.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(text)
        for argv in (["bounds"], ["converge"], ["converge", "--critical"],
                     ["run"], ["run", "--schedule", "residual"],
                     ["accuracy"]):
            runs.append(([*argv, "--graph", str(path)], None))
    for argv, want in runs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert want is None or code == want, argv
        assert "Traceback" not in err, argv
        assert (code == 0) == (err == ""), argv
