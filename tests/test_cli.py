import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopybp import (PairwiseMRF, build_generator, cli, parse_graph_file,
                     write_graph_file)
from loopybp.bounds import BOUND_KEYS
from loopybp.cli import main
from loopybp.convergence import CONDITION_NAMES


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


def test_trace_requires_residual_schedule(tmp_path, capsys, monkeypatch):
    # Refused before any model is loaded: grid:40x40 used to run 1.46 s of
    # sweeps first.
    def no_model(*args, **kwargs):
        raise AssertionError("a model was loaded")

    monkeypatch.setattr(cli, "_load_models", no_model)
    trace = tmp_path / "trace.csv"
    code = main(["run", "--generate", "grid:40x40", "--eta", "0.55",
                 "--init", "random", "--max-iters", "3000", "--tol", "1e-300",
                 "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --trace needs --schedule residual\n"
    assert not trace.exists()


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


def test_bounds_true_column_alone_builds_no_bound_report(capsys,
                                                        monkeypatch):
    args = ("bounds", "--generate", "grid:3x3", "--eta", "0.6:0.7:0.1")
    code, both = run_cli(capsys, *args, "--methods", "true,udb")
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("bound report built for no bound column")

    monkeypatch.setattr(cli, "bound_report", refuse)
    code, alone = run_cli(capsys, *args, "--methods", "true")
    assert code == 0
    assert alone.splitlines() == [line.rsplit(",", 1)[0]
                                  for line in both.splitlines()]


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
    write_graph_file(build_generator("torus:3x3", 0.7), path)
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


def test_converge_conditions_do_not_leak_between_calls(capsys):
    # One parser serves every call in a process; the list that
    # --condition appends to must start empty each time.
    argv = ["converge", "--generate", "k4minus", "--eta", "0.6"]
    _, first = run_cli(capsys, *argv, "--condition", "uniform")
    _, second = run_cli(capsys, *argv)
    assert [ln.split(",")[0] for ln in first.strip().splitlines()[1:]] == \
        ["uniform"]
    assert len(second.strip().splitlines()[1:]) == 5


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
                            "--degree", "1023")
        assert code == 0
        assert [ln.split(",")[2] for ln in out.strip().splitlines()[3:]] == \
            ["true", "false", "true"]


@pytest.mark.parametrize("eta,rows", [
    # The root functions rounded to exact zeros all over the scan grid
    # here, which printed 10,000 quasi rows and 2,500 fixed rows.
    ("1e-300", ["fixed,0.5,false,0.5"]),
    ("1e-17", ["fixed,0.5,false,0.5"]),
    ("0.9999999999999999", ["fixed,0.5,true,0.5"]),
])
def test_fixed_points_at_extreme_eta(capsys, eta, rows):
    code, out = run_cli(capsys, "fixed-points", "--eta", eta, "--degree", "2")
    assert code == 0
    assert out.strip().splitlines()[3:] == rows


@pytest.mark.parametrize("eta, kinds", [
    # A 10,000-point sign scan printed only the 0.5 row here: at the
    # critical slopes the pair shared the grid cell of 0.5, and at strong
    # coupling it lay outside the grid.
    ("0.66666667", ["fixed", "fixed", "fixed"]),
    ("0.99995", ["fixed", "fixed", "fixed"]),
    ("0.33333333", ["fixed", "quasi", "quasi"]),
    ("1e-6", ["fixed", "quasi", "quasi"]),
])
def test_fixed_points_prints_every_row_of_the_theorem(capsys, eta, kinds):
    code, out = run_cli(capsys, "fixed-points", "--eta", eta, "--degree", "4")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.strip().splitlines()[3:]] == kinds


def test_fixed_points_rejects_subnormal_entries(capsys):
    for eta in ("5e-324", "1e-310"):
        assert main(["fixed-points", "--eta", eta, "--degree", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: potential entries must be at least")


def test_fixed_points_caps_degree_by_its_flag(capsys):
    # The library's cap on its incoming count k is read as --degree's.
    assert main(["fixed-points", "--eta", "0.7", "--degree", "1024"]) == 2
    assert capsys.readouterr().err == "error: --degree must be at most 1023\n"


def main_quietly(argv):
    """main's exit code, stdout and stderr, with RuntimeWarnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code != 0:
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
    return code, out.getvalue(), err


@settings(max_examples=150, deadline=None)
@given(eta=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     st.floats()),
       count=st.integers(-2, 1100))
def test_fixed_points_argv_exits_cleanly(eta, count):
    code, out, err = main_quietly(["fixed-points", "--eta", repr(eta),
                                   "--degree", str(count)])
    if code == 0:
        assert err == "" and out.startswith("regime,")
    else:
        assert code == 2


# Small graphs keep every draw cheap: accuracy enumerates the joint and
# walks the self-avoiding walk tree, and a sweep runs restarts per eta.
SMALL_GRAPHS = ["complete:3", "complete:4", "k4minus", "cycle:5", "grid:2x3",
                "torus:2x3", "tree:6:2", "chain:4"]
JUNK_GRAPHS = ["", "nope", "grid:3", "grid:x2", "grid:0x4", "grid:-2x3",
               "complete:1", "complete:-3", "cycle:2", "chain:1e2", "tree:0",
               "tree:5:-1", "k4minus:2", "complete:4:4", "torus:2x",
               "complete:100000", "grid:1000x1000"]
BAD_SWEEPS = ["0.7:0.5:0.1", "0.5:0.6:0", "0.5:0.6:-0.1", "0.5:0.6",
              "0:0.5:0.1", "0.5:1.5:0.5", "nan:0.6:0.1", "0.5:nan:0.1",
              "0.5:0.6:nan", "0.5:0.6:inf", "0.5:0.6:1e-300", "a:b:c",
              "0.5::0.1", ":::"]
JUNK = ["x", "", "1.5", "1e3", "0x10", "-1", "0"]
# Huge counts: refused for the counts that size work with no stop of their
# own, and harmless for seeds and node numbers.
HUGE = ["100000000000000000000", "100001"]
ETAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr)
TOLS = st.floats(1e-3, 1.0).map(repr)


@st.composite
def subcommand_argvs(draw):
    """argv for run, converge, bounds or accuracy: valid flags on a small
    graph with budgets that keep each run to milliseconds, then at most
    one flag given a bad value or left out."""
    command = draw(st.sampled_from(["run", "converge", "bounds", "accuracy"]))
    good = {"--generate": st.sampled_from(SMALL_GRAPHS), "--eta": ETAS}
    bad = {"--generate": st.sampled_from(JUNK_GRAPHS),
           "--eta": st.floats().map(repr), "--graph": st.just("no.graph")}
    counts = st.sampled_from(JUNK + HUGE)
    if command == "run":
        good.update({
            "--schedule": st.sampled_from(["sync", "residual"]),
            "--init": st.sampled_from(["uniform", "random"]),
            "--seed": st.sampled_from(["0", "3", HUGE[0]]),
            "--max-iters": st.sampled_from(["60", "1", "2"]),
            "--max-updates": st.sampled_from(["400", "1", "5"]),
            "--tol": TOLS})
        bad.update({"--seed": counts, "--max-iters": counts,
                    "--max-updates": counts,
                    "--tol": st.floats().map(repr)})
    elif command == "converge":
        good.update({"--condition": st.sampled_from(CONDITION_NAMES),
                     # Deep walk sums outgrow the float range.
                     "--depth": st.sampled_from(["12", "1", "2", "3000"]),
                     "--critical": st.just(None), "--tol": TOLS})
        bad.update({"--condition": st.just("nope"), "--depth": counts,
                    "--tol": st.floats().map(repr)})
    elif command == "bounds":
        good.update({
            "--eta": st.one_of(ETAS, st.sampled_from(["0.5:0.7:0.1",
                                                      "0.6:0.65:0.05"])),
            "--methods": st.one_of(st.just("all"), st.lists(
                st.sampled_from(["true"] + list(BOUND_KEYS)), min_size=1,
                max_size=3).map(",".join)),
            "--nudb-iters": st.sampled_from(["8", "1", "3000"]),
            "--true-runs": st.sampled_from(["3", "2"]),
            "--seed": st.sampled_from(["0", "3", HUGE[0]])})
        bad.update({"--eta": st.sampled_from(BAD_SWEEPS),
                    "--methods": st.sampled_from(["", "nope", "all,udb", " "]),
                    "--nudb-iters": counts, "--true-runs": counts,
                    "--seed": counts})
    else:
        good["--node"] = st.sampled_from(["0", "3", "5"])
        bad["--node"] = st.sampled_from(JUNK + HUGE + ["8"])
    flags = {flag: draw(values) for flag, values in good.items()
             if flag in ("--generate", "--eta") or draw(st.booleans())}
    fault = draw(st.sampled_from([None, "drop"] + sorted(bad)))
    if fault == "drop" and flags:
        del flags[draw(st.sampled_from(sorted(flags)))]
    elif fault is not None:
        flags[fault] = draw(bad[fault])
    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=subcommand_argvs())
def test_subcommand_argv_exits_cleanly(argv):
    code, out, err = main_quietly(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and out != ""


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
            # Counts that size work with no stop of their own are capped.
            ["converge", "--generate", "cycle:5", "--eta", "0.6",
             "--depth", "100001"],
            ["bounds", "--generate", "cycle:5", "--eta", "0.6",
             "--nudb-iters", "100000000000000000000"],
            ["bounds", "--generate", "cycle:5", "--eta", "0.6",
             "--methods", "true", "--true-runs", "100001"],
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
            # Refused before anything is built: 5e9 edges, 1e6 nodes.
            ["run", "--generate", "complete:100000", "--eta", "0.6"],
            ["run", "--generate", "grid:1000x1000", "--eta", "0.6"],
            # Checked before the joint (2**36 states) is enumerated.
            ["accuracy", "--generate", "grid:6x6", "--eta", "0.6",
             "--node", "999"],
            ["fixed-points", "--eta", "0.7", "--degree", "1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:"), argv
        if argv[0] == "fixed-points":  # names the flag given
            assert f"error: {argv[3]} must be at least" in captured.err, argv


def test_only_bounds_takes_an_eta_sweep(tmp_path, capsys, monkeypatch):
    # --eta is read before the graph: a refused value builds no model, and
    # main itself returns 2 with one error line.
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "build_generator", no_model)
    for argv in (["run", "--eta", "0.5:0.7:0.1"],
                 ["converge", "--eta", "0.5:0.7:0.1", "--critical"],
                 ["accuracy", "--eta", "0.6:0.65:0.05"],
                 ["run", "--eta", "abc"],
                 ["bounds", "--eta", "a:b:c"]):
        assert main([*argv, "--generate", "complete:4"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
    monkeypatch.undo()
    # A missing graph file exits 3, but a bad sweep is read first.
    missing = str(tmp_path / "missing.graph")
    assert main(["bounds", "--graph", missing, "--eta", "a:b:c"]) == 2
    code, out, _ = main_quietly(["fixed-points", "--eta", "0.7", "--k", "3"])
    assert (code, out) == (2, "")


def test_argparse_rejects_unknown_condition(capsys):
    # What argparse itself refuses returns 2 from main with one error line,
    # as the subcommands' own checks do.
    for argv in (["converge", "--generate", "torus:3x3", "--eta", "0.6",
                  "--condition", "nope"],
                 ["run", "--generate", "cycle:5", "--eta", "0.6",
                  "--max-iters", "ten"],
                 ["run", "--generate", "cycle:5", "--eta", "0.6", "--nope"],
                 ["fixed-points", "--eta", "abc", "--degree", "4"],
                 ["fixed-points", "--degree", "4"],
                 []):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:"), argv
        assert captured.err.count("\n") == 1, argv
    with pytest.raises(SystemExit) as exc:
        main(["fixed-points", "--help"])
    assert exc.value.code == 0
    assert "--degree" in capsys.readouterr().out


def test_parse_failure_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    for text in ("nodes 2\nedge 0 1 1 2 3\n",
                 "nodes 2\nnode 0 1 2\nnode 0 3 4\n",
                 "nodes 2\ncard 1 3\ncard 1 3\n"):
        bad.write_text(text)
        assert main(["run", "--graph", str(bad)]) == 3
    assert main(["run", "--graph", str(tmp_path / "missing.graph")]) == 3
    capsys.readouterr()


def test_graph_file_encodings(tmp_path, capsys):
    text = "nodes 3\ncard 1 3\nnode 0 0.5 2.0\nedge 0 1 1 2 3 4 5 6\n" \
        "edge 2 1 0.5 1 2 4 1.5 3\n"
    plain = tmp_path / "plain.graph"
    plain.write_text(text, encoding="utf-8")
    # Not UTF-8: one error line naming the file, exit 3, no traceback.
    for name, data in (("utf16.graph", text.encode("utf-16")),
                       ("ff.graph", b"\xff")):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["run", "--graph", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")
        assert captured.err.count("\n") == 1
    # A UTF-8 byte-order mark is read past: the same model and output.
    bom = tmp_path / "bom.graph"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    outputs = []
    for path in (plain, bom):
        assert main(["run", "--graph", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("status,")
    got, want = parse_graph_file(bom), parse_graph_file(plain)
    assert (got.cards, got.edges) == (want.cards, want.edges)
    for a, b in zip(got.node_pot + got.edge_pot, want.node_pot + want.edge_pot):
        assert a.tobytes() == b.tobytes()


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
    base = build_generator("torus:3x3", 0.25)
    biased = PairwiseMRF(9, base.edges,
                         node_potentials=[[1.0, 2.0]] * 9,
                         edge_potentials={e: base.edge_matrix(*e)
                                          for e in base.edges})
    path = tmp_path / "biased.graph"
    write_graph_file(biased, path)
    assert main(["accuracy", "--graph", str(path), "--node", "0"]) == 4
    capsys.readouterr()


def test_walk_budget_exits_four_with_empty_stdout():
    # grid:6x6 has more than 200,000 self-avoiding walks out of node 0: the
    # SAW statistic used to run for more than ten minutes. complete:10's run
    # converges, but its SAW trees hold 986,410 nodes each.
    grid = ["--generate", "grid:6x6", "--eta", "0.6"]
    for argv in (["converge", *grid, "--condition", "nonuniform-saw"],
                 ["converge", *grid, "--critical"],
                 ["accuracy", "--generate", "complete:10", "--eta", "0.52"]):
        start = time.perf_counter()
        code, out, err = main_quietly(argv)
        assert time.perf_counter() - start < 30.0, argv
        assert (code, out) == (4, ""), argv
        assert err == ("error: more than 200000 self-avoiding walks out of "
                       "node 0\n"), argv


def test_walk_deeper_than_the_recursion_limit_exits_four():
    # A 1,200-node path or cycle has few self-avoiding walks, but one of them
    # is deeper than the interpreter's recursion limit; chain:900 still fits.
    long_walks = ["converge", "--eta", "0.6", "--generate"]
    for argv in ([*long_walks, "chain:1200"],
                 [*long_walks, "cycle:1200", "--condition", "nonuniform-saw"]):
        code, out, err = main_quietly(argv)
        assert (code, out) == (4, ""), argv
        assert err == ("error: a self-avoiding walk out of node 0 is too "
                       "long to follow\n"), argv
    code, out, _ = main_quietly([*long_walks, "chain:900"])
    assert code == 0 and "nonuniform-saw" in out


EDGE_CASE_GRAPHS = {
    "edgeless": "nodes 2\n",
    # Node 0's belief is (1e-300, 1.0) in floats.
    "saturated": "nodes 2\nnode 0 1e-300 1\nedge 0 1 1 2 2 1\n",
    # The cross ratio 1e400 overflows a float.
    "overflowing": "nodes 2\nedge 0 1 1 1e200 1e-200 1\n",
    # Cards -1 and -2 match the two values; no stack of that shape exists.
    "negative cards": "nodes 2\ncard 0 -1\ncard 1 -2\nedge 0 1 1 1\n",
}


def test_cards_above_the_cap_exit_three(tmp_path, capsys):
    path = tmp_path / "cards.graph"
    for card, want in ((32, 0), (33, 3), (10**19, 3)):
        path.write_text(f"nodes 1\ncard 0 {card}\n")
        assert main(["run", "--graph", str(path)]) == want
        err = capsys.readouterr().err
        if want == 3:
            assert err == (f"error: line 2: cardinality {card} is above the "
                           "limit of 32\n")
    for nodes, want in ((10000, 0), (10001, 3), (2000000000, 3)):
        path.write_text(f"nodes {nodes}\n")
        assert main(["run", "--graph", str(path)]) == want
        err = capsys.readouterr().err
        if want == 3:
            assert err == (f"error: line 1: node count {nodes} is above the "
                           "limit of 10000\n")


def test_out_of_memory_exits_four_without_traceback():
    # Within the size caps, the walk-sum certificate on grid:60x60 still
    # fills a dense 14,160 x 14,160 matrix, 1.6 GB: above the child's 1 GiB
    # address-space limit. One OpenBLAS thread keeps numpy's own
    # reservation small.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "loopybp.cli", "converge", "--generate",
         "grid:60x60", "--eta", "0.6", "--condition", "walksum"],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def _cli_process(argv, **kwargs):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    return subprocess.Popen([sys.executable, "-m", "loopybp.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_closed_stdout_exits_zero_quietly():
    # The reader takes one line and closes the pipe. grid:100x100 prints
    # about 218 KB, beyond the pipe's and the stream's buffers, so the rest
    # of the output meets a broken pipe; at exit nothing may be left to
    # flush either. Neither an error line nor a traceback may appear.
    argv = ["run", "--generate", "grid:100x100", "--eta", "0.6"]
    proc = _cli_process(argv, stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"status,iterations,period\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=300), err) == (0, b"")
    # Started with stdout closed, a run prints nothing and succeeds.
    proc = _cli_process(argv[:2] + ["grid:2x2", "--eta", "0.6"],
                        preexec_fn=lambda: os.close(1))
    err = proc.stderr.read()
    assert (proc.wait(timeout=300), err) == (0, b"")


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


@st.composite
def graph_texts(draw):
    """A valid graph file, then at most one corruption of it."""
    n = draw(st.integers(1, 5))
    cards = draw(st.lists(st.sampled_from([2, 2, 3]), min_size=n, max_size=n))
    value = st.floats(0.05, 20.0).map(repr)
    lines = [f"nodes {n}"]
    lines += [f"card {v} {c}" for v, c in enumerate(cards) if c != 2]
    for v in draw(st.lists(st.integers(0, n - 1), unique=True)):
        lines.append(f"node {v} " + " ".join(
            draw(st.lists(value, min_size=cards[v], max_size=cards[v]))))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for i, j in edges:
        if draw(st.booleans()):
            i, j = j, i
        count = cards[i] * cards[j]
        lines.append(f"edge {i} {j} " + " ".join(
            draw(st.lists(value, min_size=count, max_size=count))))

    kind = draw(st.sampled_from(["none", "token", "entry", "count", "edge",
                                 "late card", "big card", "no nodes"]))
    at = draw(st.integers(0, len(lines) - 1))
    tokens = lines[at].split()
    if kind == "token":
        spot = draw(st.integers(0, len(tokens) - 1))
        tokens[spot] = draw(st.sampled_from(["x", "1..2", "0x10", "--", "1e",
                                             "nodes", "edge", "#", "½", "-2",
                                             "0", "1", "3"]))
    elif kind == "entry" and tokens[0] in ("node", "edge"):
        spot = draw(st.integers(2 if tokens[0] == "node" else 3,
                                len(tokens) - 1))
        tokens[spot] = draw(st.sampled_from(
            ["0", "-0.0", "-1.5", "nan", "inf", "-inf", "1e-300", "1e300"]))
    elif kind == "count" and tokens[0] in ("node", "edge"):
        if draw(st.booleans()):
            tokens.append("1.0")
        else:
            del tokens[-1]
    lines[at] = " ".join(tokens)
    if kind == "edge":
        i, j = draw(st.sampled_from(edges or [(0, 0)]))
        i, j = draw(st.sampled_from([(i, j), (j, i), (i, i), (0, n), (-1, 0)]))
        lines.append(f"edge {i} {j} " + " ".join(["1.0"] * 4))
    elif kind == "late card":
        lines.append(f"node 0 {' '.join(['1.0'] * cards[0])}")
        lines.append(f"card 0 {draw(st.sampled_from([2, 3]))}")
    elif kind == "big card":
        lines.append(f"card {draw(st.integers(0, n - 1))} "
                     f"{draw(st.integers(2, 10**20))}")
    elif kind == "no nodes":
        lines = lines[1:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=graph_texts())
def test_graph_files_exit_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = main_quietly(["run", "--graph", path])
    assert code in (0, 3)
    if code == 0:
        assert err == "" and out.startswith("status,")
    else:
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
