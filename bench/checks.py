"""Output checks for the benchmark's operations.

Every checker takes the text an operation produced and returns a list of
``(check_name, detail)`` failures; an empty list means the output passed.
The checks restate properties the library documents (normalized beliefs,
certificate verdicts, bound orderings, interval containment, fixed-point
equations) and test them from the printed CSV alone, so they stay
independent of the code paths a later change may rewrite.
"""

from __future__ import annotations

# Printed values carry 12 significant digits; comparisons between printed
# numbers allow for that rounding and nothing more.
PRINT_REL = 1e-9
# A scheduled pop is useful when it moves its message by more than this.
USEFUL_RESIDUAL = 1e-9

BOUND_COLUMNS = ("udb", "improved_udb", "ihler_udb",
                 "nudb", "improved_nudb", "ihler_nudb")


def _close_le(a: float, b: float) -> bool:
    """a <= b up to print rounding."""
    return a <= b + PRINT_REL * max(1.0, abs(a), abs(b))


def _table(lines):
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def check_run(stdout: str, trace_text: str | None = None) -> list:
    """``loopybp run``: status header, one normalized belief per node, and
    for a residual run every pop's realized residual at most its priority."""
    fails = []
    lines = stdout.splitlines()
    if len(lines) < 3 or lines[0] != "status,iterations,period" \
            or lines[2] != "node,state,belief":
        return [("run_format", "unexpected header lines")]
    status = lines[1].split(",")[0]
    if status not in ("converged", "oscillating", "max_iters"):
        fails.append(("run_status", f"unknown status {status!r}"))
    sums: dict = {}
    for ln in lines[3:]:
        node, _, p = ln.split(",")
        p = float(p)
        if not 0.0 <= p <= 1.0:
            fails.append(("belief_range", f"node {node} has belief {p}"))
        sums[node] = sums.get(node, 0.0) + p
    for node, total in sums.items():
        if abs(total - 1.0) > 1e-9:
            fails.append(("belief_normalized",
                          f"node {node} beliefs sum to {total!r}"))
    if trace_text is not None:
        fails.extend(check_residual_trace(trace_text))
    return fails


def parse_trace(trace_text: str) -> list:
    """(priority, residual) per pop of a residual trace CSV."""
    lines = trace_text.splitlines()
    if not lines or lines[0] != "step,edge,priority,residual":
        raise ValueError("trace header missing")
    out = []
    for ln in lines[1:]:
        _, _, prio, res = ln.split(",")
        out.append((float(prio), float(res)))
    return out


def check_residual_trace(trace_text: str) -> list:
    """Each pop's priority is documented as a certified upper bound on the
    residual it realizes."""
    try:
        pops = parse_trace(trace_text)
    except ValueError as exc:
        return [("trace_format", str(exc))]
    bad = [(i + 1, p, r) for i, (p, r) in enumerate(pops) if r > p]
    if not bad:
        return []
    step, p, r = bad[0]
    return [("residual_certificate",
             f"{len(bad)} of {len(pops)} pops realize more than their "
             f"priority (first: step {step}, priority {p!r}, residual {r!r})")]


def check_converge(stdout: str, critical: bool) -> list:
    """``loopybp converge``: holds agrees with statistic < threshold, a
    clearly holding walksum or SAW certificate implies the bethe one, and
    critical values lie inside the bisection bracket."""
    fails = []
    blocks = stdout.split("\n\n")
    lines = blocks[0].splitlines()
    if not lines or lines[0] != "condition,statistic,threshold,holds,witness":
        return [("converge_format", "unexpected header")]
    _, rows = _table(lines)
    verdicts = {}
    for row in rows:
        stat, thr = float(row["statistic"]), float(row["threshold"])
        holds = row["holds"] == "true"
        if holds != (stat < thr):
            fails.append(("holds_matches_statistic",
                          f"{row['condition']}: {stat!r} vs {thr!r} "
                          f"printed {row['holds']}"))
        name = row["condition"].split("(")[0]
        verdicts[name] = (stat, thr, holds)
    bethe = verdicts.get("nonuniform-bethe")
    for premise in ("walksum", "nonuniform-saw"):
        v = verdicts.get(premise)
        if v is not None and bethe is not None \
                and v[0] < v[1] * (1.0 - 1e-9) and not bethe[2]:
            fails.append(("certificate_implication",
                          f"{premise} holds clearly but bethe fails"))
    if critical:
        if len(blocks) < 2:
            return fails + [("critical_format", "critical table missing")]
        clines = blocks[1].strip().splitlines()
        if clines[0] != "condition,critical_eta" \
                or len(clines) - 1 != len(rows):
            return fails + [("critical_format", "unexpected critical table")]
        for ln in clines[1:]:
            cond, eta = ln.split(",")
            if not 0.5 <= float(eta) <= 0.9999:
                fails.append(("critical_range", f"{cond}: {eta}"))
    elif len(blocks) > 1:
        fails.append(("converge_format", "unexpected second table"))
    return fails


def check_bounds(text: str, expect_true: bool) -> list:
    """``loopybp bounds``: bounds non-negative, each improved form at most
    its plain form, and the measured distance below every bound."""
    fails = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith("eta,node,"):
        return [("bounds_format", "unexpected header")]
    header, rows = _table(lines)
    cols = [c for c in header if c in BOUND_COLUMNS]
    if ("true_distance" in header) != expect_true or not cols:
        return [("bounds_format", f"columns {header}")]
    for row in rows:
        where = f"eta {row['eta']} node {row['node']}"
        vals = {c: float(row[c]) for c in cols}
        for c, v in vals.items():
            if not v >= 0.0:
                fails.append(("bound_nonnegative", f"{c}={v!r} at {where}"))
        for tight, loose in (("improved_udb", "udb"),
                             ("improved_nudb", "nudb")):
            if tight in vals and loose in vals \
                    and not _close_le(vals[tight], vals[loose]):
                fails.append(("improved_below_plain",
                              f"{tight}={vals[tight]!r} > {loose}="
                              f"{vals[loose]!r} at {where}"))
        if expect_true and row["true_distance"] != "nan":
            t = float(row["true_distance"])
            for c, v in vals.items():
                if not _close_le(t, v):
                    fails.append(("true_below_bound",
                                  f"true {t!r} > {c}={v!r} at {where}"))
    return fails


def check_accuracy(stdout: str) -> list:
    """``loopybp accuracy``: lower <= exact <= upper and lower <= belief <=
    upper for every node and state."""
    fails = []
    lines = stdout.splitlines()
    if not lines or lines[0] != "node,state,belief,exact,lower,upper":
        return [("accuracy_format", "unexpected header")]
    _, rows = _table(lines)
    for row in rows:
        b, ex, lo, hi = (float(row[k]) for k in
                         ("belief", "exact", "lower", "upper"))
        where = f"node {row['node']} state {row['state']}"
        if not (_close_le(lo, ex) and _close_le(ex, hi)):
            fails.append(("interval_contains_exact",
                          f"{lo!r} <= {ex!r} <= {hi!r} fails at {where}"))
        if not (_close_le(lo, b) and _close_le(b, hi)):
            fails.append(("interval_contains_belief",
                          f"{lo!r} <= {b!r} <= {hi!r} fails at {where}"))
    return fails


def scalar_map(x: float, eta: float, k: int) -> float:
    """F(x) of the uniform binary family with potential [[eta, 1-eta],
    [1-eta, eta]] and k incoming messages, written out independently."""
    a, b = eta, 1.0 - eta
    xk, yk = x ** k, (1.0 - x) ** k
    return (a * xk + b * yk) / ((a + b) * (xk + yk))


def check_fixed_points(stdout: str, eta: float, degree: int) -> list:
    """``loopybp fixed-points``: fixed points satisfy x = F(x), quasi fixed
    points satisfy 1 - x = F(x), and beliefs match x^d / (x^d + (1-x)^d)."""
    fails = []
    lines = stdout.splitlines()
    if len(lines) < 3 or lines[2] != "kind,x,stable,belief":
        return [("fixed_points_format", "unexpected header")]
    k = degree - 1
    for ln in lines[3:]:
        kind, x, _, belief = ln.split(",")
        x = float(x)
        target = x if kind == "fixed" else 1.0 - x
        if abs(scalar_map(x, eta, k) - target) > 1e-9:
            fails.append(("fixed_point_equation",
                          f"{kind} x={x!r}: F(x)={scalar_map(x, eta, k)!r}"))
        xd, yd = x ** degree, (1.0 - x) ** degree
        if abs(xd / (xd + yd) - float(belief)) > 1e-9:
            fails.append(("fixed_point_belief", f"{kind} x={x!r}"))
    if not any(ln.startswith("fixed,") for ln in lines[3:]):
        fails.append(("fixed_point_missing", "no fixed point listed"))
    return fails


def check_empirical(value: float, lo: float, hi: float) -> list:
    """``empirical_critical_eta`` returns a point of its bracket."""
    if not lo <= value <= hi:
        return [("empirical_range", f"{value!r} outside [{lo}, {hi}]")]
    return []
