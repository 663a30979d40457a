"""One benchmark op per CLI command, and the checks of its outputs.

Each ``run_<kind>`` mirrors the matching ``empathica.cli.cmd_*`` call for
call: it loads the generated game file, calls the public functions in the
same order, and writes the same files.  Every library call goes through
``call(name, fn, *args)`` so that a traced run can record a span around it;
the untraced ``call`` only forwards.

Each ``check_<kind>`` runs after the timed section.  It recomputes what it
can with this module's own arithmetic (transformed payoffs, best responses,
deviation gains, matrix powers) and returns a list of ``(function, reason)``
failures, empty when the op's outputs are correct.
"""
from __future__ import annotations

from pathlib import Path

from empathica import dynamics, equilibria, ess, hierarchy, io
from empathica.games import EmpathyMatrix, classify, dominated_actions, inequality_report, transform
from gen import lam_apply, matmul, prefs

# Failures that the library produces today on inputs of the kinds the
# workloads draw.  The inputs that meet them run in the known-defect probe
# of every query-mix run, and its failures are reported by defect; a fix
# shows as a lower failure share there.
KNOWN_DEFECTS = {
    "hierarchy-overflow-crash": (
        "analyze_hierarchy has no overflow guard: once lam^k overflows, building "
        "the level game raises 'must be a finite real number'"
    ),
    "idempotent-zero-limit": (
        "spectral_limit tests rho < 1 strictly, so an idempotent profile whose rho "
        "rounds below 1 is reported as LimitKind.ZERO"
    ),
}

REL_TOL = 1e-9


def _scale(*values) -> float:
    return max([1.0] + [abs(v) for v in values])


# --- independent arithmetic -------------------------------------------------


def payoffs(g, lam):
    """Transformed payoffs (A', B') as nested lists, A'[i][j] for row action i+1."""
    return lam_apply(g.row_matrix(), g.col_matrix(), lam.as_rows())


def pure_cells(ta, tb):
    """Cells (i, j), 1-based, where both actions are (weak) best responses."""
    return sorted(
        (i + 1, j + 1)
        for i in range(2)
        for j in range(2)
        if ta[i][j] >= ta[1 - i][j] and tb[i][j] >= tb[i][1 - j]
    )


def gain(ta, tb, x, y) -> float:
    """Largest unilateral improvement at the mixed profile (x, y)."""
    row = [ta[i][0] * y + ta[i][1] * (1.0 - y) for i in range(2)]
    col = [tb[0][j] * x + tb[1][j] * (1.0 - x) for j in range(2)]
    row_value = x * row[0] + (1.0 - x) * row[1]
    col_value = y * col[0] + (1.0 - y) * col[1]
    return max(max(row) - row_value, max(col) - col_value)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * _scale(x, y)


# --- shared op pieces -----------------------------------------------------------


def _load(call, spec, inputs: Path):
    return call("io.load_game_file", io.load_game_file, inputs / spec["input"])


def _write(call, out: Path, name: str, text: str, res: dict, producer: str) -> None:
    call("io.write_text", io.write_text, out / name, text)
    res["outputs"].append((producer, text))


def _json(call, out, name, obj, res) -> None:
    _write(call, out, name, call("io.canonical_json", io.canonical_json, obj), res,
           "io.canonical_json")


# --- region-sweep ---------------------------------------------------------------


def run_sweep(spec, call, inputs, out):
    res = {"outputs": []}
    game, _ = _load(call, spec, inputs)
    rmap = call("equilibria.region_map", equilibria.region_map, game,
                tuple(spec["l12"]), tuple(spec["l21"]), spec["grid"])
    text = call("io.region_csv", io.region_csv, rmap)
    _write(call, out, f"op{spec['id']}.csv", text, res, "io.region_csv")
    res.update(game=game, rmap=rmap)
    return res


def check_sweep(spec, res):
    game, rmap = res["game"], res["rmap"]
    n = spec["grid"]
    lines = res["outputs"][0][1].splitlines()
    if len(lines) != n * n + 1:
        return [("io.region_csv", "row count")]
    for i21, i12 in spec["sample"]:
        l12, l21 = rmap.l12_values[i12], rmap.l21_values[i21]
        row = lines[1 + i21 * n + i12].split(",")
        if (float(row[0]), float(row[1]), row[2]) != (l12, l21, rmap.label_at(i21, i12)):
            return [("io.region_csv", "csv row differs from the map")]
        lam = EmpathyMatrix(1.0, l12, l21, 1.0)
        single = equilibria.outcome_label(equilibria.two_population_equilibria(game, lam))
        if single != rmap.label_at(i21, i12):
            return [("equilibria.region_map", "cell differs from the single-shot label")]
        label_pure = [t for t in single.split("+") if t not in ("mixed", "none")]
        if label_pure != [f"{i}{j}" for i, j in pure_cells(*payoffs(game, lam))]:
            return [("equilibria.region_map", "pure cells differ from best responses")]
    return []


def items_sweep(spec, res):
    return {"equilibria.region_map.items": spec["grid"] ** 2}


# --- simulate (long-dynamics and query-mix) ---------------------------------------


def run_simulate(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    played = call("games.transform", transform, game, lam)
    proto = dynamics.RevisionProtocol.parse(spec["protocol"])
    sched = (
        dynamics.LearningSchedule.harmonic(spec["rate"])
        if spec["schedule"] == "harmonic"
        else dynamics.LearningSchedule.constant(spec["rate"])
    )
    s0 = dynamics.PopulationState(*spec["start"])
    traj = call("dynamics.simulate", dynamics.simulate, s0, proto, sched, played, spec["steps"])
    text = call("io.trajectory_csv", io.trajectory_csv, traj)
    _write(call, out, f"op{spec['id']}.csv", text, res, "io.trajectory_csv")
    diag = traj.diagnostics
    diag_obj = {
        "converged": diag.converged,
        "limit_point": list(diag.limit_point.as_tuple()) if diag.limit_point else None,
        "cycle_detected": diag.cycle_detected,
        "cycle_period_estimate": diag.cycle_period_estimate,
        "steps_run": len(traj) - 1,
        "start": [s0.p1, s0.p2],
        "final": [traj.p1[-1], traj.p2[-1]],
    }
    _json(call, out, f"op{spec['id']}.json", diag_obj, res)
    res.update(played=played, proto=proto, sched=sched, traj=traj)
    return res


def check_simulate(spec, res):
    traj = res["traj"]
    n = len(traj)
    if not 2 <= n <= spec["steps"] + 1:
        return [("dynamics.simulate", "trajectory length")]
    if any(not 0.0 <= v <= 1.0 for v in traj.p1) or any(not 0.0 <= v <= 1.0 for v in traj.p2):
        return [("dynamics.simulate", "state left the unit square")]
    start = min(spec["replay_from"], n - 2)
    for t in range(start, min(start + 32, n - 1)):
        s = dynamics.PopulationState(traj.p1[t], traj.p2[t])
        nxt = dynamics.step(s, res["proto"], res["sched"], res["played"], t)
        if (nxt.p1, nxt.p2) != (traj.p1[t + 1], traj.p2[t + 1]):
            return [("dynamics.simulate", "trajectory does not replay through step")]
    if res["outputs"][0][1].count("\n") != n + 1:
        return [("io.trajectory_csv", "row count")]
    return []


def items_simulate(spec, res):
    traj = res["traj"]
    diag = traj.diagnostics
    return {
        "dynamics.simulate.items": len(traj) - 1,
        "dynamics.simulate.requested": spec["steps"],
        "dynamics.simulate.cycles_detected": int(diag.cycle_detected),
        "dynamics.simulate.converged": int(diag.converged),
    }


# --- query-mix ------------------------------------------------------------------


def run_solve(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    eqs = call("equilibria.two_population_equilibria", equilibria.two_population_equilibria,
               game, lam)
    report = call("io.equilibrium_set_dict", io.equilibrium_set_dict, eqs)
    report["label"] = call("equilibria.outcome_label", equilibria.outcome_label, eqs)
    _json(call, out, f"op{spec['id']}.json", report, res)
    res.update(game=game, lam=lam, report=report)
    return res


def check_solve(spec, res):
    ta, tb = payoffs(res["game"], res["lam"])
    report = res["report"]
    if [tuple(c) for c in report["pure"]] != pure_cells(ta, tb):
        return [("equilibria.two_population_equilibria", "pure cells differ from best responses")]
    points = list(report["mixed"]) + [p for seg in report["mixed_continua"] for p in seg]
    tol = REL_TOL * _scale(*ta[0], *ta[1], *tb[0], *tb[1])
    if any(gain(ta, tb, x, y) > tol for x, y in points):
        return [("equilibria.two_population_equilibria", "mixed point has a deviation gain")]
    return []


def run_classify(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    played = call("games.transform", transform, game, lam)
    cls = call("games.classify", classify, played)
    dom = call("games.dominated_actions", dominated_actions, played)
    ineq = call("games.inequality_report", inequality_report, game, lam, tuple(spec["cell"]))
    obj = {
        "class": cls.kind.value,
        "dominant_action_p1": cls.dominant_action_p1,
        "dominant_action_p2": cls.dominant_action_p2,
        "degenerate_ties": list(cls.degenerate_ties),
        "dominated": [[d.player, d.action, d.dominated_by, d.strict] for d in dom],
        "gap_before": ineq.gap_before,
        "gap_after": ineq.gap_after,
        "inequality": ineq.verdict.value,
    }
    _json(call, out, f"op{spec['id']}.json", obj, res)
    res.update(game=game, lam=lam, obj=obj)
    return res


def _expected_class(r1, r2, c1, c2):
    if 0.0 in (r1, r2, c1, c2):
        return "Degenerate"
    if r1 * r2 > 0 or c1 * c2 > 0:
        return "DominantStrategy"
    row_match, col_match = r1 > 0, c1 > 0
    if row_match and col_match:
        return "Coordination"
    if not row_match and not col_match:
        return "AntiCoordination"
    return "Discoordination"


def check_classify(spec, res):
    ta, tb = payoffs(res["game"], res["lam"])
    obj = res["obj"]
    if obj["class"] != _expected_class(*prefs(ta, tb)):
        return [("games.classify", "class differs from the preference pattern")]
    dominated = []
    for player, rows in ((1, ta), (2, [[tb[0][0], tb[1][0]], [tb[0][1], tb[1][1]]])):
        for k in (0, 1):
            mine, other = rows[k], rows[1 - k]
            if all(o >= m for o, m in zip(other, mine)) and other != mine:
                strict = all(o > m for o, m in zip(other, mine))
                dominated.append([player, k + 1, 2 - k, strict])
    if obj["dominated"] != dominated:
        return [("games.dominated_actions", "differs from enumeration")]
    i, j = spec["cell"]
    g = res["game"]
    before = getattr(g, f"a{i}{j}") - getattr(g, f"b{i}{j}")
    after = ta[i - 1][j - 1] - tb[i - 1][j - 1]
    if not (_close(obj["gap_before"], before) and _close(obj["gap_after"], after)):
        return [("games.inequality_report", "gap differs from the transformed payoffs")]
    return []


def run_ess(spec, call, inputs, out):
    res = {"outputs": []}
    game, _ = _load(call, spec, inputs)
    a_lam = call("ess.homogeneous_payoff", ess.homogeneous_payoff, game, spec["sigma"], spec["mu"])
    red = call("ess.diagonal_reduction", ess.diagonal_reduction, a_lam)
    con = call("ess.Constraint", ess.Constraint, spec["c1"], spec["c2"], spec["V"])
    if con.feasible_interval is None:
        raise ValueError("the constraint makes every strategy infeasible")
    result = call("ess.constrained_ess", ess.constrained_ess, red, con)
    sym = call("ess.symmetric_equilibria", ess.symmetric_equilibria, red)
    obj = {
        "payoff_matrix": [list(row) for row in a_lam],
        "beta1": red.beta1,
        "beta2": red.beta2,
        "constraint_type": con.ctype.value,
        "alpha": con.alpha,
        "feasible": list(con.feasible_interval),
        "ess_points": [p.m for p in result.points],
        "ess_kinds": [p.kind.value for p in result.points],
        "exists": result.exists,
        "degenerate": result.degenerate,
        "symmetric_equilibria": list(sym.points),
        "symmetric_degenerate": sym.degenerate,
    }
    _json(call, out, f"op{spec['id']}.json", obj, res)
    res.update(game=game, obj=obj)
    return res


def check_ess(spec, res):
    g, obj = res["game"], res["obj"]
    s, m = spec["sigma"], spec["mu"]
    beta1 = (s + m) * g.a11 - (s * g.a21 + m * g.a12)
    beta2 = (s + m) * g.a22 - (s * g.a12 + m * g.a21)
    if not (_close(obj["beta1"], beta1) and _close(obj["beta2"], beta2)):
        return [("ess.diagonal_reduction", "betas differ from the homogeneous payoffs")]
    lo, hi = obj["feasible"]
    if any(not lo <= p <= hi for p in obj["ess_points"]):
        return [("ess.constrained_ess", "ESS outside the feasible interval")]
    b1, b2 = obj["beta1"], obj["beta2"]
    tol = REL_TOL * _scale(b1, b2)
    for p in obj["symmetric_equilibria"]:
        pref = b1 * p - b2 * (1.0 - p)
        ok = (p == 1.0 and b1 >= 0.0) or (p == 0.0 and b2 >= 0.0) or abs(pref) <= tol
        if not ok:
            return [("ess.symmetric_equilibria", "point is not an equilibrium")]
    return []


def run_hierarchy(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    k_max = spec["kmax"]
    analysis = call("hierarchy.analyze_hierarchy", hierarchy.analyze_hierarchy, game, lam, k_max)
    verdict = call("hierarchy.check_consistency", hierarchy.check_consistency, lam, k_max)
    text = call("io.hierarchy_csv", io.hierarchy_csv, analysis)
    _write(call, out, f"op{spec['id']}.csv", text, res, "io.hierarchy_csv")
    spectral = analysis.spectral
    verdict_obj = {
        "verdict": verdict.label,
        "consistent_up_to_k": verdict.consistent_up_to_k,
        "first_bad_k": verdict.first_bad_k,
        "witness_index": verdict.witness_index,
        "witness_signatures": list(verdict.witness_signatures or ()) or None,
        "structurally_consistent": verdict.structurally_consistent,
        "epsilons": list(verdict.epsilons) if verdict.epsilons else None,
        "spectral": {
            "eigenvalues": [[e.real, e.imag] for e in spectral.eigenvalues],
            "rho": spectral.rho,
            "limit": spectral.limit_kind.value,
        },
        "game_consistent_up_to_k": analysis.consistent_up_to_k,
    }
    _json(call, out, f"op{spec['id']}.json", verdict_obj, res)
    res.update(lam=lam, analysis=analysis)
    return res


def check_hierarchy(spec, res):
    lam, analysis = res["lam"], res["analysis"]
    if len(analysis.levels) != spec["kmax"]:
        return [("hierarchy.analyze_hierarchy", "level count")]
    base = lam.as_rows()
    power = base
    for rec in analysis.levels:
        if not all(_close(x, y) for x, y in zip(rec.lam_k.entries(), (*power[0], *power[1]))):
            return [("hierarchy.analyze_hierarchy", f"lam^{rec.k} differs from repeated product")]
        power = matmul(base, power)
    if spec["lambda_kind"] == "infinitely_consistent":
        limit = analysis.spectral.limit_kind.value
        if limit == "Zero":
            return [("hierarchy.analyze_hierarchy", "idempotent-zero-limit")]
        if limit != "Converges":
            return [("hierarchy.analyze_hierarchy", f"idempotent profile reported {limit}")]
    return []


def items_hierarchy(spec, res):
    return {"hierarchy.analyze_hierarchy.items": len(res["analysis"].levels)}


def run_stabilization(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    rep = call("dynamics.stabilization_check", dynamics.stabilization_check, game, lam)
    obj = {"transformed_class": rep.transformed_class.kind.value, "stabilized": rep.stabilized}
    _json(call, out, f"op{spec['id']}.json", obj, res)
    res.update(game=game, lam=lam, obj=obj)
    return res


def check_stabilization(spec, res):
    ta, tb = payoffs(res["game"], res["lam"])
    expected = 0.0 not in prefs(ta, tb) and bool(pure_cells(ta, tb))
    if res["obj"]["stabilized"] != expected:
        return [("dynamics.stabilization_check", "differs from the pure-equilibrium test")]
    return []


def run_field(spec, call, inputs, out):
    res = {"outputs": []}
    game, lam = _load(call, spec, inputs)
    played = call("games.transform", transform, game, lam)
    proto = dynamics.RevisionProtocol.parse(spec["protocol"])
    field = call("dynamics.vector_field", dynamics.vector_field, proto, played, spec["grid"])
    text = call("io.vector_field_csv", io.vector_field_csv, field)
    _write(call, out, f"op{spec['id']}.csv", text, res, "io.vector_field_csv")
    res.update(played=played, proto=proto, field=field)
    return res


def check_field(spec, res):
    rows = res["field"].rows
    if len(rows) != spec["grid"] ** 2:
        return [("dynamics.vector_field", "row count")]
    for p1, p2, d1, d2 in rows[:: max(1, len(rows) // 8)]:
        s = dynamics.PopulationState(p1, p2)
        e112, e121 = dynamics.switch_rates(res["proto"], res["played"], s, 1)
        e212, e221 = dynamics.switch_rates(res["proto"], res["played"], s, 2)
        want1 = (1.0 - p1) * e121 - p1 * e112
        want2 = (1.0 - p2) * e221 - p2 * e212
        if not (_close(d1, want1) and _close(d2, want2)):
            return [("dynamics.vector_field", "flow differs from the switch rates")]
    return []


def _no_items(spec, res):
    return {}


# kind -> (run, check, items): items gives the op's work counts per function.
OPS = {
    "sweep": (run_sweep, check_sweep, items_sweep),
    "simulate": (run_simulate, check_simulate, items_simulate),
    "solve": (run_solve, check_solve, _no_items),
    "classify": (run_classify, check_classify, _no_items),
    "ess": (run_ess, check_ess, _no_items),
    "hierarchy": (run_hierarchy, check_hierarchy, items_hierarchy),
    "stabilization": (run_stabilization, check_stabilization, _no_items),
    "field": (run_field, check_field, _no_items),
}

# The work one op completes: cells swept, steps run, or one query.
UNIT_ITEM = {
    "region-sweep": "equilibria.region_map.items",
    "long-dynamics": "dynamics.simulate.items",
    "query-mix": None,
}


def defect_of(function: str, reason: str) -> str:
    """The known defect a failure belongs to, or 'unexpected'."""
    if function == "hierarchy.analyze_hierarchy" and "finite real number" in reason:
        return "hierarchy-overflow-crash"
    return reason if reason in KNOWN_DEFECTS else "unexpected"


def failing_function(exc: BaseException) -> str:
    """The public library function the benchmark called when ``exc`` was
    raised: the first traceback frame inside the empathica package."""
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        path = Path(code.co_filename)
        if path.parent.name == "empathica":
            return f"{path.stem}.{code.co_name}"
        tb = tb.tb_next
    return "bench"
