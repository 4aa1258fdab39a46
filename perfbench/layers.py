"""Per-layer metrics of a traced run, computed from its spans.

Build-layer metrics are means per ``build`` call (the spans nested in each
``approximator.build`` span); evaluation metrics are medians per
``evaluate_many`` batch; serialization metrics are medians per call.
Flop counts are computed from array shapes, not measured.
"""

import statistics

import numpy as np

PHASES = {
    "phase1": "approximator.phase1_factors",
    "phase2": "approximator.phase2_refine",
    "phase3": "approximator.phase3_core",
}
ORACLE = ("oracle.eval_points", "oracle.eval_grid")
# Verification is inline in build: the Halton points, their f values, the check.
VERIFY = ("approximator.halton_points", "oracle.eval_points", "approximator.evaluate_many")
LAYERS = ("oracle", "funcexpr", "approximator", "cross", "chebyshev", "tensor", "serialize")
ACCOUNT_RTOL = 0.02  # layer self times must sum to the traced wall time within this share


class AccountingError(RuntimeError):
    """Layer self times do not add up to the traced wall time."""


def _evals(sig, phase):
    return sig["evals"].get(phase, {}).get("distinct", 0)


def per_layer(run, sp, span_cost_s):
    """Return ({name: (value, unit)}, extra detail) for a traced run."""
    builds = np.flatnonzero(sp.named("approximator.build"))
    if builds.size != len(run.builds):
        raise AccountingError("build spans do not match the builds the benchmark made")
    n = builds.size
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + float(value)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for b in builds:
        m = sp.inside(b)
        for layer in LAYERS:
            layer_self[layer] += float(sp.self_time[m & (sp.layer == layer)].sum())
        add("wall", sp.dur[b])
        add("spans", m.sum())
        oracle = m & (sp.named(ORACLE[0]) | sp.named(ORACLE[1]))
        add("oracle.calls", (m & sp.named(ORACLE[0])).sum())
        add("oracle.self_s", sp.self_time[oracle].sum())
        fm = m & sp.named("funcexpr.f")
        add("f.calls", fm.sum())
        add("f.s", sp.dur[fm].sum())
        verify = (sp.parent == b) & (sp.named(VERIFY[0]) | sp.named(VERIFY[1]) | sp.named(VERIFY[2]))
        for key, name in PHASES.items():
            pm = m & sp.named(name)
            add(f"{key}.s", sp.dur[pm].sum())
            add(f"{key}.self_s", sp.self_time[pm].sum())
            if key == "phase1":
                add("attempts", pm.sum())
        add("verify.s", sp.dur[verify].sum())
        for name in ("cross.aca", "cross.build_oblique", "chebyshev.vals_to_coeffs", "chebyshev.cheb_points"):
            km = m & sp.named(name)
            add(f"{name}.calls", km.sum())
            add(f"{name}.s", sp.dur[km].sum())
            add(f"{name}.work", sp.work[km].sum())

    # The layers' self times must account for the build wall time the
    # benchmark measured itself, outside the spans.
    measured = sum(b["seconds"] for b in run.builds)
    covered = sum(layer_self.values())
    if abs(covered - measured) > ACCOUNT_RTOL * measured:
        raise AccountingError(f"layer self times sum to {covered:.3f} s of {measured:.3f} s of builds")

    per = {k: v / n for k, v in tot.items()}
    sigs = [b["signature"] for b in run.builds]
    mean = statistics.fmean
    coarse = mean(float(np.prod(s["coarse_dims"])) for s in sigs)
    points = mean(s["total_calls"] for s in sigs)
    distinct = mean(s["distinct_points"] for s in sigs)
    wall = per["wall"]

    basis, contract = [], []
    for c in np.flatnonzero(sp.named("bench.batch")):
        m = sp.inside(c)
        em = np.flatnonzero(m & sp.named("approximator.evaluate_many"))
        b = float(sp.dur[m & sp.named("chebyshev.eval_series")].sum())
        basis.append(b)
        contract.append(float(sp.dur[em].sum()) - b)
    approx_shape = run.approx_shape
    m_pts = run.sz.batch
    (r1, r2, r3), degrees = approx_shape
    basis_flops = 3.0 * m_pts * sum(d * r for d, r in zip(degrees, (r1, r2, r3)))
    contract_flops = 2.0 * m_pts * (r1 * r2 * r3 + r2 * r3 + r3)

    def med_named(name):
        d = sp.dur[sp.named(name)]
        return float(np.median(d)) if d.size else 0.0

    metrics = {
        "oracle.calls": (per["oracle.calls"], "count"),
        "oracle.points": (points, "count"),
        "oracle.distinct": (distinct, "count"),
        "oracle.hit_ratio": (1.0 - distinct / points if points else 0.0, "ratio"),
        "oracle.self_s": (per["oracle.self_s"], "s"),
        "oracle.self_share": (per["oracle.self_s"] / wall, "ratio"),
        "f.calls": (per["f.calls"], "count"),
        "f.s": (per["f.s"], "s"),
        "f.share": (per["f.s"] / wall, "ratio"),
        "phase1.s": (per["phase1.s"], "s"),
        "phase1.self_s": (per["phase1.self_s"], "s"),
        "phase1.distinct": (mean(_evals(s, "phase1") for s in sigs), "count"),
        "phase1.grid_share": (mean(_evals(s, "phase1") for s in sigs) / coarse, "ratio"),
        "cross.aca.calls": (per["cross.aca.calls"], "count"),
        "cross.aca.s": (per["cross.aca.s"], "s"),
        "cross.aca.entries": (per["cross.aca.work"], "count"),
        "phase2.s": (per["phase2.s"], "s"),
        "phase2.self_s": (per["phase2.self_s"], "s"),
        "phase2.distinct": (mean(_evals(s, "phase2") for s in sigs), "count"),
        "chebyshev.vals_to_coeffs.s": (per["chebyshev.vals_to_coeffs.s"], "s"),
        "chebyshev.cheb_points.calls": (per["chebyshev.cheb_points.calls"], "count"),
        "chebyshev.cheb_points.s": (per["chebyshev.cheb_points.s"], "s"),
        "phase3.s": (per["phase3.s"], "s"),
        "cross.build_oblique.s": (per["cross.build_oblique.s"], "s"),
        "phase3.distinct": (mean(_evals(s, "phase3_core") for s in sigs), "count"),
        "verify.s": (per["verify.s"], "s"),
        "attempts": (per["attempts"], "count"),
        "restarts": (mean(s["restarts"] for s in sigs), "count"),
        "verify.halton_error": (mean(b["halton_error"] for b in run.builds), "abs"),
        "verify.err_ratio": (max(b["err_ratio"] for b in run.builds), "ratio"),
        "verify.false_certified": (mean(float(b["certified"] and not b["ok"]) for b in run.builds), "ratio"),
        "eval.basis.s": (statistics.median(basis), "s"),
        "eval.contract.s": (statistics.median(contract), "s"),
        "eval.basis.share": (statistics.median(b / (b + c) for b, c in zip(basis, contract)), "ratio"),
        "eval.point_us": (statistics.fmean(run.point_us), "us"),
        "eval.basis.flops": (basis_flops, "flop"),
        "eval.contract.flops": (contract_flops, "flop"),
        "serialize.bytes": (float(run.bytes), "bytes"),
        "serialize.s": (med_named("serialize.serialize"), "s"),
        "deserialize.s": (med_named("serialize.deserialize"), "s"),
        "trace.spans": (per["spans"], "count"),
        "trace.overhead_s": (per["spans"] * span_cost_s, "s"),
    }
    extra = {
        "traced_build_s": wall,
        "accounted_share": covered / measured,
        "layer_self_s_per_build": {k: v / n for k, v in layer_self.items()},
        "span_cost_s": span_cost_s,
        "overhead_estimated_s": per["spans"] * span_cost_s,
        "flops_note": "eval.*.flops computed from shapes: basis 3*m*sum(d*r), contraction 2*m*(r1*r2*r3 + r2*r3 + r3)",
    }
    return metrics, extra
