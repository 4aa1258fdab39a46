"""Acceptance gate: quantitative envelopes for the whole constructor.

Each test prints a single PASS/FAIL line for its criterion.  The heavy
catalog builds are shared through module-scoped fixtures; the full gate
takes a few minutes because it runs the constructor at tight tolerances
on all benchmark functions.
"""

import csv
import math
import time

import numpy as np
import pytest

from tuckercheb import approximator, catalog, cli
from tuckercheb.approximator import ConstructorConfig, build, halton_points
from tuckercheb.chebyshev import cheb_points, coeffs_to_vals, eval_series, vals_to_coeffs
from tuckercheb.cross import aca, build_oblique
from tuckercheb.serialize import deserialize, serialize
from tuckercheb.tensor import hosvd_ranks, matricize

from known_answers import POINT_CUSP_SEEDS, POINT_CUSP_SLOPES, TIGHT_CASES, check_points, point_cusp

CATALOG_FIVE = ("runge3", "expdist", "coshinv", "spike", "logmix")


def status_line(name, ok, detail=""):
    return f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")


def report(name, ok, detail=""):
    line = status_line(name, ok, detail)
    print(line)
    assert ok, line


def random_points(count, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, (count, 3))


def max_error(approx, fn, pts):
    return float(np.max(np.abs(approx.evaluate_many(pts) - np.asarray(fn(*pts.T), dtype=float))))


@pytest.fixture(scope="module")
def catalog_1e10():
    """All five benchmark functions built at tol 1e-10, with wall times."""
    out = {}
    for name in CATALOG_FIVE:
        start = time.perf_counter()
        approx = build(catalog.get(name), ConstructorConfig(tol=1e-10))
        out[name] = (approx, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def runge3_1e12():
    return build(catalog.get("runge3"), ConstructorConfig(tol=1e-12))


@pytest.fixture(scope="module")
def spike_1e12():
    return build(catalog.get("spike"), ConstructorConfig(tol=1e-12))


@pytest.fixture(scope="module")
def separable_1e12():
    return build(catalog.get("separable-demo"), ConstructorConfig(tol=1e-12))


def test_c01_interpolation_round_trip():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for degree in range(21):
        for _ in range(50):
            c = rng.uniform(-1, 1, degree + 1)
            n = degree + 1
            pts = cheb_points(n) if n > 1 else np.array([0.0])
            vals = eval_series(c, pts)
            if n > 1:
                back = vals_to_coeffs(vals)
                worst = max(worst, float(np.max(np.abs(back - c))))
                grid = coeffs_to_vals(c, n)
                worst = max(worst, float(np.max(np.abs(grid - vals))))
            else:
                worst = max(worst, abs(float(vals[0]) - c[0]))
    elapsed = time.perf_counter() - start
    report(
        "C1 interpolation round-trip (degrees 0..20, 50 trials each)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_aca_exact_rank_recovery():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    failures = []
    for trial in range(100):
        r = int(rng.integers(1, 9))
        nr = int(rng.integers(r + 2, 41))
        nc = int(rng.integers(r + 2, 61))
        m = rng.standard_normal((nr, r)) @ rng.standard_normal((r, nc))
        m0 = float(np.max(np.abs(m)))
        res = aca(m, tol_abs=1e-9 * m0)
        I, J = res.row_indices, res.col_indices
        rec = m[:, J] @ np.linalg.solve(m[np.ix_(I, J)], m[I, :])
        resid = float(np.max(np.abs(m - rec)))
        if res.rank != r or resid > 1e-9 * m0:
            failures.append((trial, r, res.rank, resid))
    elapsed = time.perf_counter() - start
    report(
        "C2 ACA exact-rank recovery (100 seeded matrices, rank 1..8)",
        not failures and elapsed < 1.0,
        f"{len(failures)} failures, {elapsed:.2f}s",
    )


def test_c03_deim_projection_bound():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(11, 51))
        r = int(rng.integers(1, 11))
        q, _ = np.linalg.qr(rng.standard_normal((n, r)))
        proj = build_oblique(q)
        x = rng.standard_normal(n)
        lhs = float(np.linalg.norm(x - proj.apply(x)))
        ortho = float(np.linalg.norm(x - q @ (q.T @ x)))
        if lhs > proj.mixing_norm * ortho + 1e-10:
            failures += 1
    report(
        "C3 oblique-projection error bound (100 random bases)",
        failures == 0,
        f"{failures} violations",
    )


def test_c04_separable_exactness(separable_1e12):
    approx = separable_1e12
    fn = catalog.get("separable-demo")
    pts = halton_points(1000)
    err = max_error(approx, fn, pts)
    ok = tuple(approx.stats["ranks"]) == (1, 1, 1) and err <= 1e-10
    report(
        "C4 separable function is exactly rank (1,1,1)",
        ok,
        f"ranks {tuple(approx.stats['ranks'])}, max error {err:.2e} at 1000 Halton points",
    )


def test_c05_catalog_accuracy(catalog_1e10):
    pts = random_points(1000, seed=0)
    details = []
    ok = True
    total_time = 0.0
    for name in CATALOG_FIVE:
        approx, elapsed = catalog_1e10[name]
        total_time += elapsed
        bound = 1e-8 * approx.stats["vscale"]
        err = max_error(approx, catalog.get(name), pts)
        good = err <= bound
        ok = ok and good
        details.append(f"{name} {err:.2e}{'<=' if good else '>'}{bound:.2e}")
    ok = ok and total_time < 300.0
    report(
        "C5 catalog accuracy at tol 1e-10 (1000 fresh random points)",
        ok,
        "; ".join(details) + f"; build time {total_time:.0f}s",
    )


def test_c06_evaluation_economy(runge3_1e12, spike_1e12):
    r = runge3_1e12.stats
    s = spike_1e12.stats
    r_grid = int(np.prod(r["degrees"]))
    checks = [
        ("runge3 distinct <= 2e6", r["distinct_points"] <= 2_000_000,
         f"{r['distinct_points']}"),
        ("runge3 distinct <= 1% of fine grid", r["distinct_points"] <= 0.01 * r_grid,
         f"{r['distinct_points']} vs grid {r_grid}"),
        ("spike distinct <= 1e7", s["distinct_points"] <= 10_000_000,
         f"{s['distinct_points']}"),
    ]
    ok = all(c[1] for c in checks)
    report(
        "C6 evaluation-economy envelope at tol 1e-12",
        ok,
        "; ".join(f"{name}: {val}" for name, good, val in checks),
    )


def test_c07_restart_behavior(catalog_1e10, separable_1e12):
    runge_restarts = catalog_1e10["runge3"][0].stats["restarts"]
    cosh_restarts = catalog_1e10["coshinv"][0].stats["restarts"]
    sep_restarts = separable_1e12.stats["restarts"]
    ok = runge_restarts >= 1 and cosh_restarts == 0 and sep_restarts == 0
    report(
        "C7 restart behavior (runge3 >=1, coshinv 0, separable 0)",
        ok,
        f"runge3 {runge_restarts}, coshinv {cosh_restarts}, separable {sep_restarts}",
    )


def test_c08_rank_vs_degree_study(tmp_path, capsys):
    # 257 is the nested grid size above 224, the smallest grid whose first
    # off-corner point lies within eps = 1e-4 of the corner (-1,-1,-1).
    out = tmp_path / "rankdeg.csv"
    start = time.perf_counter()
    code = cli.main([
        "study", "rankdeg", "--eps-list", "1e-1,1e-2,1e-3,1e-4",
        "--tol", "1e-10", "--grid", "257", "--out", str(out),
    ])
    elapsed = time.perf_counter() - start
    assert code == cli.OK
    assert "warning" not in capsys.readouterr().err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    degrees = [int(r["degree"]) for r in rows]
    ranks = [int(r["rank"]) for r in rows]
    checks = [
        ("rank non-decreasing", all(a <= b for a, b in zip(ranks, ranks[1:]))),
        ("degree non-decreasing", all(a <= b for a, b in zip(degrees, degrees[1:]))),
        ("rank <= degree", all(r <= d for r, d in zip(ranks, degrees))),
        ("rank ratio <= 4", ranks[-1] / ranks[0] <= 4),
        ("degree ratio >= 8", degrees[-1] / degrees[0] >= 8),
        ("runtime < 10 min", elapsed < 600),
    ]
    ok = all(c[1] for c in checks)
    report(
        "C8 rank-vs-degree study (eps 1e-1..1e-4)",
        ok,
        f"ranks {ranks}, degrees {degrees}; "
        + "; ".join(name for name, good in checks if not good),
    )


def test_c09_hosvd_rank_agreement(catalog_1e10):
    """Phase 1 samples only subtensors of the coarse grid; its ranks must
    match what the same ACA stopping rule (residual maximum below
    tol*max|M|) finds on each complete unfolding of the coarse tensor.
    The Frobenius-budget HOSVD ranks are printed alongside for scale."""
    tol = 1e-10
    details = []
    ok = True
    for name in ("runge3", "coshinv"):
        approx = catalog_1e10[name][0]
        dims = approx.stats["coarse_dims"]
        fn = catalog.get(name)
        grids = [cheb_points(n) for n in dims]
        tensor = np.asarray(
            fn(grids[0][:, None, None], grids[1][None, :, None], grids[2][None, None, :]),
            dtype=float,
        )
        ref = tuple(
            aca(m, tol_abs=tol * float(np.max(np.abs(m)))).rank
            for m in (matricize(tensor, mode) for mode in (1, 2, 3))
        )
        href = hosvd_ranks(tensor, tol)
        ours = tuple(approx.stats["ranks"])
        good = all(o <= a + 2 for o, a in zip(ours, ref))
        ok = ok and good
        details.append(f"{name} ours {ours} vs full-tensor aca {ref} (hosvd {href})")
    report(
        "C9 constructor ranks within +2 of full coarse-tensor ACA ranks",
        ok,
        "; ".join(details),
    )


def test_c10_error_splitting_bound(monkeypatch):
    fn = lambda x, y, z: 1.0 / (1.0 + 10.0 * (x**2 + y**2 + z**2))
    monkeypatch.setattr(approximator, "MAX_FINE_SIZE", 33)
    monkeypatch.setattr(approximator, "MAX_RESTARTS", 0)
    approx = build(fn, ConstructorConfig(tol=1e-12))
    dims = approx.degrees
    grids = [cheb_points(n) for n in dims]

    grid_f = np.asarray(
        fn(grids[0][:, None, None], grids[1][None, :, None], grids[2][None, None, :]),
        dtype=float,
    )
    g = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, 3)
    grid_hat = approx.evaluate_many(g).reshape(dims)
    grid_gap = float(np.max(np.abs(grid_f - grid_hat)))

    # trivariate interpolant of f on the fine grid, via per-axis transforms
    coeffs = grid_f
    for axis in range(3):
        moved = np.moveaxis(coeffs, axis, 0)
        flat = vals_to_coeffs(moved.reshape(moved.shape[0], -1))
        coeffs = np.moveaxis(flat.reshape(moved.shape), 0, axis)
    x = np.linspace(-1, 1, 21)
    basis = [np.polynomial.chebyshev.chebvander(x, n - 1) for n in dims]
    interp = np.einsum("abc,ia,jb,kc->ijk", coeffs, *basis)
    hat = approx.evaluate_many(
        np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    ).reshape(21, 21, 21)
    gap = float(np.max(np.abs(interp - hat)))

    lebesgue = math.prod(2.0 / math.pi * math.log(n) + 1.0 for n in dims)
    bound = lebesgue * grid_gap + 1e-13
    report(
        "C10 interpolant-vs-approximant gap obeys the Lebesgue-product bound",
        gap <= bound,
        f"gap {gap:.2e} <= {lebesgue:.1f} * {grid_gap:.2e}",
    )


def test_c11_determinism_and_serialization():
    fn = catalog.get("logmix")
    cfg = ConstructorConfig(tol=1e-10)
    a = build(fn, cfg)
    b = build(fn, cfg)
    same_stats = a.stats == b.stats
    blob = serialize(a)
    same_bytes = blob == serialize(b)
    c = deserialize(blob)
    pts = random_points(100, seed=3)
    same_eval = np.array_equal(a.evaluate_many(pts), c.evaluate_many(pts))
    report(
        "C11 determinism and bit-exact serialization round trip",
        same_stats and same_bytes and same_eval,
        f"stats {same_stats}, bytes {same_bytes}, eval {same_eval}",
    )


@pytest.mark.xfail(strict=True, reason="item 4")
def test_c12_false_certificates():
    """A certificate is false when the build certifies yet errs above
    ACCEPTANCE_FACTOR*tol*vscale on the 10^4 known-answer check points."""
    cases = [
        (f"cusp(seed {seed}, c {c})", point_cusp(seed, c), 1e-10)
        for seed in POINT_CUSP_SEEDS
        for c in POINT_CUSP_SLOPES
    ]
    cases += [(f"{name}@{tol:g}", catalog.get(name), tol) for name, tol in TIGHT_CASES]
    pts = check_points()
    false = []
    for name, fn, tol in cases:
        approx = build(fn, ConstructorConfig(tol=tol))
        s = approx.stats
        scale = tol * s["vscale"]
        ratio = max_error(approx, fn, pts) / scale
        if s["certified"] and ratio > approximator.ACCEPTANCE_FACTOR:
            false.append(name)
        print(status_line(
            f"C12 {name}",
            not s["certified"] or ratio <= approximator.ACCEPTANCE_FACTOR,
            f"certified {s['certified']}, error {ratio:.3g}x tol*vscale "
            f"(Halton {s['halton_error'] / scale:.3g}x), {s['distinct_points']} distinct",
        ))
    report(
        "C12 no false certificate on the point cusps and tight tolerances",
        not false,
        f"{len(false)} of {len(cases)} false: {', '.join(false)}",
    )
