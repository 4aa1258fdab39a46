"""Command-line front end.

Subcommands:
    approx  build an approximant from --expr or --fn and write it to disk
    eval    evaluate a stored approximant at points
    study   rankdeg: rank-vs-degree study for the shifted inverse family
    bench   per-function evaluation-count report over the catalog

Exit codes: 0 success, 2 expression/usage error, 3 non-finite sample,
4 tolerance not certified, 5 I/O or file-format error.
"""

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import catalog, chebyshev, funcexpr
from .approximator import ConstructorConfig, ModeFibers, build, phase2_refine
from .chebyshev import cheb_points, chop_series, vals_to_coeffs
from .oracle import InstrumentedOracle, SamplingError
from .serialize import FormatError, deserialize, serialize
from .tensor import hosvd_truncated

OK = 0
ERR_PARSE = 2
ERR_NAN = 3
ERR_NOT_CERTIFIED = 4
ERR_IO = 5

BENCH_COLUMNS = [
    "function", "r1", "r2", "r3", "d1", "d2", "d3", "restarts", "certified",
    "p1_total", "p1_distinct", "p2_total", "p2_distinct",
    "p3_total", "p3_distinct", "verify_total", "verify_distinct",
    "total", "distinct", "halton_error", "wall_time_s",
]


def _resolve_function(args):
    if args.expr is not None:
        src = args.expr
    else:
        src = catalog.expression(args.fn)
    tree = funcexpr.parse(src)
    return src, funcexpr.as_function(tree)


def _config(args):
    return ConstructorConfig(tol=args.tol, seed=args.seed)


def _print_summary(stats):
    ev = stats["evals"]
    print(f"ranks     : {tuple(stats['ranks'])}")
    print(f"degrees   : {tuple(stats['degrees'])}")
    print(f"restarts  : {stats['restarts']}")
    print(f"evals     : total {stats['total_calls']}, distinct {stats['distinct_points']}")
    for phase in ("phase1", "phase2", "phase3_core", "verify"):
        if phase in ev:
            print(f"  {phase:<11}: total {ev[phase]['total']}, distinct {ev[phase]['distinct']}")
    print(f"halton err: {stats['halton_error']:.3e} (certified: {stats['certified']})")
    if stats["unresolved_modes"]:
        print(f"warning   : unresolved modes {stats['unresolved_modes']}")


def cmd_approx(args):
    try:
        _, fn = _resolve_function(args)
    except (funcexpr.ParseError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_PARSE
    try:
        approx = build(fn, _config(args))
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_NAN
    _print_summary(approx.stats)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(serialize(approx))
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(approx.stats, fh, indent=2)
            fh.write("\n")
    return OK if approx.stats["certified"] else ERR_NOT_CERTIFIED


def cmd_eval(args):
    try:
        with open(args.infile, "rb") as fh:
            approx = deserialize(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_IO
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_IO

    if args.at is not None:
        pts = np.array([args.at])
    else:
        try:
            rows = []
            with open(args.points) as fh:
                for lineno, row in enumerate(csv.reader(fh), start=1):
                    if not row or row[0].lstrip().startswith("#"):
                        continue
                    if len(row) != 3:
                        raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
                    rows.append([float(v) for v in row])
            pts = np.array(rows)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return ERR_IO
        except ValueError as exc:
            print(f"error: malformed points file: {exc}", file=sys.stderr)
            return ERR_IO

    if np.any(np.abs(pts) > 1):
        print("warning: some points lie outside [-1,1]^3", file=sys.stderr)
    values = approx.evaluate_many(pts)

    compare = None
    if args.compare_expr:
        try:
            tree = funcexpr.parse(args.compare_expr)
        except funcexpr.ParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return ERR_PARSE
        exact = funcexpr.eval_expr(tree, pts[:, 0], pts[:, 1], pts[:, 2])
        compare = np.abs(np.asarray(exact, dtype=float) - values)

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        header = ["x", "y", "z", "fhat"] + (["abs_error"] if compare is not None else [])
        writer.writerow(header)
        for i in range(pts.shape[0]):
            row = [
                repr(float(pts[i, 0])),
                repr(float(pts[i, 1])),
                repr(float(pts[i, 2])),
                repr(float(values[i])),
            ]
            if compare is not None:
                row.append(repr(float(compare[i])))
            writer.writerow(row)
    finally:
        if args.out:
            out.close()
    return OK


def fiber_degree(fn, tol):
    """Max Chebyshev degree over a few representative mode-1 fibers.

    Each fiber is refined from 17 points by the constructor's phase 2
    until its coefficient tail is resolved at tol relative to the fiber
    scale, then chopped.
    """
    cfg = ConstructorConfig(tol=tol)
    # not through cli.cheb_points, which sets only the study's HOSVD grid
    x = chebyshev.cheb_points(17)
    best = 0
    for yz in ((-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)):
        oracle = InstrumentedOracle(fn)
        vals = oracle.eval_points(x, np.full(x.size, yz[0]), np.full(x.size, yz[1]))
        fine, _, _ = phase2_refine(oracle, [ModeFibers(1, vals[:, None], [yz])], cfg)
        coeffs = vals_to_coeffs(fine[0].values[:, 0])
        best = max(best, chop_series(coeffs, tol, oracle.vscale).size - 1)
    return best


def corner_gap(grid):
    """Distance 1-cos(pi/(grid-1)) from a corner of [-1,1] to the nearest
    other point of a Chebyshev grid of size grid (half-angle form)."""
    return 2.0 * math.sin(math.pi / (2 * (grid - 1))) ** 2


def min_grid_for_eps(eps):
    """Smallest grid size whose corner_gap is at most eps (eps > 0)."""
    return math.ceil(math.pi / (2.0 * math.asin(min(1.0, math.sqrt(eps / 2.0))))) + 1


def cmd_rankdeg(args):
    try:
        eps_list = [float(s) for s in args.eps_list.split(",") if s.strip()]
        if not eps_list or min(eps_list) <= 0:
            raise ValueError("need at least one eps, all positive")
    except ValueError as exc:
        print(f"error: bad --eps-list: {exc}", file=sys.stderr)
        return ERR_PARSE
    if args.grid < 2:
        print("error: --grid must be at least 2", file=sys.stderr)
        return ERR_PARSE
    if args.grid ** 3 * 8 > 64e9:
        print(
            f"error: grid {args.grid}^3 needs too much memory; use a smaller --grid",
            file=sys.stderr,
        )
        return ERR_IO
    eps_min = min(eps_list)
    if corner_gap(args.grid) > eps_min:
        print(
            f"warning: grid {args.grid} puts its first off-corner point "
            f"{corner_gap(args.grid):.1e} from the corner (-1,-1,-1), farther than "
            f"eps {eps_min!r}; the sampled tensor misses the layer where the rank "
            f"grows. Use --grid {min_grid_for_eps(eps_min)} or larger.",
            file=sys.stderr,
        )
    pts = cheb_points(args.grid)
    X = pts[:, None, None]
    Y = pts[None, :, None]
    Z = pts[None, None, :]
    rows = []
    for eps in eps_list:
        fn = catalog.shifted_inv(eps)
        degree = fiber_degree(fn, args.tol)
        tensor = np.asarray(fn(X, Y, Z), dtype=float)
        _, _, ranks = hosvd_truncated(tensor, args.tol)
        rows.append((eps, degree, max(ranks)))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["eps", "degree", "rank"])
        for eps, degree, rank in rows:
            writer.writerow([repr(eps), degree, rank])
    finally:
        if args.out:
            out.close()
    return OK


def cmd_bench(args):
    names = [s for s in args.fns.split(",") if s.strip()]
    rows = []
    worst = OK
    for name in names:
        try:
            fn = catalog.get(name)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            worst = max(worst, ERR_PARSE)
            continue
        start = time.perf_counter()
        try:
            approx = build(fn, ConstructorConfig(tol=args.tol, seed=args.seed))
        except SamplingError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            worst = max(worst, ERR_NAN)
            continue
        elapsed = time.perf_counter() - start
        s = approx.stats
        ev = s["evals"]

        def phase(p, slot):
            return ev.get(p, {"total": 0, "distinct": 0})[slot]

        rows.append([
            name, *s["ranks"], *s["degrees"], s["restarts"], int(s["certified"]),
            phase("phase1", "total"), phase("phase1", "distinct"),
            phase("phase2", "total"), phase("phase2", "distinct"),
            phase("phase3_core", "total"), phase("phase3_core", "distinct"),
            phase("verify", "total"), phase("verify", "distinct"),
            s["total_calls"], s["distinct_points"],
            f"{s['halton_error']:.6e}", f"{elapsed:.3f}",
        ])
        if not s["certified"]:
            worst = max(worst, ERR_NOT_CERTIFIED)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BENCH_COLUMNS)
            writer.writerows(rows)
    widths = [max(len(str(r[i])) for r in rows + [BENCH_COLUMNS]) for i in range(len(BENCH_COLUMNS))]
    print("  ".join(c.ljust(w) for c, w in zip(BENCH_COLUMNS, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return worst


def make_parser():
    p = argparse.ArgumentParser(prog="tuckercheb")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("approx", help="build an approximant")
    g = pa.add_mutually_exclusive_group(required=True)
    g.add_argument("--expr", help="expression in x, y, z")
    g.add_argument("--fn", help="catalog function name")
    pa.add_argument("--tol", type=float, default=1e-12)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", help="binary approximant output path (.tcheb)")
    pa.add_argument("--stats", help="stats JSON output path")
    pa.set_defaults(func=cmd_approx)

    pe = sub.add_parser("eval", help="evaluate a stored approximant")
    pe.add_argument("--in", dest="infile", required=True)
    ge = pe.add_mutually_exclusive_group(required=True)
    ge.add_argument("--points", help="CSV file with x,y,z rows")
    ge.add_argument("--at", nargs=3, type=float, metavar=("X", "Y", "Z"))
    pe.add_argument("--compare-expr", help="expression to compare against")
    pe.add_argument("--out", help="CSV output path (default stdout)")
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("study", help="reproduction studies")
    ssub = ps.add_subparsers(dest="study", required=True)
    pr = ssub.add_parser("rankdeg", help="rank vs degree for 1/(x+y+z+3+eps)")
    pr.add_argument("--eps-list", required=True, help="comma-separated eps values")
    pr.add_argument("--tol", type=float, default=1e-10)
    pr.add_argument(
        "--grid", type=int, default=100,
        help="points per axis; the rank is only seen when 1-cos(pi/(grid-1)) <= min(eps), "
        "otherwise a warning names the smallest grid that meets it",
    )
    pr.add_argument("--out", help="CSV output path (default stdout)")
    pr.set_defaults(func=cmd_rankdeg)

    pb = sub.add_parser("bench", help="evaluation-count report")
    pb.add_argument("--fns", required=True, help="comma-separated catalog names")
    pb.add_argument("--tol", type=float, default=1e-12)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", help="CSV output path")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
