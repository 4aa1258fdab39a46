"""Command-line front end.

Subcommands:
    approx  build an approximant from --expr or --fn; print the stats JSON
            that --stats writes, and write the approximant to --out
    eval    evaluate a stored approximant at points
    study   rankdeg: rank-vs-degree study for the shifted inverse family
    bench   per-function evaluation-count CSV over the catalog, written to
            --out when every function was built and to stdout otherwise

Exit codes: 0 success, 2 expression/usage error (an unknown catalog
name or an eval point outside [-1,1]^3 included), 3 non-finite sample,
4 tolerance not certified, or no approximant (no attempt finished, or a
sampling call over oracle.MAX_BLOCK points), 5 I/O or file-format error
(any OSError from a command, such as an unreadable input or an
unwritable output file, or a malformed eval points file).  Commands
raise where they find a fault; main maps each error to its code.  Only
two exits are chosen inside a command: an uncertified build's exit 4,
and bench's per-function report (3, 4).
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import catalog, funcexpr
from .approximator import ConstructorConfig, build, phase2_refine
from .chebyshev import cheb_points, chop_series, vals_to_coeffs
from .cross import DegenerateInputError
from .oracle import InstrumentedOracle, SamplingError
from .serialize import FormatError, deserialize, serialize
from .tensor import hosvd_ranks

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

# stats["evals"] keys, in the order of the bench columns
PHASES = ("phase1", "phase2", "phase3_core", "verify")


class UsageError(Exception):
    """A bad option value or eval point, found by a command (exit 2)."""


@contextlib.contextmanager
def _csv_out(path):
    """A csv.writer on the file at path, or on stdout when there is no path."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        yield csv.writer(fh)


def _check_writable(*paths):
    """Raise OSError (exit 5) now, before any sampling, for an output path
    that cannot be written.  A file this creates is removed again, so a
    command that later ends with exit 2 or 3 leaves no new file behind."""
    for path in filter(None, paths):
        created = not os.path.exists(path)
        open(path, "ab").close()
        if created:
            os.remove(path)


def cmd_approx(args):
    fn = funcexpr.parse(args.expr if args.expr is not None else catalog.expression(args.fn))
    _check_writable(args.out, args.stats)
    approx = build(fn, ConstructorConfig(tol=args.tol))
    text = json.dumps(approx.stats, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(serialize(approx))
    if args.stats:
        with open(args.stats, "w") as fh:
            fh.write(text)
    return OK if approx.stats["certified"] else ERR_NOT_CERTIFIED


def cmd_eval(args):
    with open(args.infile, "rb") as fh:
        approx = deserialize(fh.read())

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
            pts = np.array(rows).reshape(-1, 3)  # a file of comments only has no rows
        except ValueError as exc:
            raise FormatError(f"malformed points file: {exc}") from None

    outside = ~np.all(np.abs(pts) <= 1, axis=1)  # NaN is outside too
    if np.any(outside):
        point = tuple(float(v) for v in pts[np.argmax(outside)])
        raise UsageError(f"point {point} lies outside the domain [-1,1]^3")
    values = approx.evaluate_many(pts)

    header = ["x", "y", "z", "fhat"]
    columns = [pts[:, 0], pts[:, 1], pts[:, 2], values]
    if args.compare_expr:
        exact = funcexpr.parse(args.compare_expr)(*pts.T)
        header.append("abs_error")
        columns.append(np.abs(np.asarray(exact, dtype=float) - values))

    with _csv_out(args.out) as writer:
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))
    return OK


def fiber_degree(fn, tol):
    """Max Chebyshev degree over a few representative mode-1 fibers.

    The fibers, sampled at 17 points as the columns of one matrix, are
    refined by the constructor's phase 2 until each is resolved at tol
    relative to its own scale, then chopped at tol times its own maximum.
    """
    yz = np.array([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)])
    oracle = InstrumentedOracle(fn)
    vals = oracle.eval_points(*np.broadcast_arrays(cheb_points(17)[:, None], *yz.T)).reshape(17, 3)
    (fine,), _ = phase2_refine(oracle, [(vals, yz)], tol)
    scales = np.max(np.abs(fine), axis=0)
    return max(chop_series(c, tol, v).size - 1 for c, v in zip(vals_to_coeffs(fine).T, scales))


def corner_gap(grid):
    """Distance 1-cos(pi/(grid-1)) from a corner of [-1,1] to the nearest
    other point of a Chebyshev grid of size grid (half-angle form)."""
    return 2.0 * math.sin(math.pi / (2 * (grid - 1))) ** 2


def min_grid_for_eps(eps):
    """Smallest grid size whose corner_gap is at most eps (eps > 0)."""
    grid = math.ceil(math.pi / (2.0 * math.asin(min(1.0, math.sqrt(eps / 2.0))))) + 1
    # rounding can land one grid past an exact boundary
    return grid - 1 if grid > 2 and corner_gap(grid - 1) <= eps else grid


def rankdeg(eps_list, tol, grid):
    """Rows (eps, degree, rank) of the rank-vs-degree study: for each
    shifted_inv(eps), fiber_degree at tol and the largest truncated-HOSVD
    rank at tol of its samples on the grid^3 Chebyshev grid."""
    pts = cheb_points(grid)
    X, Y, Z = pts[:, None, None], pts[None, :, None], pts[None, None, :]
    rows = []
    for eps in eps_list:
        fn = catalog.shifted_inv(eps)
        degree = fiber_degree(fn, tol)
        tensor = np.asarray(fn(X, Y, Z), dtype=float)
        rows.append((eps, degree, max(hosvd_ranks(tensor, tol))))
    return rows


def cmd_rankdeg(args):
    try:
        eps_list = [_tol(s) for s in args.eps_list.split(",") if s.strip()]
        if not eps_list:
            raise argparse.ArgumentTypeError("need at least one eps")
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad --eps-list: {exc}") from None
    if args.grid < 2:
        raise UsageError("--grid must be at least 2")
    if args.grid ** 3 * 8 > 64e9:
        raise UsageError(f"grid {args.grid}^3 needs too much memory; use a smaller --grid")
    eps_min = min(eps_list)
    if corner_gap(args.grid) > eps_min:
        print(
            f"warning: grid {args.grid} puts its first off-corner point "
            f"{corner_gap(args.grid):.1e} from the corner (-1,-1,-1), farther than "
            f"eps {eps_min!r}; the sampled tensor misses the layer where the rank "
            f"grows. Use --grid {min_grid_for_eps(eps_min)} or larger.",
            file=sys.stderr,
        )
    _check_writable(args.out)
    rows = rankdeg(eps_list, args.tol, args.grid)
    with _csv_out(args.out) as writer:
        writer.writerow(["eps", "degree", "rank"])
        writer.writerows([repr(eps), degree, rank] for eps, degree, rank in rows)
    return OK


def cmd_bench(args):
    names = [s.strip() for s in args.fns.split(",") if s.strip()]
    if not names:
        raise UsageError("bad --fns: need at least one function")
    fns = [catalog.get(name) for name in names]
    _check_writable(args.out)
    rows = []
    worst = OK
    for name, fn in zip(names, fns):
        start = time.perf_counter()
        try:
            approx = build(fn, ConstructorConfig(tol=args.tol))
        except (SamplingError, DegenerateInputError, MemoryError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            worst = max(worst, ERR_NAN if isinstance(exc, SamplingError) else ERR_NOT_CERTIFIED)
            continue
        elapsed = time.perf_counter() - start
        s = approx.stats
        ev = s["evals"]
        counts = [ev[p][k] if p in ev else 0 for p in PHASES for k in ("total", "distinct")]
        rows.append([
            name, *s["ranks"], *s["degrees"], s["restarts"], int(s["certified"]), *counts,
            s["total_calls"], s["distinct_points"],
            f"{s['halton_error']:.6e}", f"{elapsed:.3f}",
        ])
        if not s["certified"]:
            worst = max(worst, ERR_NOT_CERTIFIED)

    # --out only when every function was built; stdout otherwise
    with _csv_out(args.out if len(rows) == len(names) else None) as writer:
        writer.writerow(BENCH_COLUMNS)
        writer.writerows(rows)
    return worst


def _tol(text):
    """argparse type of every --tol: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def make_parser():
    p = argparse.ArgumentParser(prog="tuckercheb")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("approx", help="build an approximant")
    g = pa.add_mutually_exclusive_group(required=True)
    g.add_argument("--expr", help="expression in x, y, z")
    g.add_argument("--fn", help="catalog function name")
    pa.add_argument("--tol", type=_tol, default=1e-12)
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
    pr.add_argument("--tol", type=_tol, default=1e-10)
    pr.add_argument(
        "--grid", type=int, default=100,
        help="points per axis; the rank is only seen when 1-cos(pi/(grid-1)) <= min(eps), "
        "otherwise a warning names the smallest grid that meets it",
    )
    pr.add_argument("--out", help="CSV output path (default stdout)")
    pr.set_defaults(func=cmd_rankdeg)

    pb = sub.add_parser("bench", help="evaluation-count report")
    pb.add_argument("--fns", required=True, help="comma-separated catalog names")
    pb.add_argument("--tol", type=_tol, default=1e-12)
    pb.add_argument("--out", help="CSV output path, written when every function was built (default stdout)")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (funcexpr.ParseError, catalog.UnknownFunction, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_PARSE
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_NAN
    except (DegenerateInputError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_NOT_CERTIFIED
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERR_IO


if __name__ == "__main__":
    sys.exit(main())
