"""Why fibers beat slices: rank grows slowly, degree grows fast.

For the family f_eps = 1/(x+y+z+3+eps) the polynomial degree needed for
a fixed accuracy blows up like 1/sqrt(eps) as eps -> 0, while the
multilinear rank grows only logarithmically.  Methods whose cost scales
with rank * degree (fiber sampling) therefore win over methods scaling
with rank * degree^2 (slice sampling).
"""

from tuckercheb.cli import rankdeg


def main():
    tol = 1e-10
    # the first off-corner point of a 257 grid lies 7.5e-5 from the corner,
    # inside the eps = 1e-4 layer where the rank grows; a coarser grid
    # misses that layer and prints an aliased rank (see `study rankdeg`)
    grid = 257

    print(f"tol {tol}, HOSVD on a {grid}^3 grid\n")
    print(f"{'eps':>8} {'degree':>8} {'rank':>6} {'deg/rank':>9}")
    prev = None
    for eps, degree, rank in rankdeg((1e-1, 1e-2, 1e-3, 1e-4), tol, grid):
        print(f"{eps:8.0e} {degree:8d} {rank:6d} {degree / rank:9.1f}")
        if prev is not None:
            dgrow, rgrow = degree / prev[0], rank / prev[1]
            print(f"{'':8} growth per decade of eps: degree x{dgrow:.1f}, rank x{rgrow:.1f}")
        prev = (degree, rank)

    print("\nDegree roughly triples per decade of eps; rank creeps up by a")
    print("few.  Fiber-based construction pays degree once per rank, not")
    print("degree squared, which is the whole point of the approach.")


if __name__ == "__main__":
    main()
