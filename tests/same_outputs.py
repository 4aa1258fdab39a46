"""Print a fingerprint of the constructor's outputs, one line per case.

A change that is meant to leave every output alone is checked by running
this script on the change and on its parent, then diffing the two
outputs:

    python3 tests/same_outputs.py > after.txt

Each build line gives the case name, the SHA-256 prefix of
json.dumps(stats, sort_keys=True), the SHA-256 prefix of serialize() and
distinct_points.  The last line hashes the rows of the rank-vs-degree
study.  It runs in about 10 s.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from known_answers import (  # noqa: E402
    EXACT_TUCKER_RANKS,
    NARROW_GAUSSIANS,
    exact_tucker,
    hidden_bump,
    narrow_gaussian,
)

from tuckercheb import catalog, cli  # noqa: E402
from tuckercheb.approximator import ConstructorConfig, build  # noqa: E402
from tuckercheb.serialize import serialize  # noqa: E402


def digest(data):
    return hashlib.sha256(data).hexdigest()[:12]


def cases():
    """(name, f, tol, vectorized) of every build that is fingerprinted."""
    for name in sorted(catalog.CATALOG):
        yield name, catalog.get(name), 1e-10, True
    logmix = catalog.get("logmix")
    yield "logmix scalar", logmix, 1e-10, False
    for k in (-560, 560):
        yield f"logmix x2^{k}", lambda x, y, z, k=k: 2.0**k * logmix(x, y, z), 1e-10, True
    for name in ("runge3", "spike"):
        yield f"{name}@1e-12", catalog.get(name), 1e-12, True
    for seed in sorted(EXACT_TUCKER_RANKS):
        yield f"tucker {seed}", exact_tucker(seed), 1e-10, True
    yield "bump", hidden_bump, 1e-10, True
    for c, tol in NARROW_GAUSSIANS:
        yield f"gauss{c}@1e{round(math.log10(tol))}", narrow_gaussian(c), tol, True
    yield "zero", lambda x, y, z: 0.0 * x, 1e-10, True


def main():
    for name, f, tol, vectorized in cases():
        approx = build(f, ConstructorConfig(tol=tol), vectorized=vectorized)
        stats = digest(json.dumps(approx.stats, sort_keys=True).encode())
        print(name, stats, digest(serialize(approx)), approx.stats["distinct_points"])
    rows = cli.rankdeg([1e-1, 1e-2, 1e-3, 1e-4], 1e-10, 60)
    print("rankdeg", digest(repr(rows).encode()), rows)


if __name__ == "__main__":
    main()
