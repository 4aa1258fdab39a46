"""Print a fingerprint of the constructor's outputs, one line per case.

A change that is meant to leave every output alone is checked by running
this script on the change and on its parent, then diffing the two
outputs.  --src fingerprints another tree's src/ with this script's own
cases, so both sides print the same list.  Uncommitted changes against HEAD:

    mkdir -p /tmp/parent && git archive HEAD src | tar -x -C /tmp/parent
    python3 tests/same_outputs.py --src /tmp/parent/src > before.txt
    python3 tests/same_outputs.py > after.txt
    diff before.txt after.txt

Each build line gives the case name, the SHA-256 prefix of
json.dumps(stats, sort_keys=True), the SHA-256 prefix of serialize() and
distinct_points.  The rankdeg line hashes the rows of the rank-vs-degree
study.  Each cli line runs one failing command through cli.main and
gives its exit code and the last line it printed on stderr; the command's
files are in a fresh directory, written {tmp}.  It runs in about 10 s.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from known_answers import (  # noqa: E402
    EXACT_TUCKER_RANKS,
    NARROW_GAUSSIANS,
    exact_tucker,
    hidden_bump,
    narrow_gaussian,
)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:12]


def cases(catalog):
    """(name, f, tol, vectorized) of every build that is fingerprinted."""
    for name in sorted(catalog.CATALOG):
        yield name, catalog.get(name), 1e-10, True
    logmix = catalog.get("logmix")
    yield "logmix scalar", logmix, 1e-10, False
    for k in (-560, 560):
        yield f"logmix x2^{k}", lambda x, y, z, k=k: 2.0**k * logmix(x, y, z), 1e-10, True
    for name in ("runge3", "spike"):
        yield f"{name}@1e-12", catalog.get(name), 1e-12, True
    # an unresolved attempt before the last one was once accepted here
    yield "runge3@1e-8", catalog.get("runge3"), 1e-8, True
    # every attempt but the last stops at MAX_FINE_SIZE; the last ends unresolved
    yield "abs(x)", lambda x, y, z: abs(x), 1e-10, True
    for seed in sorted(EXACT_TUCKER_RANKS):
        yield f"tucker {seed}", exact_tucker(seed), 1e-10, True
    yield "bump", hidden_bump, 1e-10, True
    for c, tol in NARROW_GAUSSIANS:
        yield f"gauss{c}@1e{round(math.log10(tol))}", narrow_gaussian(c), tol, True
    yield "zero", lambda x, y, z: 0.0 * x, 1e-10, True


# failing commands: one per exit-2 check in the front end, then exit 3 and exit 5;
# {tmp}/sep.tcheb holds the separable-demo build
FAILURES = (
    ["approx", "--expr", "sin(x"],
    ["approx", "--fn", "nope"],
    ["bench", "--fns", "shifted-inv(0)"],
    ["bench", "--fns", " , "],
    ["eval", "--in", "{tmp}/sep.tcheb", "--at", "0", "0", "1.5"],
    ["study", "rankdeg", "--eps-list", "1e-1,abc"],
    ["study", "rankdeg", "--eps-list", "1e-1", "--grid", "1"],
    ["study", "rankdeg", "--eps-list", "1e-1", "--grid", "5000"],
    ["approx", "--expr", "log(x-2)"],
    ["eval", "--in", "{tmp}/missing.tcheb", "--at", "0", "0", "0"],
)


def cli_failures(cli, stored):
    """(argv, exit code, last stderr line) of every command in FAILURES."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sep.tcheb").write_bytes(stored)
        for argv in FAILURES:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([a.replace("{tmp}", tmp) for a in argv])
            yield argv, code, err.getvalue().splitlines()[-1].replace(tmp, "{tmp}")


def main():
    parser = argparse.ArgumentParser(description="Fingerprint the constructor's outputs.")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="the src/ directory whose tuckercheb is fingerprinted")
    src = parser.parse_args().src.resolve()
    if not (src / "tuckercheb").is_dir():
        parser.error(f"no tuckercheb package in {src}")
    sys.path.insert(0, str(src))
    from tuckercheb import catalog, cli
    from tuckercheb.approximator import ConstructorConfig, build
    from tuckercheb.serialize import serialize

    stored = {}
    for name, f, tol, vectorized in cases(catalog):
        approx = build(f, ConstructorConfig(tol=tol), vectorized=vectorized)
        stats = digest(json.dumps(approx.stats, sort_keys=True).encode())
        stored[name] = serialize(approx)
        print(name, stats, digest(stored[name]), approx.stats["distinct_points"])
    rows = cli.rankdeg([1e-1, 1e-2, 1e-3, 1e-4], 1e-10, 60)
    print("rankdeg", digest(repr(rows).encode()), rows)
    for argv, code, last in cli_failures(cli, stored["separable-demo"]):
        print("cli", " ".join(argv), "->", code, last)


if __name__ == "__main__":
    main()
