"""Run one benchmark workload in this process; the last stdout line is its result.

``run.py`` starts this file in a fresh interpreter per run, so that peak
memory is per run.  A run sets up (compiles f and draws the seeded point
sets; the eval workloads also build and round-trip their approximant), then
runs rounds.  A round is one ``build`` call (build workloads only), one
``evaluate_many`` batch followed by single-point ``evaluate`` calls, and one
more set-up sample, so that every kind of sample spans the run.

The number of rounds is fixed per workload and scales with ``--seconds``,
so every run of the same code attempts the same operations.  Every
operation is checked and counted in ``attempted``/``failed``.
"""

import argparse
import json
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tr  # noqa: E402

OUT_DIR = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    fn: str  # catalog name
    vectorized: bool
    timed: str  # "build" or "eval"
    # Rounds per REF_SECONDS of --seconds, and single-point evaluate calls per
    # round.  Sized so that a run takes 35-45 s on the 2-vCPU host the
    # benchmark was tuned on, which keeps 70 runs of three workloads within
    # 45 minutes.
    rounds: int
    points: int
    # Set-ups per set-up sample: a build workload's set-up takes about 1 ms,
    # and single set-ups ranged 0.8-1.9 ms within seconds on that host.  An
    # eval workload's set-up builds, so it runs once per sample.
    setup_reps: int


# --seed draws the evaluation point sets; every build uses the library's default
# ConstructorConfig seed.  The build seed picks ACA start columns, and that
# changes the work itself, not the code's speed: for runge3 some seeds take 5
# restarts to degree 16385 (26 s, 1.2 GB) instead of 4 to degree 1449 (16 s,
# 0.9 GB); for expdist it moves one degree between 361 and 721, which moves
# eval_pts_per_s by ~20%.
WORKLOADS = {
    # 4 restarts, fibers refined to degree 1449, the memo reused across
    # attempts: oracle bookkeeping (~85% of the build), phase-1 ACA,
    # phase2_refine, chebyshev, the certificate.
    "build-refine": Workload("runge3", True, "build", rounds=2, points=50, setup_reps=200),
    # per-point scalar f is most of the time: the expensive black-box regime.
    "build-scalar": Workload("logmix", False, "build", rounds=3, points=300, setup_reps=200),
    # degree-721 factors: the Chebyshev basis dominates evaluation, which
    # never touches the oracle.
    "eval-expdist": Workload("expdist", True, "eval", rounds=4, points=100, setup_reps=1),
}
REF_SECONDS = 20.0


def scaled(count, seconds):
    """count per REF_SECONDS, scaled to seconds; at least one."""
    return max(1, round(count * seconds / REF_SECONDS))


@dataclass(frozen=True)
class Sizes:
    tol: float = 1e-10
    # Fresh points for the build accuracy check, drawn from CHECK_SEED: the
    # builds do not depend on --seed, so neither does their check.  With 1000
    # points, one draw in ~60 missed runge3's error near the origin.
    check: int = 10_000
    batch: int = 10_000  # points per evaluate_many call
    batches: int = 2  # distinct batches, cycled by the rounds
    points: int = 500  # distinct single points, cycled


TINY = Sizes(tol=1e-5, check=100, batch=500, points=20)
CHECK_SEED = 0


class Operations:
    """attempted / failed per operation kind; 'wrong' marks outputs that differ
    from what the operation must return exactly (evaluation, round trip)."""

    def __init__(self):
        self.kinds = {}
        self.wrong = 0

    def add(self, kind, ok, wrong=False):
        a, f = self.kinds.get(kind, (0, 0))
        self.kinds[kind] = (a + 1, f + (not ok))
        self.wrong += bool(wrong)

    @property
    def attempted(self):
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self):
        return sum(f for _, f in self.kinds.values())


def timing_summary(samples):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = float(np.percentile(samples, p))
            break
    return out


class Run:
    def __init__(self, name, seed, seconds, sizes, tracer):
        import tuckercheb

        self.tc = tuckercheb
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.sz = sizes
        self.tracer = tracer
        self.ops = Operations()
        self.setup_s = []
        self.builds = []  # per build: seconds, signature, err_ratio, certified, ok
        self.batch_s = []
        self.point_us = []
        self.bytes = None
        self.approx = None  # an eval workload's, built in set-up
        self.refs = None  # reference values of the evaluated approximant

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # -- set-up -------------------------------------------------------------
    def set_up(self):
        tc, sz = self.tc, self.sz
        f = tc.catalog.get(self.wl.fn)
        cfg = tc.ConstructorConfig(tol=sz.tol)
        rng = np.random.default_rng(self.seed)
        self.check_pts = np.random.default_rng(CHECK_SEED).uniform(-1.0, 1.0, (sz.check, 3))
        self.batches = [rng.uniform(-1.0, 1.0, (sz.batch, 3)) for _ in range(sz.batches)]
        self.points = rng.uniform(-1.0, 1.0, (sz.points, 3))
        self.check_f = np.asarray(f(*self.check_pts.T), dtype=float)
        self.f = self.tracer.wrap("funcexpr.f", f) if self.tracer else f
        self.cfg = cfg
        if self.wl.timed == "eval":
            self.approx = self.round_trip(self.build_once())

    def sample_setup(self):
        """Append one setup_s sample: the mean of the workload's setup_reps set-ups."""
        t0 = time.perf_counter()
        for _ in range(self.wl.setup_reps):
            with self.span("bench.setup"):
                self.set_up()
        self.setup_s.append((time.perf_counter() - t0) / self.wl.setup_reps)

    def build_once(self):
        t0 = time.perf_counter()
        try:
            with self.span("bench.build"):
                approx = self.tc.build(self.f, self.cfg, vectorized=self.wl.vectorized)
        except Exception as exc:  # a raising build is a failed operation, not a crash
            print(f"build failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.ops.add("build", False)
            return None
        dt = time.perf_counter() - t0
        ratio = checks.accuracy_ratio(approx, self.check_pts, self.check_f, self.sz.tol)
        ok = ratio <= checks.ACCURACY_FACTOR
        self.ops.add("build", ok)
        self.builds.append({
            "seconds": dt,
            "signature": checks.signature(approx.stats),
            "err_ratio": ratio,
            "halton_error": approx.stats["halton_error"],
            "certified": approx.stats["certified"],
            "ok": ok,
        })
        return approx

    def round_trip(self, approx):
        if approx is None:
            raise RuntimeError(f"{self.name}: no approximant to evaluate")
        data = self.tc.serialize(approx)
        back = self.tc.deserialize(data)
        ok = checks.same_bits(approx, back) and self.tc.serialize(back) == data
        self.ops.add("roundtrip", ok, wrong=not ok)
        self.bytes = len(data)
        return back

    # -- timed part -------------------------------------------------------
    def execute(self):
        """Set up, then run the rounds.  Every round evaluates the same
        approximant: a build workload's first build after its .tcheb round
        trip, or the eval workload's first set-up's."""
        self.sample_setup()
        target = self.approx
        for i in range(scaled(self.wl.rounds, self.seconds)):
            if self.wl.timed == "build":
                approx = self.build_once()
                if target is None and approx is not None:
                    target = self.round_trip(approx)
            if target is not None:
                self.eval_round(target, i)
            self.sample_setup()
        if target is None or not self.builds:
            raise RuntimeError(f"{self.name}: no build succeeded")

    def eval_round(self, approx, i):
        """One evaluate_many batch (the distinct batches, cycled), then the
        round's single-point evaluate calls (the distinct points, cycled)."""
        if self.refs is None:
            self.approx_shape = (approx.ranks, approx.degrees)
            refs = [checks.reference_values(approx, b) for b in self.batches]
            point_refs = checks.reference_values(approx, self.points)
            scale = max(float(np.max(np.abs(r))) for r in refs + [point_refs]) or 1.0
            self.refs = (refs, point_refs, scale)
        refs, point_refs, scale = self.refs
        k = i % len(self.batches)
        with self.span("bench.batch"):
            t0 = time.perf_counter()
            out = approx.evaluate_many(self.batches[k])
            dt = time.perf_counter() - t0
        ok = checks.matches(out, refs[k], scale)
        self.ops.add("evaluate_many", ok, wrong=not ok)
        self.batch_s.append(dt)
        for j in range(i * self.wl.points, (i + 1) * self.wl.points):
            k = j % len(self.points)
            x, y, z = self.points[k]
            with self.span("bench.point"):
                t0 = time.perf_counter()
                out = approx.evaluate(x, y, z)
                dt = time.perf_counter() - t0
            ok = checks.matches(out, point_refs[k], scale)
            self.ops.add("evaluate", ok, wrong=not ok)
            self.point_us.append(dt * 1e6)

    # -- results ------------------------------------------------------------
    def end_to_end(self):
        # Evaluation is reported as total work over total time.  The host this
        # was tuned on switches between a fast and a ~1.8x slower state many
        # times a second; a median of short calls jumps between the two states
        # from run to run, a mean moves with the time spent in each.
        med = statistics.median
        return {
            "build_s": (med(b["seconds"] for b in self.builds), "s"),
            "distinct_evals": (med(b["signature"]["distinct_points"] for b in self.builds), "count"),
            "setup_s": (med(self.setup_s), "s"),
            "eval_pts_per_s": (self.sz.batch * len(self.batch_s) / sum(self.batch_s), "1/s"),
        }

    def detail(self):
        return {
            "workload": self.name,
            "function": self.wl.fn,
            "vectorized": self.wl.vectorized,
            "seed": self.seed,
            "tol": self.sz.tol,
            "operations": {k: {"attempted": a, "failed": f} for k, (a, f) in self.ops.kinds.items()},
            "wrong_outputs": self.ops.wrong,
            "build_s": timing_summary([b["seconds"] for b in self.builds]),
            "setup_s": timing_summary(self.setup_s),
            "evaluate_many_s": timing_summary(self.batch_s),
            "point_eval_us": timing_summary(self.point_us),
            "builds": self.builds,
            "tcheb_bytes": self.bytes,
        }


def check_counts(run, records, key):
    """Every build must give the same counts, in this run and in earlier runs."""
    sigs = [b["signature"] for b in run.builds]
    for s in sigs[1:]:
        if s != sigs[0]:
            raise checks.NondeterminismError(f"{key}: counts differ between builds of one run")
    records.check(key, sigs[0])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="harness self-test sizes")
    args = ap.parse_args(argv)

    import tuckercheb

    src = (ROOT / "src").resolve()
    if src not in Path(tuckercheb.__file__).resolve().parents:
        raise SystemExit(f"tuckercheb imported from {tuckercheb.__file__}, not from {src}")

    sizes = TINY if args.tiny else Sizes()
    tracer = tr.Tracer() if args.trace else None
    run = Run(args.workload, args.seed, args.seconds, sizes, tracer)
    with tr.patched(tracer) if tracer else nullcontext():
        run.execute()

    records = checks.Records(OUT_DIR / "records.json", ROOT)
    key = f"{args.workload}{'-tiny' if args.tiny else ''}"  # builds do not depend on --seed
    check_counts(run, records, key)
    detail = run.detail()
    detail["machine"] = checks.machine()
    OUT_DIR.mkdir(exist_ok=True)
    if tracer:
        import layers

        spans = tracer.arrays()
        metrics, extra = layers.per_layer(run, spans, tr.span_cost())
        untraced = (records.get(key) or {}).get("build_s")
        extra["overhead_measured_s"] = None if untraced is None else detail["build_s"]["median"] - untraced
        detail["trace"] = extra
        spans.save(OUT_DIR / f"spans-{args.workload}.npz")  # the last traced run's spans
    else:
        metrics = run.end_to_end()
        records.note(key, "build_s", metrics["build_s"][0])
    records.save()
    detail["code"] = records.code
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=float))
    print(json.dumps({"detail": str(path.relative_to(ROOT)), "machine": detail["machine"],
                      "operations": detail["operations"], "trace": detail.get("trace")}))
    print(json.dumps({
        "correct": run.ops.wrong == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
