"""Correctness checks the benchmark applies to every operation it times.

The reference evaluator is the benchmark's own: a Chebyshev-Vandermonde
basis per mode (numpy's recurrence, not the library's Clenshaw path) and a
``tensordot`` contraction of the core.  It shares no code with
``TuckerApproximant.evaluate``/``evaluate_many``.
"""

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as npcheb

ACCURACY_FACTOR = 100.0  # fresh-point error bound, in units of tol*vscale (acceptance C5)
EVAL_RTOL = 1e-12  # evaluate/evaluate_many against the reference, relative to max|reference|
_BLOCK = 1 << 22  # Vandermonde entries per block (32 MB), at any degree


def reference_values(approx, pts):
    """f_approx at an (m, 3) array of points, by Vandermonde basis and tensordot."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty(pts.shape[0])
    step = max(1, _BLOCK // max(a.shape[0] for a in approx.coeffs))
    for lo in range(0, pts.shape[0], step):
        block = pts[lo : lo + step]
        u, v, w = (
            npcheb.chebvander(block[:, d], a.shape[0] - 1) @ a
            for d, a in enumerate(approx.coeffs)
        )
        cu = np.tensordot(u, approx.core, axes=(1, 0))  # (m, r2, r3)
        out[lo : lo + step] = np.sum(np.sum(cu * v[:, :, None], axis=1) * w, axis=1)
    return out


def accuracy_ratio(approx, pts, fvals, tol):
    """Max fresh-point error of the approximant in units of tol*vscale."""
    err = float(np.max(np.abs(reference_values(approx, pts) - fvals)))
    scale = tol * approx.stats["vscale"]
    if not np.isfinite(err):
        return np.inf
    return err / scale if scale > 0 else (0.0 if err == 0.0 else np.inf)


def matches(out, ref, scale):
    """evaluate output agrees with the reference to EVAL_RTOL * scale."""
    out = np.asarray(out, dtype=float)
    return bool(out.shape == np.shape(ref) and np.all(np.abs(out - ref) <= EVAL_RTOL * scale))


def same_bits(a, b):
    """Two approximants hold bit-identical core and coefficient arrays."""
    pairs = [(a.core, b.core)] + list(zip(a.coeffs, b.coeffs))
    return all(
        x.shape == y.shape and np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()
        for x, y in pairs
    )


def signature(stats):
    """The build counts that must repeat exactly for the same code and seed."""
    keys = ("distinct_points", "total_calls", "restarts", "ranks", "degrees", "coarse_dims", "evals")
    return {k: stats[k] for k in keys}


class NondeterminismError(RuntimeError):
    """The same code and seed produced different build counts."""


class Records:
    """Build counts per (code, workload), kept across runs in the checkout.

    The code is identified by a hash of the library and benchmark sources, so
    a record is only compared with runs of identical code.
    """

    KEEP = 4  # code versions kept in the file

    def __init__(self, path, root):
        self.path = Path(path)
        h = hashlib.sha256()
        for sub in ("src/tuckercheb", "perfbench"):
            for p in sorted((Path(root) / sub).glob("*.py")):
                h.update(p.name.encode())
                h.update(p.read_bytes())
        self.code = h.hexdigest()[:16]
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def get(self, key):
        return self.data.get(self.code, {}).get(key)

    def check(self, key, sig):
        """Raise unless sig equals the recorded counts for key; record it if new."""
        old = self.get(key)
        if old is not None and old["signature"] != sig:
            raise NondeterminismError(f"{key}: counts {sig} differ from an earlier run's {old['signature']}")
        self.data.setdefault(self.code, {}).setdefault(key, {"signature": sig})

    def note(self, key, field, value):
        self.data.setdefault(self.code, {}).setdefault(key, {})[field] = value

    def save(self):
        for old in list(self.data)[: -self.KEEP]:
            del self.data[old]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(tmp, self.path)


def machine():
    """The machine and software a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_cap": os.environ.get("OMP_NUM_THREADS"),
    }
