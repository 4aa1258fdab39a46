"""Binary file format for approximants, plus a JSON stats sidecar.

Layout (all integers u32 little-endian, all reals IEEE-754 binary64
little-endian):

    magic   b"TCHEB3F"
    version u32 (currently 1)
    r1 r2 r3, d1 d2 d3
    core    r1*r2*r3 doubles, Fortran (column-major) order
    A_U     d1*r1 doubles, column-major
    A_V     d2*r2 doubles, column-major
    A_W     d3*r3 doubles, column-major

The construction stats are not part of the binary format; write them
separately as JSON.
"""

import math
import struct

import numpy as np

from .approximator import TuckerApproximant

MAGIC = b"TCHEB3F"
VERSION = 1


class FormatError(ValueError):
    """Malformed approximant stream; position is the byte offset."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at byte {position})")


class UnsupportedVersionError(FormatError):
    pass


def serialize(approx):
    """Encode an approximant to bytes; bit-exact round trip."""
    r1, r2, r3 = approx.ranks
    d1, d2, d3 = approx.degrees
    parts = [
        MAGIC,
        struct.pack("<7I", VERSION, r1, r2, r3, d1, d2, d3),
        np.asarray(approx.core, dtype="<f8").ravel(order="F").tobytes(),
    ]
    for a in approx.coeffs:
        parts.append(np.asarray(a, dtype="<f8").ravel(order="F").tobytes())
    return b"".join(parts)


def _take(data, pos, count, what):
    if pos + count > len(data):
        raise FormatError(f"truncated stream while reading {what}", pos)
    return data[pos : pos + count], pos + count


def deserialize(data):
    """Decode bytes written by serialize back into a TuckerApproximant."""
    pos = 0
    head, pos = _take(data, pos, len(MAGIC), "magic")
    if head != MAGIC:
        raise FormatError("bad magic", 0)
    raw, pos = _take(data, pos, 28, "header")
    version, r1, r2, r3, d1, d2, d3 = struct.unpack("<7I", raw)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}", 7)
    if min(r1, r2, r3, d1, d2, d3) == 0:
        raise FormatError("zero rank or degree in header", 7)

    def block(shape, what, pos):
        raw, new_pos = _take(data, pos, 8 * math.prod(shape), what)
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").copy()
        return arr, new_pos

    core, pos = block((r1, r2, r3), "core", pos)
    a_u, pos = block((d1, r1), "mode-1 coefficients", pos)
    a_v, pos = block((d2, r2), "mode-2 coefficients", pos)
    a_w, pos = block((d3, r3), "mode-3 coefficients", pos)
    if pos != len(data):
        raise FormatError("trailing bytes after payload", pos)
    return TuckerApproximant(core=core, coeffs=(a_u, a_v, a_w), stats={})
