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
    """Malformed input file; position is the byte offset in an approximant
    stream, or None for a file that is not a .tcheb stream."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at byte {position})")


class UnsupportedVersionError(FormatError):
    pass


def serialize(approx):
    """Encode an approximant to bytes; bit-exact round trip."""
    header = struct.pack("<7I", VERSION, *approx.ranks, *approx.degrees)
    arrays = (approx.core, *approx.coeffs)  # in file order
    payload = (np.asarray(a, dtype="<f8").ravel(order="F").tobytes() for a in arrays)
    return b"".join((MAGIC, header, *payload))


def deserialize(data):
    """Decode bytes written by serialize back into a TuckerApproximant."""
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic", 0)
    if len(data) < 35:
        raise FormatError("truncated stream while reading header", 7)
    version, r1, r2, r3, d1, d2, d3 = struct.unpack_from("<7I", data, 7)
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}", 7)
    if min(r1, r2, r3, d1, d2, d3) == 0:
        raise FormatError("zero rank or degree in header", 7)
    shapes = [(r1, r2, r3), (d1, r1), (d2, r2), (d3, r3)]
    sizes = [math.prod(shape) for shape in shapes]
    end = 35 + 8 * sum(sizes)
    if len(data) != end:
        what = "truncated stream" if len(data) < end else "trailing bytes after payload"
        raise FormatError(what, min(len(data), end))
    blocks = np.split(np.frombuffer(data, dtype="<f8", offset=35), np.cumsum(sizes[:3]))
    core, a_u, a_v, a_w = (b.reshape(s, order="F").copy() for b, s in zip(blocks, shapes))
    return TuckerApproximant(core=core, coeffs=(a_u, a_v, a_w), stats={})
