"""Size bounds shared by the whole-array paths and the served protocol.

The Section 4.4 address math has one fast implementation, the native
load and sweep kernels (:mod:`repro.sim.native`, for the mapping types
registered with :func:`repro.native.register_native_spec`), and one
reference, the scalar :class:`~repro.core.mapping.BankMapping` methods.
Bulk callers read :data:`DEFAULT_CHUNK_ELEMENTS` from this module at call
time, not through an import-time copy, so patching it reaches them all.
"""

from __future__ import annotations

from typing import Tuple

#: Elements one bulk block holds: the native sweep's attribution chunk
#: (iterations × reads) and the same-size sweep's candidate block
#: (candidates × offsets), 2 MiB as int64.  The served protocol caps a
#: pattern's bounding box, pair count and sweep ceiling at it too.
DEFAULT_CHUNK_ELEMENTS = 1 << 18

#: The largest array ``/simulate`` accepts; larger shapes get a 400
#: before any solve.
DEFAULT_MAX_GRID_ELEMENTS = 1 << 26


def grid_size(shape: Tuple[int, ...]) -> int:
    """Number of elements in an array of ``shape``."""
    total = 1
    for w in shape:
        total *= int(w)
    return total
