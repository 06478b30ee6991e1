"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError`, so callers can
catch one base class.  Input-validation failures additionally derive from
:class:`ValueError` (or :class:`TypeError`) so that idiomatic Python callers
who expect the built-in types keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PatternError(ReproError, ValueError):
    """An access pattern is malformed (empty, ragged, non-integer, ...)."""


class DimensionMismatchError(ReproError, ValueError):
    """Two objects that must share dimensionality do not."""


class PartitioningError(ReproError):
    """A partitioning algorithm could not produce a valid solution."""


class InfeasibleConstraintError(PartitioningError):
    """The requested constraints (e.g. ``n_max``) admit no valid solution."""


class MappingError(ReproError):
    """A bank mapping is invalid: two elements collide in (bank, offset)."""


class HardwareModelError(ReproError, ValueError):
    """A hardware model was configured inconsistently."""


class SimulationError(ReproError):
    """The memory simulator detected an inconsistency at run time."""


class HLSError(ReproError, ValueError):
    """The HLS front-end was given an unsupported loop nest or access."""


class NativeUnavailableError(ReproError, RuntimeError):
    """``engine="native"`` was requested but the compiled extension cannot run.

    Raised when the C extension (:mod:`repro.native`) could not be built or
    loaded, for example on a host without a C compiler; the message names
    the reason.  ``engine="auto"`` never raises this — it falls back to the
    scalar engines silently.
    """
