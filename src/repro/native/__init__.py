"""Optional compiled fast tier (``engine="native"``).

The hand-written C extension :mod:`repro.native._native` implements the two
hottest inner loops of the reproduction — whole-trace banked-memory conflict
simulation and the per-``N`` LTB candidate scan — and is exposed through the
existing ``engine=`` dispatch in :func:`repro.sim.memsim.simulate_sweep` and
:func:`repro.baselines.ltb.ltb_partition`.  It is **never** a hard
dependency:

* build it with ``make build-ext`` (any C compiler; no third-party headers);
* :func:`available` reports whether the compiled module can be used;
* ``engine="native"`` without the extension raises
  :class:`~repro.errors.NativeUnavailableError` with the build hint;
* ``engine="auto"`` silently falls back to the NumPy engines;
* ``REPRO_NATIVE=0`` force-disables the tier even when the extension is
  importable.

Like the NumPy bulk tier's kernel registry
(:func:`repro.core.vectorized.register_bulk_kernel`), mapping types opt into
the *fused* native trace kernel by registering a spec builder with
:func:`register_native_spec` (keyed by exact type — subclasses do not
inherit, mirroring the conservative bulk dispatch).  The stock
:class:`~repro.core.mapping.BankMapping` registers here; the cyclic/block
baselines register theirs in :mod:`repro.baselines.mapping`.  Bulk-capable
types *without* a spec (e.g. ``PackedBankMapping``) still run under
``engine="native"`` through a hybrid path: addresses from the registered
NumPy bulk kernel, conflict accounting in C.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional

from ..core.mapping import BankMapping
from ..errors import MappingError, NativeUnavailableError

__all__ = [
    "BUILD_HINT",
    "NativeUnavailableError",
    "available",
    "build_info",
    "has_native_spec",
    "native_spec_for",
    "register_native_spec",
    "require",
]

#: One-line build instruction quoted by every unavailability error.
BUILD_HINT = (
    "build it with `make build-ext` (equivalently "
    "`REPRO_BUILD_NATIVE=1 python setup.py build_ext --inplace`; "
    "requires a C compiler)"
)

_module: Any = None
_import_error: Optional[str] = None


def _load() -> Any:
    """Import the compiled module once; remember the failure otherwise."""
    global _module, _import_error
    if _module is None and _import_error is None:
        try:
            from . import _native as compiled  # type: ignore[attr-defined]

            _module = compiled
        except ImportError as exc:
            _import_error = str(exc)
    return _module


def _kill_switched() -> bool:
    return os.environ.get("REPRO_NATIVE", "").strip() == "0"


def available() -> bool:
    """Whether ``engine="native"`` can run right now.

    False when the extension is not built *or* when ``REPRO_NATIVE=0``
    disables it; ``engine="auto"`` callers use this to fall back to the
    NumPy engines silently.
    """
    if _kill_switched():
        return False
    return _load() is not None


def require() -> Any:
    """The compiled module, or a :class:`NativeUnavailableError` that says
    exactly how to get one (explicit ``engine="native"`` path)."""
    if _kill_switched():
        raise NativeUnavailableError(
            "the native engine is disabled by REPRO_NATIVE=0; unset it or "
            "use engine='auto' to fall back to the NumPy engines"
        )
    module = _load()
    if module is None:
        raise NativeUnavailableError(
            f"the repro native extension is not built ({_import_error}); "
            f"{BUILD_HINT}, or use engine='auto' to fall back to the NumPy "
            "engines"
        )
    return module


def build_info() -> Dict[str, Any]:
    """Diagnostic snapshot: availability, ABI, kill switch, import error."""
    module = _load()
    return {
        "available": available(),
        "abi_version": getattr(module, "ABI_VERSION", None),
        "kill_switched": _kill_switched(),
        "import_error": _import_error,
    }


# -- fused-kernel spec registry ---------------------------------------------

#: A native spec builder: ``mapping -> dict`` of fused-kernel parameters
#: (see ``repro.sim.native`` for the consumer).
NativeSpecBuilder = Callable[[Any], Dict[str, Any]]

_NATIVE_SPECS: Dict[type, NativeSpecBuilder] = {}


def register_native_spec(mapping_type: type, builder: NativeSpecBuilder) -> None:
    """Register a fused native trace-kernel spec for a mapping type.

    The builder must describe address math identical to the type's scalar
    ``address_of`` — the dual-engine test matrix and the ``repro.verify``
    differential oracles enforce exactly that.  Lookup is by exact type,
    like :func:`repro.core.vectorized.register_bulk_kernel`.
    """
    if not (isinstance(mapping_type, type) and issubclass(mapping_type, BankMapping)):
        raise MappingError(
            f"native specs require a BankMapping subclass, got {mapping_type!r}"
        )
    if not callable(builder):
        raise MappingError(
            f"native spec builder for {mapping_type.__name__} is not callable"
        )
    _NATIVE_SPECS[mapping_type] = builder


def has_native_spec(mapping_type: type) -> bool:
    """Whether ``mapping_type`` (exactly, not via inheritance) has a spec."""
    return mapping_type in _NATIVE_SPECS


def native_spec_for(mapping: BankMapping) -> Optional[Dict[str, Any]]:
    """The fused-kernel spec for ``mapping``, or None (hybrid path)."""
    builder = _NATIVE_SPECS.get(type(mapping))
    return None if builder is None else builder(mapping)


_SCHEME_CODES = {"two-level": 1, "wide": 2}


def _linear_spec(mapping: BankMapping) -> Dict[str, Any]:
    """Fused-kernel parameters for the stock Section 4.4 mapping.

    Unknown scheme labels fold into the direct formula, matching
    ``PartitionSolution.bank_of``'s fall-through.
    """
    solution = mapping.solution
    inner = mapping._inner_banks
    return {
        "kind": 0,
        "scheme": _SCHEME_CODES.get(solution.scheme, 0),
        "n_banks": mapping.n_banks,
        "inner": inner,
        "window": mapping.rows_per_bank * inner,
        "bank_ports": solution.bank_ports,
        "inner_bank_size": mapping.inner_bank_size,
        "dim": 0,
        "divisor": 1,
        "alpha": tuple(int(a) for a in solution.transform.alpha),
        "bank_shape": mapping.bank_shape,
    }


register_native_spec(BankMapping, _linear_spec)
