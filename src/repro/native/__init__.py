"""Compiled fast tier (``engine="native"``), built on first use.

The hand-written C extension :mod:`repro.native._native` implements the two
hottest inner loops of the reproduction — whole-trace banked-memory conflict
simulation and the per-``N`` LTB candidate scan — and is exposed through the
existing ``engine=`` dispatch in :func:`repro.sim.memsim.simulate_sweep` and
:func:`repro.baselines.ltb.ltb_partition`.  There is no build step:

* the first :func:`available`, :func:`require` or :func:`build_info` call in
  a process loads the extension from a per-user cache (:func:`cache_dir`),
  keyed by the SHA-256 of the C source, the interpreter's extension suffix
  and the compile command; on a miss it first compiles the source there
  with the host C compiler.  Importing this module does none of that;
* the cache directory and the module file must belong to the current user
  and be writable by nobody else, because loading a shared object runs its
  code;
* ``engine="auto"`` uses the extension whenever it loads and falls back to
  the NumPy engines silently when it cannot (no compiler, no Python
  headers, a failed or timed-out compile, an unsafe cache);
* ``engine="native"`` then raises
  :class:`~repro.errors.NativeUnavailableError` naming the reason, which
  :func:`build_info` also reports.

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

import hashlib
import importlib.machinery
import importlib.util
import json
import os
import stat
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..core.mapping import BankMapping
from ..errors import MappingError, NativeUnavailableError

__all__ = [
    "NativeUnavailableError",
    "available",
    "build_info",
    "cache_dir",
    "has_native_spec",
    "native_spec_for",
    "register_native_spec",
    "require",
]

#: The extension's C source, compiled into the cache on first use.
SOURCE = Path(__file__).with_name("_nativemodule.c")
#: What ``PyInit__native`` sets ``ABI_VERSION`` to; a cached module
#: reporting anything else is not loaded.
ABI_VERSION = 1
#: A compile running longer than this leaves the tier unavailable.
COMPILE_TIMEOUT_S = 60.0
#: How many trailing compiler stderr lines a build failure quotes.
STDERR_TAIL_LINES = 5

_MODULE_NAME = "repro.native._native"


class _BuildFailed(Exception):
    """Why the extension cannot be loaded in this process."""


def cache_dir() -> Path:
    """The per-user build cache, created with mode 0700 if missing.

    ``$XDG_CACHE_HOME/repro/native``, or ``~/.cache/repro/native`` when
    that variable is unset (or not absolute); when that directory cannot be
    created or written, ``<tempfile.gettempdir()>/repro-native-<uid>``.
    """
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    try:
        base = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
        preferred = base / "repro" / "native"
        preferred.mkdir(mode=0o700, parents=True, exist_ok=True)
        if os.access(preferred, os.W_OK | os.X_OK):
            return preferred
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        pass
    fallback = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    fallback.mkdir(mode=0o700, exist_ok=True)
    return fallback


def _check_private(path: Path, is_kind: Callable[[int], bool], kind: str) -> None:
    """Refuse ``path`` unless it is a ``kind`` (not a symlink) that the
    current user owns and that group and others cannot write."""
    info = os.lstat(path)
    if not is_kind(info.st_mode):
        raise _BuildFailed(f"{path} is not a {kind}")
    if info.st_uid != os.getuid():
        raise _BuildFailed(
            f"{path} is owned by uid {info.st_uid}, not by the current user "
            f"(uid {os.getuid()}); refusing to load from it"
        )
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise _BuildFailed(
            f"{path} is writable by group or others (mode "
            f"{stat.S_IMODE(info.st_mode):o}); refusing to load from it"
        )


def _compile_command() -> List[str]:
    """The compiler and flags ``setup.py build_ext`` used, without file
    names: sysconfig's ``LDSHARED``, ``CFLAGS`` and ``CCSHARED``, ``-O3``
    and the Python include directory."""
    import shlex
    import sysconfig

    config = sysconfig.get_config_vars()
    if not config.get("LDSHARED"):
        raise _BuildFailed("this interpreter's sysconfig names no C compiler (LDSHARED)")
    return [
        *shlex.split(config["LDSHARED"]),
        *shlex.split(config.get("CFLAGS") or ""),
        *shlex.split(config.get("CCSHARED") or ""),
        "-O3",
        "-I" + sysconfig.get_paths()["include"],
    ]


def _compile(command: List[str], source: Path, output: Path) -> None:
    """Compile and link ``source`` into the shared object ``output``."""
    import subprocess

    try:
        done = subprocess.run(
            [*command, str(source), "-o", str(output)],
            capture_output=True,
            text=True,
            errors="replace",
            timeout=COMPILE_TIMEOUT_S,
            check=False,
        )
    except OSError as exc:
        raise _BuildFailed(f"no C compiler: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise _BuildFailed(
            f"compiling {source.name} timed out after {COMPILE_TIMEOUT_S:g} s"
        ) from exc
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-STDERR_TAIL_LINES:])
        raise _BuildFailed(
            f"compiling {source.name} failed (exit {done.returncode}): {tail}"
        )


def _build(command: List[str], path: Path) -> None:
    """Compile into a temporary file beside ``path``, then publish it with
    one ``os.replace``, so another process compiling or loading at the
    same time only ever sees a complete module."""
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=path.suffix, dir=path.parent)
    os.close(fd)
    try:
        _compile(command, SOURCE, Path(tmp))
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.lexists(tmp):
            os.unlink(tmp)


def _import_extension(path: Path) -> Any:
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(path))
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


class _Loader:
    """The process's one attempt to load the extension, and its outcome."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.done = False
        self.module: Any = None
        self.error: Optional[str] = None
        self.path: Optional[Path] = None
        self.build_s: Optional[float] = None

    def load(self) -> Any:
        """The compiled module, or None once loading failed."""
        if not self.done:
            with self._lock:
                if not self.done:
                    try:
                        self.module = self._load()
                    except (_BuildFailed, OSError, ImportError) as exc:
                        self.error = str(exc)
                    self.done = True
        return self.module

    def _load(self) -> Any:
        import sysconfig

        command = _compile_command()
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        key = hashlib.sha256(
            SOURCE.read_bytes() + json.dumps([suffix, command]).encode()
        ).hexdigest()
        directory = cache_dir()
        _check_private(directory, stat.S_ISDIR, "directory")
        path = directory / f"_native-{key[:16]}{suffix}"
        if not os.path.lexists(path):
            started = time.perf_counter()
            _build(command, path)
            self.build_s = time.perf_counter() - started
        _check_private(path, stat.S_ISREG, "regular file")
        module = _import_extension(path)
        abi = getattr(module, "ABI_VERSION", None)
        if abi != ABI_VERSION:
            raise _BuildFailed(f"{path} has ABI_VERSION {abi!r}, expected {ABI_VERSION}")
        self.path = path
        return module


_loader = _Loader()


def available() -> bool:
    """Whether ``engine="native"`` can run in this process.

    The first call loads (and if needed compiles) the extension;
    ``engine="auto"`` callers use this to fall back to the NumPy engines
    silently.
    """
    return _loader.load() is not None


def require() -> Any:
    """The compiled module, or a :class:`NativeUnavailableError` that names
    why it could not be built or loaded (explicit ``engine="native"``)."""
    module = _loader.load()
    if module is None:
        raise NativeUnavailableError(
            "engine='native' needs the compiled extension, which is "
            "unavailable here (engine='auto' falls back to the NumPy "
            f"engines): {_loader.error}"
        )
    return module


def build_info() -> Dict[str, Any]:
    """Diagnostic snapshot: whether the tier is available, its ABI, why
    not (``import_error``), the loaded file, and the compile time this
    process paid (``build_s``, None on a cache hit)."""
    module = _loader.load()
    return {
        "available": module is not None,
        "abi_version": getattr(module, "ABI_VERSION", None),
        "import_error": _loader.error,
        "path": None if _loader.path is None else str(_loader.path),
        "build_s": _loader.build_s,
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
