"""The compiled tier's contract: building, loading, selection, fallback.

Engine *equivalence* lives in the shared engine matrices
(``test_vectorized_sim.py``, ``test_ltb_vectorized.py``,
``test_baseline_sim.py``); this file covers everything around it:

* the loader: built on first use into a per-user cache keyed by source
  hash, reused without a compiler afterwards, published atomically for
  racing processes, and refused when the cache is not private;
* ``engine="auto"`` selection order (native → scalar) and the guarantee
  that auto never raises when the tier is unavailable;
* explicit ``engine="native"`` failing loudly with
  :class:`~repro.errors.NativeUnavailableError` and the compiler's message;
* the fused-kernel spec registry's validation rules;
* the verify tier degrading to the scalar reference alone — not erroring —
  when the native engine is unavailable;
* the server loading the tier before it accepts a connection.

The unavailable tier is simulated by the ``native_unavailable`` fixture (a
fresh loader whose compile step exits non-zero), so these tests run on any
host; the few that need a real build skip where the host cannot make one.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import NATIVE_SKIP_REASON

from repro import NativeUnavailableError, native
from repro.baselines.ltb import LTB_ENGINES, ltb_partition, resolve_ltb_engine
from repro.core import BankMapping, partition
from repro.errors import MappingError, ReproError, SimulationError
from repro.patterns import log_pattern, se_pattern
from repro.serve import ServeClient, ServeError, serve_in_thread
from repro.serve.protocol import parse_simulate_spec
from repro.sim.memsim import ENGINES, resolve_engine, simulate_sweep
from repro.verify.oracles import _differential_engines

SRC = Path(__file__).resolve().parent.parent / "src"

#: The extension this test process's loader built or found, or None.
_BUILT = native.build_info()["path"]

needs_build = pytest.mark.skipif(_BUILT is None, reason=NATIVE_SKIP_REASON)


def _mapping(shape=(12, 14)):
    return BankMapping(solution=partition(log_pattern()), shape=shape)


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty cache under ``XDG_CACHE_HOME`` and a loader that has not run."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_loader", native._Loader())
    return tmp_path / "xdg" / "repro" / "native"


@pytest.fixture
def copy_compile(monkeypatch):
    """Stand in for the compiler by copying this process's build, and
    count the calls."""
    calls = []

    def compile_(command, source, output):
        calls.append(source)
        shutil.copyfile(_BUILT, output)

    monkeypatch.setattr(native, "_compile", compile_)
    return calls


def _forbid(monkeypatch, name):
    def forbidden(*_args, **_kwargs):
        raise AssertionError(f"native.{name} must not run here")

    monkeypatch.setattr(native, name, forbidden)


def _module_files(directory):
    return sorted(p.name for p in Path(directory).iterdir())


class TestLoader:
    def test_import_builds_and_loads_nothing(self, tmp_path):
        code = (
            "import repro.baselines.ltb, repro.core.solver\n"
            "from repro import native\n"
            "assert not native._loader.done\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        assert list(tmp_path.iterdir()) == []

    @needs_build
    def test_cold_cache_compiles_once_then_loads_without_compiler(
        self, fresh_cache, monkeypatch
    ):
        calls = []
        real_compile = native._compile

        def counting(command, source, output):
            calls.append(source)
            real_compile(command, source, output)

        monkeypatch.setattr(native, "_compile", counting)
        info = native.build_info()
        assert info["available"], info
        assert info["build_s"] > 0
        assert len(calls) == 1
        assert native.available() and len(calls) == 1
        assert _module_files(fresh_cache) == [Path(info["path"]).name]
        mode = os.lstat(fresh_cache).st_mode
        assert stat.S_IMODE(mode) == 0o700

        monkeypatch.setattr(native, "_loader", native._Loader())
        _forbid(monkeypatch, "_compile")
        again = native.build_info()
        assert again["available"] and again["abi_version"] == native.ABI_VERSION == 2
        assert again["path"] == info["path"]
        assert again["build_s"] is None

    @needs_build
    def test_source_change_builds_a_new_entry(
        self, fresh_cache, copy_compile, monkeypatch, tmp_path
    ):
        old = native.build_info()["path"]
        original = native.SOURCE
        edited = tmp_path / "_nativemodule.c"
        edited.write_bytes(original.read_bytes() + b"/* edited */\n")
        monkeypatch.setattr(native, "SOURCE", edited)
        monkeypatch.setattr(native, "_loader", native._Loader())
        loaded = []
        real_import = native._import_extension
        monkeypatch.setattr(
            native, "_import_extension", lambda p: loaded.append(p) or real_import(p)
        )
        new = native.build_info()["path"]
        assert new != old
        assert loaded == [Path(new)]
        assert copy_compile == [original, edited]
        assert len(_module_files(fresh_cache)) == 2

    def test_refuses_group_writable_cache_dir(self, fresh_cache, monkeypatch):
        fresh_cache.mkdir(parents=True)
        fresh_cache.chmod(0o770)
        _forbid(monkeypatch, "_compile")
        _forbid(monkeypatch, "_import_extension")
        assert not native.available()
        assert "writable by group or others" in native.build_info()["import_error"]

    @needs_build
    def test_refuses_group_writable_cached_file(
        self, fresh_cache, copy_compile, monkeypatch
    ):
        path = Path(native.build_info()["path"])
        path.chmod(0o720)
        monkeypatch.setattr(native, "_loader", native._Loader())
        _forbid(monkeypatch, "_import_extension")
        assert not native.available()
        error = native.build_info()["import_error"]
        assert str(path) in error and "writable by group or others" in error

    @needs_build
    def test_refuses_cached_file_owned_by_someone_else(
        self, fresh_cache, copy_compile, monkeypatch
    ):
        path = Path(native.build_info()["path"])
        monkeypatch.setattr(native, "_loader", native._Loader())
        real_lstat = os.lstat

        def foreign_owner(target, *args, **kwargs):
            info = real_lstat(target, *args, **kwargs)
            if Path(target) != path:
                return info
            fields = list(info[:10])
            fields[4] = info.st_uid + 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(os, "lstat", foreign_owner)
        _forbid(monkeypatch, "_import_extension")
        assert not native.available()
        error = native.build_info()["import_error"]
        assert str(path) in error and "not by the current user" in error

    @needs_build
    def test_racing_processes_share_one_entry(self, tmp_path):
        code = "import json; from repro import native; print(json.dumps(native.build_info()))"
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
            )
            for _ in range(2)
        ]
        infos = []
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            infos.append(json.loads(out))
        assert all(info["available"] for info in infos), infos
        assert infos[0]["path"] == infos[1]["path"]
        assert _module_files(tmp_path / "repro" / "native") == [
            Path(infos[0]["path"]).name
        ]


class TestSelection:
    def test_auto_prefers_native_then_scalar(self):
        expected = "native" if native.available() else "scalar"
        assert resolve_engine(_mapping()) == expected
        assert resolve_ltb_engine("auto") == expected

    def test_unavailable_tier_resolves_auto_to_scalar(self, native_unavailable):
        assert not native.available()
        assert resolve_engine(_mapping()) == "scalar"
        assert resolve_ltb_engine("auto") == "scalar"
        # The server estimates an auto /simulate as the engine it will run.
        doc = {"benchmark": "log", "shape": [16, 20]}
        assert parse_simulate_spec(doc).work_estimate() == parse_simulate_spec(
            {**doc, "engine": "scalar"}
        ).work_estimate()

    def test_auto_never_raises_when_native_missing(self, native_unavailable):
        report = simulate_sweep(_mapping(), engine="auto")
        assert report.iterations > 0
        result = ltb_partition(se_pattern(), engine="auto")
        assert result.solution.n_banks >= 1

    def test_subclass_resolves_to_scalar(self):
        class Tweaked(BankMapping):
            def offset_of(self, element, ops=None):
                return super().offset_of(element, ops)

        mapping = Tweaked(solution=partition(log_pattern()), shape=(12, 14))
        assert resolve_engine(mapping) == "scalar"

    def test_engine_catalogs_list_native(self):
        assert "native" in ENGINES
        assert "native" in LTB_ENGINES


class TestExplicitNativeFailsLoudly:
    def test_sim_raises_native_unavailable(self, native_unavailable):
        with pytest.raises(NativeUnavailableError, match=native_unavailable):
            simulate_sweep(_mapping(), engine="native")

    def test_ltb_raises_native_unavailable(self, native_unavailable):
        with pytest.raises(NativeUnavailableError, match="engine='auto'"):
            ltb_partition(log_pattern(), engine="native")

    def test_error_type_is_catchable_both_ways(self):
        # Callers that treat the tier as optional can catch RuntimeError;
        # callers in this package can catch the repro root.
        assert issubclass(NativeUnavailableError, ReproError)
        assert issubclass(NativeUnavailableError, RuntimeError)

    def test_ineligible_mapping_beats_availability(self, native_unavailable):
        # A formula-overriding subclass is rejected for engine="native"
        # with the dispatch error, not an availability error.
        class Tweaked(BankMapping):
            def offset_of(self, element, ops=None):
                return super().offset_of(element, ops)

        mapping = Tweaked(solution=partition(log_pattern()), shape=(12, 14))
        with pytest.raises(SimulationError, match="stock BankMapping"):
            simulate_sweep(mapping, engine="native")


class TestBuildInfo:
    def test_build_info_reports_the_compile_failure(self, native_unavailable):
        info = native.build_info()
        assert info["available"] is False
        assert info["abi_version"] is None and info["path"] is None
        assert info["import_error"].startswith("compiling _nativemodule.c failed (exit 1)")
        assert info["import_error"].endswith(native_unavailable)

    def test_build_info_when_available(self):
        info = native.build_info()
        assert set(info) == {"available", "abi_version", "import_error", "path", "build_s"}
        assert info["available"] is (_BUILT is not None)
        if _BUILT is not None:
            assert info["abi_version"] == native.ABI_VERSION == 2
            assert info["import_error"] is None
            assert Path(info["path"]).parent == native.cache_dir()
        else:
            assert info["import_error"]

    def test_require_names_the_build_failure(self, native_unavailable):
        with pytest.raises(NativeUnavailableError) as excinfo:
            native.require()
        assert str(excinfo.value).endswith(native_unavailable)


class TestServer:
    @needs_build
    def test_healthz_reports_native_after_start(self, fresh_cache, copy_compile):
        with serve_in_thread() as server:
            # Loaded during start, before any request arrived.
            assert native._loader.done and copy_compile
            with ServeClient(port=server.port) as client:
                assert client.healthz()["native"] is True

    def test_unavailable_tier_answers_native_simulate_with_400(
        self, native_unavailable
    ):
        with serve_in_thread() as server, ServeClient(port=server.port) as client:
            assert client.healthz()["native"] is False
            with pytest.raises(ServeError) as excinfo:
                client.simulate(benchmark="se", shape=[12, 14], engine="native")
            assert excinfo.value.http_status == 400
            assert native_unavailable in str(excinfo.value)


class TestSpecRegistry:
    def test_stock_mapping_has_spec(self):
        assert native.has_native_spec(BankMapping)
        spec = native.native_spec_for(_mapping())
        assert spec["kind"] == 0
        assert spec["n_banks"] == _mapping().n_banks

    def test_exact_type_lookup_excludes_subclasses(self):
        class Sub(BankMapping):
            pass

        assert not native.has_native_spec(Sub)
        sub = Sub(solution=partition(log_pattern()), shape=(12, 14))
        assert native.native_spec_for(sub) is None

    def test_non_mapping_type_rejected(self):
        with pytest.raises(MappingError, match="BankMapping subclass"):
            native.register_native_spec(dict, lambda m: {})

    def test_non_callable_builder_rejected(self):
        class Sub2(BankMapping):
            pass

        with pytest.raises(MappingError, match="not callable"):
            native.register_native_spec(Sub2, None)


@needs_build
class TestSweepKernelArguments:
    def _arguments(self, with_cycles, with_banks):
        """A valid ``sweep`` call on a clean load, with the per-iteration
        outputs chosen by the caller."""
        import numpy as np

        from repro.sim.native import (
            _bank_layout,
            _kernel_layout,
            _origin_deltas,
            _sweep_domain,
        )

        compiled = native.require()
        mapping = _mapping()
        layout = _kernel_layout(native.native_spec_for(mapping), mapping.shape)
        sizes, bases = _bank_layout(mapping)
        flat = np.arange(12 * 14, dtype=np.int64)
        storage = np.zeros(int(sizes.sum()), dtype=np.int64)
        written = np.zeros(int(sizes.sum()), dtype=np.uint8)
        occupancy = np.zeros(mapping.n_banks, dtype=np.int64)
        assert compiled.load_banks(
            *layout, flat, bases, sizes, storage, written, occupancy
        )[0] == 0
        ranges, lens, total = _sweep_domain(mapping, 1, None)
        m = mapping.solution.pattern.size
        return compiled.sweep, (
            *layout,
            _origin_deltas(mapping.solution.pattern),
            m,
            np.array([r.step for r in ranges], dtype=np.int64),
            np.array(lens, dtype=np.int64),
            0,
            total,
            total,
            bases,
            storage,
            written,
            flat,
            1,
            1,
            np.zeros(m + 1, dtype=np.int64),
            np.zeros(mapping.n_banks, dtype=np.int64),
            np.zeros(mapping.n_banks, dtype=np.int64),
            np.empty(total, dtype=np.int64) if with_cycles else None,
            np.empty(total * m, dtype=np.int64) if with_banks else None,
            np.empty(m, dtype=np.int64),
        )

    @pytest.mark.parametrize("with_cycles, with_banks", [(True, True), (False, False)])
    def test_outputs_together_run(self, with_cycles, with_banks):
        sweep, args = self._arguments(with_cycles, with_banks)
        assert sweep(*args)[0] == 0

    @pytest.mark.parametrize("with_cycles, with_banks", [(True, False), (False, True)])
    def test_one_output_without_the_other_is_a_value_error(
        self, with_cycles, with_banks
    ):
        sweep, args = self._arguments(with_cycles, with_banks)
        with pytest.raises(ValueError, match="both cycles_out and banks_out"):
            sweep(*args)


class TestVerifyDegradation:
    def test_oracles_degrade_to_the_scalar_reference(self, native_unavailable):
        assert _differential_engines() == ("scalar",)

    def test_oracles_include_native_when_available(self):
        expected = ("scalar", "native") if _BUILT is not None else ("scalar",)
        assert _differential_engines() == expected

    def test_scalar_only_oracles_still_run_clean(self, native_unavailable):
        # The full differential oracles execute without error (and without
        # failures) when the native engine is unavailable.
        from repro.verify import CaseSpec, run_oracles

        case = CaseSpec.from_dict(
            {
                "seed": 0,
                "index": 0,
                "label": "native-degradation",
                "offsets": [[0, 0], [0, 1], [1, 0], [2, 2]],
                "shape": [9, 13],
                "n_max": None,
                "scheme": "same-size",
            }
        )
        outcome = run_oracles(case)
        assert outcome.ok, outcome.failures
        assert "sim_differential" in outcome.checked
        assert "ltb_differential" in outcome.checked
