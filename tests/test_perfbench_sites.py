"""The benchmark's per-layer probe sites (``perfbench/layers.py``).

The traced benchmark run times each layer by rebinding a function, by
name, at the module or class that calls it.  A rename in ``repro.serve``
or ``repro.core`` would otherwise surface only as a failed traced run or a
layer that silently reads 0; these tests make it fail tier 1 instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.patterns import se_pattern
from repro.serve import ServeClient, serve_in_thread

# perfbench is a top-level directory of the checkout, not an installed package.
ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import INPROCESS_SITES, SERVER_SITES, Probe  # noqa: E402


@pytest.fixture(autouse=True)
def _clean_registry():
    """The served test writes store counters; leave none behind."""
    obs.reset()
    yield
    obs.reset()


def _bound(target: str, attr: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        return getattr(owner, class_name).__dict__[attr]
    return getattr(owner, attr)


def test_every_site_installs_and_uninstalls():
    sites = list(SERVER_SITES) + list(INPROCESS_SITES)
    originals = [_bound(target, attr) for target, attr, _layer in sites]
    probe = Probe()
    probe.install(sites)
    try:
        for target, attr, _layer in sites:
            assert hasattr(_bound(target, attr), "__wrapped__"), (target, attr)
    finally:
        probe.uninstall()
    for (target, attr, _layer), original in zip(sites, originals):
        assert _bound(target, attr) is original, (target, attr)


def test_served_requests_reach_the_server_sites(tmp_path):
    probe = Probe()
    probe.install(SERVER_SITES)
    try:
        with serve_in_thread(store_dir=str(tmp_path / "store")) as srv:
            with ServeClient(port=srv.port) as client:
                client.solve(benchmark="se", n_max=6, shape=(32, 32))
                client.solve(benchmark="se", n_max=6, shape=(32, 32))
                client.simulate(benchmark="se", shape=(16, 16))
        dump = probe.dump()
    finally:
        probe.uninstall()
    for layer in (
        "serve.protocol.parse",
        "serve.protocol.payload",
        "serve.server.write",
        "core.cache.canonicalize",
        "serve.coalesce.submit",
        "serve.store.get",
        "serve.store.put",
        "sched.map_tasks",
        "core.solver.solve",
        "core.transform.derive_alpha",
        "core.mapping.build",
        "sim.simulate_sweep",
    ):
        assert dump.get(layer, {}).get("calls", 0) > 0, layer


def test_inprocess_calls_reach_the_inprocess_sites():
    probe = Probe()
    probe.install(INPROCESS_SITES)
    try:
        solver = importlib.import_module("repro.core.solver")
        ltb = importlib.import_module("repro.baselines.ltb")
        solver.solve(se_pattern(), shape=(16, 16), n_max=6, cache=False)
        ltb.ltb_partition(se_pattern())
        dump = probe.dump()
    finally:
        probe.uninstall()
    for layer in (
        "core.solver.solve",
        "core.transform.derive_alpha",
        "core.mapping.build",
        "baselines.ltb.search",
    ):
        assert dump.get(layer, {}).get("calls", 0) > 0, layer
