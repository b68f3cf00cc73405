"""Fast paths must be bit-identical to their reference implementations.

The performance layer (vectorized reuse distances, wave-decomposed list
scheduling, batched MinHash, kernel memoization) is only admissible
because it changes *nothing* about simulated results.  These tests pin
that contract with seeded property-style sweeps over the regimes the
simulator actually produces: uniform blocks, heavy-tailed hub blocks,
duplicated durations, short streams, empty rows.
"""

import dataclasses

import numpy as np
import pytest

from repro import perf
from repro.core import plan as core_plan
from repro.core.lowering import ExecLayout, aggregation_kernel
from repro.core.minhash import minhash_signatures
from repro.frameworks import all_frameworks
from repro.frameworks import base as frameworks_base
from repro.frameworks import ours as frameworks_ours
from repro.graph.generators import power_law_graph
from repro.gpusim import memo
from repro.gpusim.cache import (
    _reuse_distances_reference,
    previous_occurrence,
    reuse_distances,
    reuse_distances_from_prev,
    window_hits,
    window_hits_from_prev,
)
from repro.gpusim.config import V100_SCALED
from repro.gpusim.executor import (
    _list_schedule,
    _list_schedule_reference,
    _wave_schedule,
    simulate_kernel,
)
from repro.gpusim.memo import (
    KERNEL_MEMO,
    STREAM_CACHE,
    array_digest,
    clear_caches,
)
from repro.gpusim.metrics import copy_stats
from repro.models import GATConfig, GCNConfig, SageLSTMConfig


@pytest.fixture(autouse=True)
def _clean_state():
    """Each test starts with cold caches and env-controlled switches."""
    clear_caches()
    perf.configure(fastpath="env", memo="env")
    yield
    clear_caches()
    perf.configure(fastpath="env", memo="env")


# ----------------------------------------------------------------------
# Exact LRU reuse distances
# ----------------------------------------------------------------------

def _random_stream(rng):
    n = int(rng.integers(1, 400))
    universe = int(rng.integers(1, 60))
    if rng.random() < 0.3:  # skewed hub reuse
        p = rng.pareto(1.0, universe) + 1
        return rng.choice(universe, size=n, p=p / p.sum())
    return rng.integers(0, universe, size=n)


def test_reuse_distances_matches_reference_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(60):
        stream = _random_stream(rng)
        assert np.array_equal(
            reuse_distances_from_prev(previous_occurrence(stream)),
            _reuse_distances_reference(stream),
        )


def test_reuse_distances_edge_cases():
    for stream in (
        np.empty(0, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.zeros(64, dtype=np.int64),          # one row, max reuse
        np.arange(64),                          # all first touches
        np.array([5, 4, 3, 2, 1, 2, 3, 4, 5]),  # nested reuse
    ):
        assert np.array_equal(
            reuse_distances(stream), _reuse_distances_reference(stream)
        )


def test_reuse_distances_dispatch_respects_fastpath_flag():
    stream = np.array([1, 2, 1, 3, 2, 1])
    perf.configure(fastpath=False)
    slow = reuse_distances(stream)
    perf.configure(fastpath=True)
    fast = reuse_distances(stream)
    assert np.array_equal(slow, fast)


def test_window_hits_from_prev_matches_whole_pipeline():
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 40, size=500)
    prev = previous_occurrence(stream)
    for cap in (1, 4, 16, 64):
        assert np.array_equal(
            window_hits(stream, cap), window_hits_from_prev(prev, cap)
        )


# ----------------------------------------------------------------------
# Wave-decomposed list scheduling
# ----------------------------------------------------------------------

def _duration_mixes(rng):
    b = int(rng.integers(1, 1500))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return rng.uniform(0.1, 1.0, b)
    if kind == 1:  # heavy tail (hub blocks)
        return rng.pareto(1.1, b) + 0.01
    if kind == 2:  # near-uniform with float jitter
        return 1.0 + rng.normal(0, 1e-6, b)
    if kind == 3:  # heavy duplication / ties
        return rng.choice([0.5, 1.0, 2.0], b)
    d = rng.uniform(0.01, 0.02, b)  # one giant hub among tiny blocks
    d[rng.integers(0, b)] = 50.0
    return d


def test_wave_schedule_matches_heap_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(80):
        d = _duration_mixes(rng)
        slots = int(rng.integers(1, 170))
        s_ref, e_ref = _list_schedule_reference(d, slots)
        s_fast, e_fast = _wave_schedule(d, slots)
        assert np.array_equal(s_ref, s_fast)  # bit-identical, not approx
        assert np.array_equal(e_ref, e_fast)


def test_list_schedule_dispatch_and_trivial_paths():
    d = np.array([3.0, 1.0, 2.0])
    s, e = _list_schedule(d, slots=8)  # fewer blocks than slots
    assert np.array_equal(s, np.zeros(3)) and np.array_equal(e, d)
    s0, e0 = _list_schedule(np.empty(0), slots=4)
    assert s0.size == 0 and e0.size == 0
    perf.configure(fastpath=False)
    ref = _list_schedule(np.array([1.0, 5.0, 2.0, 2.0, 1.0]), 2)
    perf.configure(fastpath=True)
    fast = _list_schedule(np.array([1.0, 5.0, 2.0, 2.0, 1.0]), 2)
    assert np.array_equal(ref[0], fast[0])
    assert np.array_equal(ref[1], fast[1])


# ----------------------------------------------------------------------
# Batched MinHash
# ----------------------------------------------------------------------

def test_minhash_batched_matches_reference():
    for seed in range(4):
        g = power_law_graph(
            1200 + 400 * seed, avg_degree=4 + 3 * seed, seed=seed
        )
        perf.configure(fastpath=False)
        ref = minhash_signatures(g, num_hashes=19 + seed, seed=seed)
        perf.configure(fastpath=True)
        fast = minhash_signatures(g, num_hashes=19 + seed, seed=seed)
        assert np.array_equal(ref.matrix, fast.matrix)
        assert np.array_equal(ref.empty, fast.empty)


# ----------------------------------------------------------------------
# Kernel memoization
# ----------------------------------------------------------------------

def _sample_kernel(seed=1, feat=64):
    g = power_law_graph(3000, avg_degree=11, seed=seed)
    return aggregation_kernel(g, feat, V100_SCALED, ExecLayout.default(g))


def test_memoized_simulation_equals_cold_run():
    k = _sample_kernel()
    perf.configure(fastpath=False, memo=False)
    cold = simulate_kernel(k, V100_SCALED)
    perf.configure(fastpath=True, memo=True)
    first = simulate_kernel(k, V100_SCALED)   # miss: fills the memo
    second = simulate_kernel(k, V100_SCALED)  # hit: served from it
    for f in dataclasses.fields(cold):
        assert getattr(cold, f.name) == getattr(first, f.name) == \
            getattr(second, f.name), f.name
    assert len(KERNEL_MEMO) == 1
    assert len(STREAM_CACHE) == 1


def test_memo_restores_caller_name_and_isolates_occupancy():
    perf.configure(memo=True)
    k = _sample_kernel()
    a = simulate_kernel(k, V100_SCALED)
    renamed = dataclasses.replace(k, name="other")
    b = simulate_kernel(renamed, V100_SCALED)
    assert b.name == "other" and a.name == k.name
    assert b.makespan == a.makespan
    b.occupancy[0.5] = -1.0  # mutating a hit must not poison the cache
    c = simulate_kernel(k, V100_SCALED)
    assert c.occupancy == a.occupancy


def test_memo_distinguishes_config_and_overhead():
    perf.configure(memo=True)
    k = _sample_kernel()
    base = simulate_kernel(k, V100_SCALED)
    other_cfg = simulate_kernel(
        k, V100_SCALED.replace(kernel_launch_overhead=123e-6)
    )
    other_ovh = simulate_kernel(k, V100_SCALED, dispatch_overhead=1e-3)
    assert other_cfg.launch_overhead != base.launch_overhead
    assert other_ovh.launch_overhead != base.launch_overhead
    assert len(KERNEL_MEMO) == 3


def test_array_digest_not_fooled_by_recycled_ids():
    digests = set()
    for i in range(20):
        arr = np.arange(100) + i  # same shape/dtype, new allocation
        digests.add(array_digest(arr))
        del arr  # allocator is free to recycle the address
    assert len(digests) == 20


def test_stream_cache_off_and_on_identical():
    k = _sample_kernel(seed=5)
    perf.configure(fastpath=True, memo=False)
    no_cache = simulate_kernel(k, V100_SCALED)
    perf.configure(fastpath=True, memo=True)
    cached = simulate_kernel(k, V100_SCALED)
    for f in dataclasses.fields(no_cache):
        assert getattr(no_cache, f.name) == getattr(cached, f.name), f.name


def test_digest_table_evicts_dead_arrays():
    """Entries leave with their arrays (weakref callbacks), no sweep."""
    start = len(memo._DIGESTS)
    arrays = [np.arange(64) + i for i in range(300)]
    for arr in arrays:
        array_digest(arr)
    assert len(memo._DIGESTS) == start + 300
    del arr
    arrays.clear()
    assert len(memo._DIGESTS) == start
    assert not hasattr(memo, "_DIGEST_SWEEP_AT")


def test_digest_after_clear_survives_earlier_callbacks():
    dropped = [np.arange(32) + i for i in range(50)]
    for arr in dropped:
        array_digest(arr)
    del arr
    kept = np.arange(32) * 3
    array_digest(kept)
    # A late callback of the pre-clear registration of ``kept`` must not
    # evict the re-registration made after clear_caches().
    stale = memo._DIGESTS[id(kept)][0]
    clear_caches()
    digest = array_digest(kept)
    dropped.clear()  # their callbacks fire now
    memo._evict_digest(stale)
    assert memo._DIGESTS[id(kept)][1] == digest
    assert len(memo._DIGESTS) == 1
    assert array_digest(kept) == digest


def test_copy_stats_is_an_independent_equal_copy():
    stats = simulate_kernel(_sample_kernel(), V100_SCALED)
    copy = copy_stats(stats)
    renamed = copy_stats(stats, name="other")
    assert dataclasses.asdict(copy) == dataclasses.asdict(stats)
    assert renamed.name == "other" and stats.name != "other"
    assert renamed.makespan == stats.makespan
    copy.occupancy[0.5] = -1.0
    assert stats.occupancy[0.5] != -1.0


# ----------------------------------------------------------------------
# Plan-key derivation: the memoized config dicts change no key
# ----------------------------------------------------------------------

_MODEL_VARIANTS = {
    "gcn": GCNConfig(dims=(32, 16, 4)),
    "gat": GATConfig(dims=(32, 8, 4), negative_slope=0.1),
    "sage_lstm": SageLSTMConfig(hidden=16),
}
_SIM_VARIANTS = {
    "default": V100_SCALED,
    "launch": V100_SCALED.replace(kernel_launch_overhead=7e-6),
    # Equal to V100_SCALED's bandwidth but an int: JSON tells them apart.
    "int_bandwidth": V100_SCALED.replace(
        dram_bandwidth=int(V100_SCALED.dram_bandwidth)
    ),
}


def _uncached_signature(monkeypatch, fw, model, g, sim, cfg):
    with monkeypatch.context() as m:
        for mod in (core_plan, frameworks_base, frameworks_ours):
            m.setattr(mod, "config_dict", dataclasses.asdict)
        return fw.plan_signature(model, g, sim, model=cfg)[0]


@pytest.mark.parametrize("model", sorted(_MODEL_VARIANTS))
def test_cached_plan_keys_equal_uncached(monkeypatch, model):
    g = power_law_graph(300, 6, seed=2)
    for fw in all_frameworks().values():
        for sim_name, sim in _SIM_VARIANTS.items():
            for cfg in (None, _MODEL_VARIANTS[model]):
                expected = _uncached_signature(
                    monkeypatch, fw, model, g, sim, cfg
                )
                for _ in range(2):  # the miss, then the hit
                    key = fw.plan_signature(model, g, sim, model=cfg)[0]
                    assert key == expected, (fw.name, sim_name, cfg)
    assert (
        core_plan.plan_key("dgl", "gcn", g, model_config={}, options={},
                           gpu_config=_SIM_VARIANTS["default"],
                           dispatch_overhead=0.0)
        != core_plan.plan_key("dgl", "gcn", g, model_config={}, options={},
                              gpu_config=_SIM_VARIANTS["int_bandwidth"],
                              dispatch_overhead=0.0)
    )


def test_config_dict_falls_back_for_unhashable_configs(monkeypatch):
    g = power_law_graph(300, 6, seed=2)
    listy = GCNConfig(dims=[32, 16, 4])  # frozen, but a list field
    with pytest.raises(TypeError):
        hash(listy)

    @dataclasses.dataclass
    class Mutable:
        width: int = 4

    assert core_plan.config_dict(listy) == dataclasses.asdict(listy)
    assert core_plan.config_dict(Mutable()) == {"width": 4}
    fw = all_frameworks()["dgl"]
    assert fw.plan_signature("gcn", g, V100_SCALED, model=listy)[0] == (
        _uncached_signature(monkeypatch, fw, "gcn", g, V100_SCALED, listy)
    )
