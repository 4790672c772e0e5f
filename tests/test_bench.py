"""Benchmark bookkeeping helpers: the config hash and the sweep's budgets."""

import numpy as np

from virconv import StvdConfig
from virconv.bench import config_hash, nearby_discardable_counts, solve_keep_per_bin
from virconv.stvd import bin_histogram
from test_stvd import tensor_at_distances


def test_config_hash_stable_and_order_free():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 12
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_solve_keep_per_bin_targets_kept_fraction():
    counts = [5000, 3000, 2000]
    k = solve_keep_per_bin(counts, rate=0.9)
    kept = sum(min(c, k) for c in counts)
    # The found budget is the nearest achievable to keeping 10%.
    target = 0.1 * sum(counts)
    for other in (k - 1, k + 1):
        if other >= 1:
            alt = sum(min(c, other) for c in counts)
            assert abs(kept - target) <= abs(alt - target)
    assert solve_keep_per_bin([0, 0], rate=0.5) == 1


def test_nearby_discardable_counts_exempts_lidar():
    flags = np.array([0] * 20 + [1] * 30, dtype=np.int8)
    t = tensor_at_distances(np.full(50, 5.0), flags=flags)
    cfg = StvdConfig()
    counts = nearby_discardable_counts(t, cfg)
    assert counts[0] == 30
    assert sum(counts) + 20 == bin_histogram(t, cfg).sum()
