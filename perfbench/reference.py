"""A fixed reference kernel, timed in the same process next to every pass.

Pass times on a shared host drift with the host's load by tens of percent
over seconds. The kernel does a fixed amount of the same kinds of work as the
workloads (JSON lines, small frozen dataclasses, numpy gathers, bincounts,
matrix-vector products, random draws and masked updates over the columns of
an array larger than the L2 cache), so the drift shows in
its time too, and `norm_wall_s` divides it out: a pass's wall time times
REF_S over the mean kernel time just before and just after the pass. The
kernel is benchmark code and never changes with the program, so the ratio
moves only when the program does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# The kernel's time on the 2-core Xeon (KVM) machine the benchmark was defined
# on, when that host was quiet; it only scales norm_wall_s into seconds.
REF_S = 0.1

_rng = np.random.default_rng(12345)
_X = _rng.random(100_000)
_IDX = _rng.integers(0, 100_000, 50_000)
_M = _rng.random((20_000, 6))
_RECS = [{"user_id": f"u{i:08d}", "theta": float(x), "n": i} for i, x in enumerate(_X[:3000])]


@dataclass(frozen=True)
class _Record:
    a: float
    b: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("a must be >= 0")


def reference() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(2):
        text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in _RECS)
        [json.loads(line) for line in text.split("\n")]
        [_Record(float(x), i) for i, x in enumerate(_X[:5000])]
    ones = np.ones(_M.shape[1])
    for _ in range(8):
        np.bincount(_IDX % 7, weights=_X[_IDX])
        np.logaddexp(0.0, _M @ ones)
        _M.T @ (_M @ ones)
    cells = np.random.default_rng(0).lognormal(0.0, 1.0, (6_000, 100))
    k = np.zeros(len(cells))
    for t in range(cells.shape[1] - 1):
        won = (cells[:, t] < 1.0) & (cells[:, t + 1] < 2.0)
        k += np.where(won, cells[:, t], 0.0)
    return time.perf_counter() - start
