"""Host probe: a fixed amount of CPU work timed, plus the load average.

Recorded before, during and after every run for information only; a slow
probe marks a run whose timings were taken on a busy host.
"""

from __future__ import annotations

import os
import time

import numpy as np

_A = np.random.default_rng(0).standard_normal((300, 300))


def host_probe() -> dict:
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    for _ in range(10):
        (_A @ _A).sum()
    wall_ms = (time.perf_counter() - t0) * 1e3
    cpu_ms = (time.process_time() - cpu0) * 1e3
    la = os.getloadavg()
    return {"cpu_probe_ms": round(wall_ms, 3),
            "cpu_probe_cpu_ms": round(cpu_ms, 3),
            "loadavg_1m": round(la[0], 2)}
