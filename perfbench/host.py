"""Host fingerprint and a fixed calibration kernel.

Both are recorded beside every result and never used to rescale a
metric, so a change of host shows in the trajectory instead of hiding
in it.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.obs.metrics import monotonic


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == Path(mount) or Path(mount) in path.parents
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def fingerprint(recovery_dir: Path) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "recovery_fs": _filesystem(recovery_dir),
    }


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed seeded kernel built from the hot ops.

    The round loop's cost is dominated by argsort/lexsort over pair
    columns and by moment arithmetic over distances; the kernel does
    the same on 200k fixed pseudo-random values.
    """
    rng = np.random.default_rng(20170419)
    x = rng.uniform(0.0, 1.0, 200_000)
    y = rng.uniform(0.0, 1.0, 200_000)
    keys = rng.integers(0, 1_000, 200_000)
    times = []
    for _ in range(reps):
        start = monotonic()
        order = np.argsort(-x, kind="stable")
        np.lexsort((y[order], keys[order]))
        d = np.hypot(x - 0.5, y - 0.5)
        m1 = d.mean()
        m2 = (d * d).mean()
        m4 = ((d - m1) ** 4).mean()
        float(m2 - m1 * m1 + m4)
        times.append(monotonic() - start)
    return statistics.median(times) * 1e3
