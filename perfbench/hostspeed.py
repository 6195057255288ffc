"""How fast the host runs right now, and latencies adjusted for it.

The benchmark's reference box is a 2-core share of a busy host.  Its speed
drifts by up to 2x over minutes, and everything on it slows together:
timing the same warm-jobs call back to back, the median of ten-second windows
moved from 137 to 192 ms inside one 200-second run.  A probe of fixed
numeric work run between the timed requests moved with it (5.3 to 7.6 ms),
and the call latency divided by the probe time varied three times less
(standard deviation over mean 3.1% against 9.9% across those windows).

So the benchmark runs :func:`reference_load` between requests and around
set-up, never inside a timed interval, and reports each latency also as ``latency *
REFERENCE_PROBE_S / probe``: the latency on a host where the probe takes
:data:`REFERENCE_PROBE_S` (time spent waiting on a timer is not scaled, see
:meth:`HostSpeed.adjust`).  The probe is plain numpy/scipy on fixed random
data, shaped like the GNN forward (gather, small GEMMs, an attention
einsum, a sparse scatter), and uses no code of the program under test, so a
change to the program moves the adjusted latency as it moves the raw one.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

import numpy as np

#: the probe time the adjusted latencies are scaled to: a round figure
#: within the 3.7-9.4 ms the probe took on the 2-core reference box (Intel
#: Xeon, OpenBLAS, one BLAS thread)
REFERENCE_PROBE_S = 0.005
#: probes on each side of a request whose median gives its host speed
WINDOW = 4
#: untimed probe runs before the first timed one; the first builds the
#: probe's data.  Even after them, the first probes of a process take up to
#: twice as long as later ones (the probe allocates arrays of up to 1.5 MB),
#: so set-up takes the median of many probes.
WARMUP_RUNS = 8

_NODES, _EDGES, _CHANNELS, _HEADS = 3000, 6000, 32, 4


def _probe_data():
    import scipy.sparse as sparse

    rng = np.random.default_rng(0)
    x = rng.random((_NODES, _CHANNELS))
    weight = rng.random((_CHANNELS, _CHANNELS)) / _CHANNELS
    attention = rng.random((_HEADS, _CHANNELS // _HEADS))
    src = rng.integers(0, _NODES, _EDGES)
    dst = np.sort(rng.integers(0, _NODES, _EDGES))
    scatter = sparse.csr_matrix(
        (np.ones(_EDGES), (dst, np.arange(_EDGES))), shape=(_NODES, _EDGES))
    return x, weight, attention, src, scatter


_DATA = None


def reference_load() -> float:
    """Run the fixed probe work once; returns a value so none of it is
    skipped."""
    global _DATA
    if _DATA is None:
        _DATA = _probe_data()
    x, weight, attention, src, scatter = _DATA
    total = 0.0
    for _ in range(3):
        h = x[src] @ weight
        logit = np.einsum("ehc,hc->eh",
                          h.reshape(_EDGES, _HEADS, -1), attention)
        logit = np.where(logit > 0, logit, 0.2 * logit)
        alpha = np.exp(logit - logit.max())
        out = scatter @ (h * np.repeat(alpha, _CHANNELS // _HEADS, axis=1))
        total += float(np.maximum(out @ weight, 0.0).sum())
    return total


class HostSpeed:
    """Probe times and when they were taken, in the order taken."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 load: Callable[[], object] = reference_load) -> None:
        self.clock = clock
        self.load = load
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self) -> float:
        start = self.clock()
        self.load()
        end = self.clock()
        self.at.append(0.5 * (start + end))
        self.took.append(end - start)
        return end - start

    def probe_s(self, when: Sequence[float]) -> np.ndarray:
        """For each time in *when*, the median of the :data:`WINDOW` probes
        taken just before it and the :data:`WINDOW` just after it."""
        if not self.took:
            raise ValueError("no host-speed probe was taken")
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        order = np.argsort(at, kind="stable")
        at, took = at[order], took[order]
        result = np.empty(len(when))
        for index, moment in enumerate(when):
            middle = int(np.searchsorted(at, moment))
            low = max(middle - WINDOW, 0)
            result[index] = np.median(took[low:middle + WINDOW])
        return result

    def adjust(self, latencies_s: Sequence[float], when: Sequence[float],
               timer_s: float = 0.0) -> List[float]:
        """Each latency scaled to a host where the probe takes
        :data:`REFERENCE_PROBE_S`.  The first *timer_s* of each latency
        is time spent waiting on a timer, which host speed does not
        change: it is kept as it is."""
        latencies = np.asarray(latencies_s, dtype=float)
        timer = np.minimum(latencies, timer_s)
        scale = REFERENCE_PROBE_S / self.probe_s(when)
        return [float(v) for v in timer + (latencies - timer) * scale]
