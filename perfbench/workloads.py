"""Seeded inputs of the three serving workloads.

Every input comes from ``repro.synth.build_corpus(size, seed)``.  The
generator's kernel sizes are heavy-tailed: the total node count of a random
24-kernel corpus swings by about 40% (inter-quartile range over median)
from one seed to the next, which would drown any speed change between two
commits measured on different seeds.  So each workload draws a seeded pool
and keeps, for every rung of a fixed size ladder, the unused kernel whose
source length is nearest to the rung.  The seed still decides which kernels,
execution contexts and arrival times a run sees; the ladder fixes how much
work they add up to (the selected total moves by about 1% across seeds).
Source length tracks the built graph's node count with correlation 0.999.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Sequence, Tuple

import numpy as np

from repro.api import SourceSpec
from repro.synth import build_corpus

#: Source lengths (characters) at the quantiles (i + 0.5) / 24 of 3,000
#: kernels from ``build_corpus(3000, seed=999)``: one rung per size stratum
#: of the generator's own distribution.
SIZE_LADDER: Tuple[int, ...] = (
    127, 155, 193, 323, 648, 1049, 1418, 1887, 2323, 2809, 3355, 3871,
    4472, 5122, 5983, 6805, 7756, 9018, 10472, 11920, 13559, 15700, 18925,
    26174)

#: pool kernels drawn per selected kernel; enough that every rung finds a
#: close match (probed on 8-12 seeds: the selected total varies by ~1%).
WARM_POOL_FACTOR = 5
COLD_POOL_FACTOR = 2

#: the warm corpus: one kernel per rung, served as one 24-kernel job.
WARM_CORPUS_SIZE = len(SIZE_LADDER)

#: cold-jobs timed calls per phase (the p95 keeps ten samples beyond it),
#: each a job of one never-seen kernel: nine kernels per rung.  Jobs of two
#: kernels made one run take 70 s on the 2-core reference box (timing plus
#: the per-kernel checks), too long for the benchmark's run-time budget.
COLD_CALLS = 9 * len(SIZE_LADDER)
COLD_JOB_KERNELS = 1

#: untimed cold calls that warm code paths (never caches) before timing.
COLD_WARMUP_RUNGS: Tuple[int, ...] = (6, 10, 14, 18)

#: the open loop's offered rate (requests per second).
OPEN_RATE_PER_S = 40.0
OPEN_MIN_REQUESTS = 1200

# distinct corpus seeds per workload, so no two workloads share kernels
_SEED_STRIDE = {"warm-jobs": 0, "cold-jobs": 1, "open-singles": 2}


def corpus_seed(workload: str, seed: int) -> int:
    return 3 * int(seed) + _SEED_STRIDE[workload]


def select_by_size(specs: Sequence[SourceSpec],
                   targets: Sequence[int]) -> List[SourceSpec]:
    """For each target length, the unused spec with the nearest source length.

    Targets are matched largest first, so the scarce large kernels go to the
    large rungs; the result is returned in the order of *targets*.  A source
    already chosen is never chosen again, so every selected kernel is
    distinct.
    """
    lengths = np.array([len(spec.source) for spec in specs], dtype=np.float64)
    available = np.ones(len(specs), dtype=bool)
    seen = set()
    chosen: List[SourceSpec] = [None] * len(targets)  # type: ignore[list-item]
    for position in sorted(range(len(targets)), key=lambda i: -targets[i]):
        distance = np.where(available, np.abs(lengths - targets[position]),
                            np.inf)
        while True:
            index = int(np.argmin(distance))
            if not np.isfinite(distance[index]):
                raise ValueError(
                    f"pool of {len(specs)} specs is too small for "
                    f"{len(targets)} distinct targets")
            available[index] = False
            distance[index] = np.inf
            if specs[index].source not in seen:
                break
        seen.add(specs[index].source)
        chosen[position] = specs[index]
    return chosen


def warm_corpus(workload: str, seed: int) -> List[SourceSpec]:
    """The 24-kernel corpus of ``warm-jobs`` / ``open-singles``, in rung
    order (ascending size), so packing splits the job the same way on
    every seed."""
    pool = build_corpus(WARM_CORPUS_SIZE * WARM_POOL_FACTOR,
                        corpus_seed(workload, seed)).sources()
    return select_by_size(pool, SIZE_LADDER)


def cold_jobs(seed: int, phases: int = 1
              ) -> Tuple[List[SourceSpec], List[List[List[SourceSpec]]]]:
    """Never-seen kernels for ``cold-jobs``: the warm-up kernels, then per
    timed phase :data:`COLD_CALLS` jobs of :data:`COLD_JOB_KERNELS` kernels
    (every rung equally often, in a seeded shuffled order)."""
    per_phase = [rung for rung in SIZE_LADDER
                 for _ in range(COLD_CALLS * COLD_JOB_KERNELS
                                // len(SIZE_LADDER))]
    warmup = [SIZE_LADDER[rung] for rung in COLD_WARMUP_RUNGS]
    targets = warmup + per_phase * phases
    pool = build_corpus(len(targets) * COLD_POOL_FACTOR,
                        corpus_seed("cold-jobs", seed)).sources()
    chosen = select_by_size(pool, targets)
    rng = np.random.default_rng(seed)
    jobs = []
    for phase in range(phases):
        start = len(warmup) + phase * len(per_phase)
        block = chosen[start:start + len(per_phase)]
        order = rng.permutation(len(block))
        jobs.append([[block[i] for i in order[j:j + COLD_JOB_KERNELS]]
                     for j in range(0, len(order), COLD_JOB_KERNELS)])
    return chosen[:len(warmup)], jobs


def open_schedule(seed: int, requests: int, rate_per_s: float,
                  corpus_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Poisson arrivals: due times (seconds from the start) and the corpus
    index each request predicts.  Same seed, same schedule.

    The arrivals are a Poisson process at *rate_per_s* conditioned on
    *requests* arrivals in ``requests / rate_per_s`` seconds: sorted uniform
    times.  Unconditioned, the run's length (and so its achieved rate)
    would vary by about 3% from seed to seed.
    """
    rng = np.random.default_rng([int(seed), 40])
    due = np.sort(rng.uniform(0.0, requests / rate_per_s, size=requests))
    kernels = rng.integers(0, corpus_size, size=requests)
    return due, kernels


def open_request_count(seconds: float) -> int:
    """Requests offered in a *seconds*-long open-loop run (at least
    :data:`OPEN_MIN_REQUESTS`, so the p99 keeps ten samples beyond it)."""
    return max(OPEN_MIN_REQUESTS, int(round(OPEN_RATE_PER_S * seconds)))


def inputs_digest(*parts) -> str:
    """sha256 over the generated inputs: spec lists and arrays, in order.

    A change to ``repro.synth`` that alters a workload changes this digest,
    so a changed workload is never read as a speed change.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(part.dtype.str.encode())
            digest.update(np.ascontiguousarray(part).tobytes())
            continue
        for spec in part:
            digest.update(json.dumps(
                [spec.source, sorted(spec.sizes.items()), spec.num_teams,
                 spec.num_threads], sort_keys=True).encode())
    return digest.hexdigest()
