"""The serving benchmark of the ParaGraph runtime predictor.

Drives the public serving API (``Session.predict_batch``, ``Server.submit``)
with one of three seeded workloads and prints every end-to-end metric, or,
with ``--trace 1``, every per-layer metric of a separate traced run::

    python3 perfbench/run.py --workload warm-jobs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout (it imports ``src/repro``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the output check and the hardware/software
fingerprint.  A full record (plus, for traced runs, every span) is written
under ``.perfbench-out/``.  The exit code is non-zero when an output check
fails.  ``perfbench/README.md`` describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

if TYPE_CHECKING:
    from hostspeed import HostSpeed

# numpy and repro load inside functions, after main() has pinned the BLAS
# threads and put src/ on the path
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("warm-jobs", "cold-jobs", "open-singles")
PLATFORM = "v100"

#: train -> save -> load chains per run; setup_s takes their median
SETUP_REPEATS = 3
#: host-speed probes in a row: before each set-up repeat, after the cache
#: warm-up, and before and after an open loop
PROBE_BURST = 3
#: timed warm-jobs calls per phase: the p95 keeps ten samples beyond it
WARM_JOB_CALLS = 250
#: untimed warm-jobs calls before timing (the rate drifts up while warming)
WARM_JOB_WARMUP_CALLS = 10
#: latency limits behind slo_ok_share: one single request, one whole job
SINGLE_SLO_S = 0.100
JOB_SLO_S = 1.0
#: the open-singles server: two thread workers, default batching
OPEN_WORKERS = 2
#: how long the open loop waits for its last answers after its last send
DRAIN_TIMEOUT_S = 60.0
#: capacity of the in-memory trace collector: every request of a run
TRACE_CAPACITY = 1_000_000
#: measured and printed, but not in BENCHMARK.json.  On the shared 2-core
#: reference box the p99 varied by 10-32% on warm-jobs and 12-28% on
#: open-singles (inter-quartile range over median, sets of eight to ten
#: seeds), too close to or beyond the largest allowed bound, 25%.  The raw
#: rate, latencies and set-up time follow the host's speed, which drifts
#: over minutes, so BENCHMARK.json gates the host-speed adjusted rate and
#: set-up time instead (hostspeed.py).  The open-singles latencies follow
#: more than the speed the probe sees: in sets of five to ten seeds its
#: adjusted p50 varied by 7-22% and its adjusted p95 by 13-44%, so no
#: latency is gated; warm-jobs' adjusted rate (24 kernels over the mean
#: latency, 2-6%) carries its latency.
UNGATED_UNITS = {"rps": "kernels/s", "p50_ms": "ms", "p50_adj_ms": "ms",
                 "p95_ms": "ms", "p95_adj_ms": "ms", "p99_ms": "ms",
                 "setup_raw_s": "s"}
#: BLAS and OpenMP run one thread.  With the OpenBLAS default (one thread
#: per core) every GEMM on a 2-core box also waits for a second thread, and
#: warm-jobs got noisier run to run: p50 spread 17-29%, against 15-17% with
#: one thread (inter-quartile range over median, two sets of five seeds).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------- #
# timed phases
# ---------------------------------------------------------------------- #
class Calls:
    """The timed requests of one phase.

    ``due`` is when a request should have been sent: its schedule time in
    the open loop, its send time in the closed loop.  ``lag`` is how late
    the generator sent it; in the closed loop that is the client's own gap
    between one answer and the next request.
    """

    def __init__(self, open_loop: bool, speed: HostSpeed = None) -> None:
        self.open = open_loop
        #: host-speed probes taken between the requests, if any
        self.speed = speed
        #: how long each request waits on a timer before any work starts
        #: (not scaled by host speed)
        self.timer_s = 0.0
        self.due: List[float] = []
        self.done: List[float] = []
        self.lag: List[float] = []
        self.kernels: List[int] = []
        self.ok: List[bool] = []

    def add(self, due: float, lag: float, done: float, kernels: int,
            ok: bool) -> None:
        self.due.append(due)
        self.lag.append(lag)
        self.done.append(done)
        self.kernels.append(kernels)
        self.ok.append(ok)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def latencies_s(self) -> List[float]:
        """Each request's latency, counted from when it was due."""
        return [done - due for due, done in zip(self.due, self.done)]

    def summary(self, slo_s: float) -> Dict[str, float]:
        latencies = self.latencies_s()
        answered = sum(k for k, ok in zip(self.kernels, self.ok) if ok)
        within = sum(1 for latency, ok in zip(latencies, self.ok)
                     if ok and latency <= slo_s)
        # the open loop's achieved rate over its whole run; a closed loop's
        # rate over the time its one client waited for answers
        busy = (max(self.done) - min(self.due)) if self.open else \
            sum(latencies)
        summary = {
            "rps": answered / busy,
            "p50_ms": percentile_ms(latencies, 50),
            "p95_ms": percentile_ms(latencies, 95),
            "p99_ms": percentile_ms(latencies, 99),
            "slo_ok_share": within / len(latencies),
            "mean_latency_s": statistics.fmean(latencies),
        }
        if self.speed is not None:
            adjusted = self.speed.adjust(
                latencies, [0.5 * (due + done)
                            for due, done in zip(self.due, self.done)],
                self.timer_s)
            # the open loop's run length is set by its schedule, not by
            # the host's speed
            summary.update({
                "rps_adj": summary["rps"] if self.open else
                answered / sum(adjusted),
                "p50_adj_ms": percentile_ms(adjusted, 50),
                "p95_adj_ms": percentile_ms(adjusted, 95),
            })
        return summary


def percentile_ms(values_s: Sequence[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values_s, dtype=float) * 1e3, q))


def closed_loop(call: Callable, jobs: Sequence, check: Callable,
                clock=time.perf_counter, speed: HostSpeed = None) -> Calls:
    """One client sends each job as soon as the previous one returned.

    ``check(index, result)`` judges each answer; a call that raises or
    whose answer fails the check counts as failed.  ``lag`` is the client's
    own gap between an answer (and its check) and the next request.  With
    *speed*, the host-speed probe runs before the first call and after
    each check.
    """
    calls = Calls(open_loop=False, speed=speed)
    if speed is not None:
        speed.sample()
    previous_end = clock()
    for index, job in enumerate(jobs):
        start = clock()
        try:
            result = call(job)
        except Exception:  # noqa: BLE001 - a failed request counts as failed
            result = None
        end = clock()
        # checked outside the timed interval
        ok = result is not None and bool(check(index, result))
        calls.add(start, start - previous_end, end, len(job), ok)
        if speed is not None:
            speed.sample()
        previous_end = clock()
    return calls


def open_loop(submit: Callable, requests: Sequence, due_s: Sequence[float],
              check: Callable, clock=time.perf_counter,
              sleep=time.sleep, speed: HostSpeed = None) -> Calls:
    """Send ``requests[i]`` at ``due_s[i]`` seconds after the start, whether
    or not earlier ones have returned; latency counts from the due time.

    ``submit`` returns a future.  A request whose submit raises, whose
    future fails or whose answer fails *check* counts as failed.  With
    *speed*, PROBE_BURST host-speed probes run before the first send and
    after the drain: never while a request may be in flight.
    """
    count = len(requests)
    done = [0.0] * count
    ok = [False] * count
    lag = [0.0] * count
    finished = threading.Semaphore(0)

    def on_done(index: int, future) -> None:
        done[index] = clock()
        try:
            ok[index] = bool(check(requests[index], future.result()))
        except Exception:  # noqa: BLE001 - a failed request
            ok[index] = False
        finished.release()

    if speed is not None:
        probe(speed)
    start = clock()
    for index, (request, due) in enumerate(zip(requests, due_s)):
        delay = start + due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        lag[index] = sent - (start + due)
        try:
            future = submit(request)
        except Exception:  # noqa: BLE001 - refused at admission
            done[index] = clock()
            finished.release()
            continue
        future.add_done_callback(
            lambda future, index=index: on_done(index, future))
    deadline = clock() + DRAIN_TIMEOUT_S
    for _ in range(count):
        if not finished.acquire(timeout=max(deadline - clock(), 0.0)):
            break
    if speed is not None:
        probe(speed)
    calls = Calls(open_loop=True, speed=speed)
    for index in range(count):
        # a request still unanswered at the drain deadline failed; its
        # latency is counted up to the deadline
        answered = done[index] > 0.0
        calls.add(start + due_s[index], lag[index],
                  done[index] if answered else deadline, 1,
                  ok[index] and answered)
    return calls


# ---------------------------------------------------------------------- #
# set-up
# ---------------------------------------------------------------------- #
def serving_config():
    """The serving model of ``benchmarks/test_serve_throughput.py``: v100,
    matmul + matvec sweep, ``hidden_dim=32``, 3 epochs, seed 0."""
    from repro.api import (DataConfig, ModelConfig, ReproConfig, get_kernel)
    from repro.ml.trainer import TrainingConfig
    from repro.pipeline import SweepConfig

    return ReproConfig(
        data=DataConfig(
            sweep=SweepConfig(size_scales=(1.0,), team_counts=(64,),
                              thread_counts=(8, 64),
                              kernels=[get_kernel("matmul"),
                                       get_kernel("matvec")]),
            platforms=(PLATFORM,)),
        model=ModelConfig(hidden_dim=32),
        training=TrainingConfig(epochs=3, batch_size=16, learning_rate=2e-3,
                                seed=0),
        seed=0)


def set_up(workdir: Path, speed: HostSpeed):
    """Train, save and warm-start the serving session SETUP_REPEATS times,
    probing the host speed into *speed* before each repeat.

    Returns the last loaded session and each repeat's timings.
    """
    from repro.api import Session

    repeats = []
    session = None
    for repeat in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None
        # free the previous repeat's sessions (they hold reference cycles)
        # now, not whenever the collector happens to run: otherwise the
        # peak memory depends on collection timing, which varies run to run
        gc.collect()
        probe(speed)
        start = time.perf_counter()
        trained = Session(serving_config())
        trained.build_dataset()
        built = time.perf_counter()
        trained.train()
        fitted = time.perf_counter()
        path = Path(trained.save(workdir / f"model-{repeat}"))
        saved = time.perf_counter()
        session = Session.load(path)
        loaded = time.perf_counter()
        repeats.append({
            "total_s": loaded - start, "dataset_s": built - start,
            "fit_s": fitted - built, "save_s": saved - fitted,
            "load_s": loaded - saved,
            "bytes": sum(f.stat().st_size for f in path.rglob("*")
                         if f.is_file()),
        })
        del trained
    return session, repeats


def probe(speed: HostSpeed) -> None:
    """PROBE_BURST host-speed probes in a row, outside every timing."""
    for _ in range(PROBE_BURST):
        speed.sample()


def solo_references(session, specs) -> "np.ndarray":
    """float64 predictions of each kernel alone (fills the graph cache)."""
    import numpy as np
    return np.array([session.predict_batch([spec], PLATFORM, dtype=None)[0]
                     for spec in specs])


# ---------------------------------------------------------------------- #
# the workloads
# ---------------------------------------------------------------------- #
class Workload:
    """One workload: inputs, cache warm-up, a timed phase, output checks.

    ``warm()`` runs between set-up and the first timed request (it is part
    of ``setup_s``); ``phase(index, speed)`` runs one timed phase, checking
    every answer and probing the host speed into *speed* between requests,
    and returns its :class:`Calls`.
    """

    slo_s = JOB_SLO_S

    #: the loaded serving session, attached after set-up
    session = None

    def __init__(self, seed: int, seconds: float, phases: int) -> None:
        # every workload takes the same arguments; each uses what it needs
        self.phases = phases

    @property
    def server(self):
        return self.session.server()

    def warm(self) -> None:
        pass

    def close(self) -> None:
        pass


class WarmJobs(Workload):
    """Closed loop: the warm 24-kernel corpus as one float64 job per call."""

    def __init__(self, seed, seconds, phases):
        from workloads import warm_corpus
        super().__init__(seed, seconds, phases)
        self.corpus = warm_corpus("warm-jobs", seed)
        self.inputs = (self.corpus,)

    def warm(self) -> None:
        self.references = solo_references(self.session, self.corpus)
        for _ in range(WARM_JOB_WARMUP_CALLS):
            self.session.predict_batch(self.corpus, PLATFORM, dtype=None)

    def _check(self, index, result) -> bool:
        import numpy as np
        return (result.dtype == np.float64
                and np.array_equal(result, self.references))

    def phase(self, index: int, speed: HostSpeed) -> Calls:
        return closed_loop(
            lambda job: self.session.predict_batch(job, PLATFORM, dtype=None),
            [self.corpus] * WARM_JOB_CALLS, self._check, speed=speed)

    def graphs(self):
        return self.corpus


class ColdJobs(Workload):
    """Closed loop: float64 jobs of never-seen kernels."""

    def __init__(self, seed, seconds, phases):
        from workloads import cold_jobs
        super().__init__(seed, seconds, phases)
        self.warmup, self.jobs = cold_jobs(seed, phases)
        self.inputs = (self.warmup, *(self.kernels(index)
                                      for index in range(phases)))

    def kernels(self, index: int) -> list:
        return [spec for job in self.jobs[index] for spec in job]

    def warm(self) -> None:
        # warms code paths only: these kernels are never timed
        for spec in self.warmup:
            self.session.predict_batch([spec], PLATFORM, dtype=None)

    def phase(self, index: int, speed: HostSpeed) -> Calls:
        jobs = self.jobs[index]
        return closed_loop(
            lambda job: self.session.predict_batch(job, PLATFORM, dtype=None),
            jobs, lambda position, result: self._check(jobs[position], result),
            speed=speed)

    def _check(self, job, result) -> bool:
        """Each kernel against its solo prediction (bit for bit) and the
        evaluation path, ``Trainer.predict`` (1e-9 relative).  Run right
        after the call, while the job's graphs are still cached: the graph
        cache cannot hold a whole phase."""
        import numpy as np
        from repro.ml import GraphDataset

        solo = solo_references(self.session, job)
        graphs = [self.session.encode_source(spec) for spec in job]
        evaluated = self.session.trainer_for(PLATFORM).predict(
            GraphDataset(graphs, name="check"), dtype=None)
        return (result.dtype == np.float64 and np.array_equal(result, solo)
                and np.allclose(result, evaluated, rtol=1e-9, atol=0.0))

    def graphs(self):
        return self.kernels(self.phases - 1)


class OpenSingles(Workload):
    """Open loop: Poisson float32 singles at 40 req/s into a 2-worker server."""

    slo_s = SINGLE_SLO_S

    def __init__(self, seed, seconds, phases):
        from workloads import (OPEN_RATE_PER_S, open_request_count,
                               open_schedule, warm_corpus)
        super().__init__(seed, seconds, phases)
        self.corpus = warm_corpus("open-singles", seed)
        self.due, self.choice = open_schedule(
            seed, open_request_count(seconds), OPEN_RATE_PER_S,
            len(self.corpus))
        self.inputs = (self.corpus, self.due, self.choice)
        self._server = None

    @property
    def server(self):
        return self._server

    def warm(self) -> None:
        import numpy as np
        from repro.serve import Server, ServerConfig

        self.references = solo_references(self.session, self.corpus)
        self.tolerance = 1e-3 * (1.0 + float(np.abs(self.references).max()))
        self._server = Server(self.session,
                              ServerConfig(num_workers=OPEN_WORKERS))
        futures = [self._submit(index) for index in range(len(self.corpus))]
        for future in futures:
            future.result()

    def _submit(self, index: int):
        import numpy as np
        return self._server.submit(self.corpus[index], PLATFORM,
                                   dtype=np.float32)

    def _check(self, index, value) -> bool:
        """float32 serving bounds: within 1e-3 * (1 + max|ref|) of the
        float64 solo reference."""
        return abs(value - self.references[index]) <= self.tolerance

    def phase(self, index: int, speed: HostSpeed) -> Calls:
        calls = open_loop(self._submit, [int(k) for k in self.choice],
                          list(self.due), self._check, speed=speed)
        # at 40 req/s a single mostly arrives at an idle batcher, which
        # holds it for the batch window before running it
        calls.timer_s = self._server.config.batch_window_s
        return calls

    def graphs(self):
        return self.corpus

    def close(self) -> None:
        if self._server is not None:
            self._server.close()


WORKLOAD_TYPES = {"warm-jobs": WarmJobs, "cold-jobs": ColdJobs,
                  "open-singles": OpenSingles}


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_snapshot(session) -> Dict[str, object]:
    from repro.obs import collect_cache_stats
    return {stats.name: stats for stats in collect_cache_stats(session)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    from repro.obs import trace_requests
    from hostspeed import (REFERENCE_PROBE_S, WARMUP_RUNS, HostSpeed,
                           reference_load)
    from workloads import inputs_digest
    import layers

    # a traced run times an untraced phase, then a traced one: their ratio
    # is obs.trace_overhead_share.  Inputs are generated before set-up.
    workload = WORKLOAD_TYPES[name](seed, seconds, phases=2 if trace else 1)
    digest = inputs_digest(*workload.inputs)
    for _ in range(WARMUP_RUNS):
        reference_load()
    setup_speed = HostSpeed()
    session, repeats = set_up(workdir, setup_speed)
    workload.session = session

    attempted = failed = 0
    try:
        warm_traces = []
        warm_start = time.perf_counter()
        if trace:
            with trace_requests(capacity=TRACE_CAPACITY) as collector:
                workload.warm()
            warm_traces = collector.traces()
        else:
            workload.warm()
        warm_s = time.perf_counter() - warm_start
        probe(setup_speed)

        baseline = workload.phase(0, HostSpeed())
        attempted += baseline.attempted
        failed += baseline.failed
        result = {"baseline": baseline}
        if trace:
            trainer = session.trainer_for(PLATFORM)
            server = workload.server
            caches_before = cache_snapshot(session)
            stats_before = server.stats()
            with layers.LayerProbes(trainer), \
                    trace_requests(capacity=TRACE_CAPACITY) as collector:
                traced = workload.phase(1, HostSpeed())
            timed_traces = collector.traces()
            stats_after = server.stats()
            caches_after = cache_snapshot(session)
            attempted += traced.attempted
            failed += traced.failed
            # still cached: the traced phase's kernels, as the model saw them
            graphs = [session.encode_source(spec)
                      for spec in workload.graphs()]
            result.update(traced=traced, warm_traces=warm_traces,
                          timed_traces=timed_traces, graphs=graphs,
                          caches=(caches_before, caches_after),
                          stats=(stats_before, stats_after))
    finally:
        workload.close()
        session.close()

    setup_raw_s = statistics.median(r["total_s"] for r in repeats) + warm_s
    result.update(
        attempted=attempted, failed=failed, digest=digest,
        repeats=repeats, warm_s=warm_s, setup_raw_s=setup_raw_s,
        # scaled like the latencies (hostspeed.py): set-up is as
        # CPU-bound as serving, and the host drifts between runs.  The
        # median of all set-up probes: the first probe after a set-up
        # repeat or the warm-up can take up to twice as long.
        setup_s=setup_raw_s * REFERENCE_PROBE_S
        / statistics.median(setup_speed.took),
        setup_probe_ms=[1e3 * value for value in setup_speed.took],
        slo_s=workload.slo_s)
    return result


def end_to_end_metrics(result: dict) -> Dict[str, float]:
    metrics = result["baseline"].summary(result["slo_s"])
    metrics["setup_s"] = result["setup_s"]
    metrics["setup_raw_s"] = result["setup_raw_s"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def per_layer_metrics(result: dict) -> Dict[str, float]:
    import numpy as np
    import layers

    metrics = layers.span_metrics(result["timed_traces"],
                                  result["warm_traces"])
    before, after = result["caches"]
    stats_before, stats_after = result["stats"]
    repeats = result["repeats"]
    traced = result["traced"].summary(result["slo_s"])
    baseline = result["baseline"].summary(result["slo_s"])
    graphs = result["graphs"]
    metrics.update({
        "serve.failures": float(stats_after.failures - stats_before.failures),
        "serve.retries": float(stats_after.retries - stats_before.retries),
        "serve.shed": float(stats_after.shed - stats_before.shed),
        "api.graph_cache.hit_share": layers.hit_share(
            before["session-graphs"], after["session-graphs"]),
        "paragraph.nodes.mean": float(np.mean([g.num_nodes for g in graphs])),
        "paragraph.edges.mean": float(np.mean([g.num_edges for g in graphs])),
        "gnn.edge_layout.hit_share": layers.hit_share(
            before["edge-layout"], after["edge-layout"]),
        "gnn.packed_layout.hit_share": layers.hit_share(
            before["packed-layout"], after["packed-layout"]),
        "nn.scatter_matrix.hit_share": layers.hit_share(
            before["scatter-matrix"], after["scatter-matrix"]),
        "ml.fit_s": statistics.median(r["fit_s"] for r in repeats),
        "pipeline.dataset_s": statistics.median(r["dataset_s"]
                                                for r in repeats),
        "store.save_s": statistics.median(r["save_s"] for r in repeats),
        "store.load_s": statistics.median(r["load_s"] for r in repeats),
        "store.bytes": float(statistics.median(r["bytes"] for r in repeats)),
        "obs.trace_overhead_share":
            traced["mean_latency_s"] / baseline["mean_latency_s"] - 1.0,
        "bench.gen_lag_ms.p99": percentile_ms(result["traced"].lag, 99),
    })
    return metrics


def layer_attribution(traces) -> Dict[str, float]:
    """Self-time shares of the traced phase, grouped by per-layer metric."""
    import layers

    groups: Dict[str, float] = {}
    for name, share in layers.self_time_shares(traces).items():
        if name in ("engine.forward", "gnn.readout") or \
                name.startswith("gnn.conv."):
            key = "gnn.forward_ms"
        else:
            key = SPAN_LAYER.get(name, name)
        groups[key] = groups.get(key, 0.0) + share
    return dict(sorted(groups.items(), key=lambda item: -item[1]))


SPAN_LAYER = {
    "serve.request": "serve.execute_ms", "serve.execute": "serve.execute_ms",
    "serve.submit": "serve.submit_ms", "serve.queue": "serve.queue_wait_ms",
    "serve.encode": "api.encode_ms", "stage.ParseStage": "clang.parse_ms",
    "stage.GraphStage": "paragraph.build_ms",
    "stage.EncodeStage": "paragraph.encode_ms", "engine.pack": "gnn.pack_ms",
    "ml.scale": "ml.scale_ms",
}


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def write_spans(path: Path, traces) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for trace in traces:
            handle.write(json.dumps(trace.to_dict(), sort_keys=True) + "\n")


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares, in its order."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in benchmark[kind]}


def run_one(args) -> int:
    from fingerprint import fingerprint
    from hostspeed import REFERENCE_PROBE_S

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = metric_units("per_layer")
        measured = per_layer_metrics(result)
        ungated = {}
    else:
        units = metric_units("end_to_end")
        measured = end_to_end_metrics(result)
        ungated = {name: measured[name] for name in UNGATED_UNITS}
    missing = sorted(set(units) - set(measured))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: measured[name] for name in units}
    prints = fingerprint(ROOT, result["digest"])
    correct = result["failed"] == 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": prints, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_share": result["failed"] / result["attempted"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "ungated": {name: {"value": value, "unit": UNGATED_UNITS[name]}
                    for name, value in ungated.items()},
        "setup_repeats": result["repeats"], "warm_s": result["warm_s"],
        "probe_ms": [1e3 * value for value in result["baseline"].speed.took],
        "setup_probe_ms": result["setup_probe_ms"],
        "latencies_ms": [1e3 * value
                         for value in result["baseline"].latencies_s()],
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("fingerprint " + json.dumps(prints, sort_keys=True))
    if args.trace:
        attribution = layer_attribution(result["timed_traces"])
        record["self_time_shares"] = attribution
        print("self-time shares of the traced phase: " + ", ".join(
            f"{name} {share:.1%}" for name, share in attribution.items()
            if share >= 0.005))
        write_spans(OUT_DIR / f"{stem}-spans.jsonl",
                    result["warm_traces"] + result["timed_traces"])
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for name, value in ungated.items():
        print(f"  {name:<28} {value:>14.6g} {UNGATED_UNITS[name]}"
              "  (not gated: too noisy on a shared box)")
    print(f"host-speed probe: median "
          f"{statistics.median(record['probe_ms']):.3f} ms over "
          f"{len(record['probe_ms'])} probes; the *_adj figures scale it to "
          f"{1e3 * REFERENCE_PROBE_S:g} ms")
    print(f"check: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_share {record['failed_share']:.4g}): "
          f"{'ok' if correct else 'OUTPUT CHECK FAILED'}")
    write_record(OUT_DIR / f"{stem}.json", record)
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=False)
        worst = max(worst, completed.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="open-loop run length (the closed loops run "
                             "a fixed call count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    # before numpy loads; child processes of "all" inherit it
    os.environ.update(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
