"""The four workloads, driven through the public ``repro`` API.

Each workload generates its inputs from the seed (the program only
ever receives the generated specs or traces), sets up, measures for a
given time, then checks every output against a reference computed
after timing.  Why each workload exists, and which layer metric should
move which end-to-end metric on it, is written down in
``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import resource
import selectors
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import repro.tensor.batch as tensor_batch
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine import BatchRunner, ScenarioSpec, execute_scenario
from repro.engine.executor import build_decoder, capture_trace
from repro.exec.graph import PIPELINE_STAGES, PROFILE_ENV, StageTrace
from repro.faults import FaultPlan
from repro.stream import SessionMux, StreamDecoder, iter_chunks
from repro.tensor import clear_plan_cache, fast_path_eligible, optical_key

from probe import REFERENCE_S, probe
from stats import Tally, median, nearest_rank
from tracing import Tracer

#: Worker processes for the pooled sweep: never more than the machine
#: offers, and two at most.
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))


def pin_one_cpu() -> list[int]:
    """Pin this thread to one CPU for the rest of the run, so the host
    probe times the CPU the work runs on; returns it as a list."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]

# The paper's outdoor set-up: sun-lit tarmac, RX-LED receiver without
# the FoV cap, 10 cm symbols.  Ambient light spans night-time street
# light to direct sun, the range where decoding succeeds, degrades and
# saturates.
OUTDOOR = dict(source="sun", detector="led", cap=False, ground="tarmac",
               symbol_width_m=0.1)
LUX = (100.0, 450.0, 6200.0, 21500.0)
SPEEDS = (3.0, 4.0, 5.0, 6.0)
HEIGHTS = (0.25, 0.4, 0.6, 0.8)
#: Seeds of specs that fill the cache, and of never-seen specs, are
#: drawn from disjoint ranges.
SEEN_SEEDS = (1, 2**30)
UNSEEN_SEEDS = (2**30, 2**31 - 2)

FAULTS = FaultPlan(chunk_drop=0.1, chunk_duplicate=0.05,
                   chunk_reorder=0.05, burst_rate_hz=2.0)

STREAM_STAGES = ("normalize", "acquire", "refine_clock", "decide")


def outdoor_specs(rng: random.Random, n: int, seeds=SEEN_SEEDS,
                  **axes: Sequence[Any]) -> list[ScenarioSpec]:
    """``n`` outdoor passes over ``axes`` (field -> values; ``bits``
    gives payload lengths).

    Each axis holds each of its values equally often and the seed only
    pairs them up, draws noise seeds and payload bits, and orders the
    passes: the mix of conditions, and so the work a batch holds, is
    the same for every seed, and runs with different seeds measure the
    same thing.
    """
    columns = {}
    for name, values in axes.items():
        column = [values[i % len(values)] for i in range(n)]
        rng.shuffle(column)
        columns[name] = column
    specs = []
    for i in range(n):
        fields = dict(OUTDOOR, **{name: column[i]
                                  for name, column in columns.items()})
        fields["bits"] = "".join(rng.choice("01")
                                 for _ in range(fields.get("bits", 2)))
        specs.append(ScenarioSpec(**fields, seed=rng.randrange(*seeds)))
    return specs


def optical_configs(rng: random.Random, n: int) -> list[ScenarioSpec]:
    """``n`` optical set-ups spread over the light levels, all sampled
    at the 2 kS/s cap so tensor groups are alike in size."""
    return outdoor_specs(rng, n, ground_lux=LUX, speed_mps=(5.0, 6.0),
                         receiver_height_m=HEIGHTS)


def digest(record) -> str:
    return hashlib.sha256(record.canonical_json().encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing hooks shared by every workload
# ----------------------------------------------------------------------

class TimedCache:
    """Timing proxy around a ``CacheBackend`` instance."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.backend_name = inner.backend_name
        self.stats = inner.stats
        self.gets = 0
        self.hits = 0

    def get(self, key):
        with self.tracer.span("cache.get"):
            record = self.inner.get(key)
        self.gets += 1
        self.hits += record is not None
        return record

    def put(self, record) -> None:
        with self.tracer.span("cache.put"):
            self.inner.put(record)

    def __contains__(self, key) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def clear(self) -> int:
        return self.inner.clear()


def wrap_layers(tracer: Tracer, session_spans: dict[str, int]) -> None:
    """Spans around each layer's public entry points."""
    for attr in ("resolve", "content_hash", "identity"):
        tracer.wrap(ScenarioSpec, attr, f"spec.{attr}")
    tracer.wrap(tensor_batch, "execute_batch", "tensor.execute_batch")
    session = lambda decoder, *_: decoder.session_id  # noqa: E731
    tracer.wrap(StreamDecoder, "push", "stream.push",
                request_of=session, parent_of=session_spans.get)
    tracer.wrap(StreamDecoder, "flush", "stream.flush",
                request_of=session, parent_of=session_spans.get)


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at zero: a layer that does no work on a
    workload reports none."""
    names = (["runner.pool_idle_frac", "runner.pool_restarts",
              "runner.executor_errors"]
             + [f"stage.{s}_ms" for s in PIPELINE_STAGES]
             + ["stage.coverage_frac", "tensor.execute_batch_ms",
                "tensor.fast_path_frac", "tensor.groups",
                "cache.get_us_p50", "cache.put_us_p50", "cache.hit_ratio",
                "cache.busy_frac", "spec.resolve_us", "spec.busy_frac",
                "stream.busy_frac", "stream.push_us_p50",
                "stream.flush_ms_p50"]
             + [f"stream.stage.{s}_ms" for s in STREAM_STAGES]
             + ["stream.max_queue_depth", "stream.backpressure_waits",
                "net.nodes_observed", "faults.events",
                "loadgen.lag_ms_p99", "loadgen.rate_frac",
                "trace.overhead_frac"])
    return {name: 0.0 for name in names}


def _median_or_zero(values, scale: float = 1.0) -> float:
    return median(values) * scale if values else 0.0


# ----------------------------------------------------------------------
# Sweeps: closed loop, one client, BatchRunner.run per request
# ----------------------------------------------------------------------

@dataclass
class SweepPhase:
    """What one measured stretch of batches observed."""

    starts: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    batch_size: int = 0
    outputs: Counter = field(default_factory=Counter)
    fresh_elapsed_s: float = 0.0
    fresh_records: int = 0
    specs_submitted: int = 0
    pool_restarts: int = 0
    executor_errors: int = 0
    fault_events: int = 0
    stages: StageTrace = field(default_factory=StageTrace)

    def end_to_end(self, at_reference: bool = True) -> dict[str, float]:
        """Median batch timings, by default each scaled by the host
        probe timed just before its batch (see ``probe.py``)."""
        walls = self.walls
        if at_reference:
            walls = [w * REFERENCE_S / p for w, p in zip(walls, self.probes)]
        wall = median(walls)
        ksps = median([n / w for n, w in zip(self.samples, walls)]) / 1e3
        return {"scenarios_per_s": self.batch_size / wall,
                "stream_ksps": ksps, "verdict_ms_p50": wall * 1e3}

    def raw(self) -> dict[str, list]:
        """Per-batch timings behind the end-to-end metrics."""
        return {"starts": self.starts, "probes": self.probes,
                "walls": self.walls, "samples": self.samples}


class Sweep:
    """Closed loop of ``BatchRunner.run`` batches from one client."""

    name = ""
    batch_size = 64
    #: Whether batches run in pool workers (on every CPU) rather than in
    #: this process.
    pooled = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.runner: BatchRunner | None = None
        self.batches: list[list[ScenarioSpec]] = []
        self.tracer: Tracer | None = None

    # -- hooks -----------------------------------------------------------
    def make_batches(self, rng: random.Random) -> list[list[ScenarioSpec]]:
        raise NotImplementedError

    def new_runner(self) -> BatchRunner:
        raise NotImplementedError

    def warm(self) -> None:
        """Finish lazy set-up (pool start, plan builds) before timing."""

    def batch(self, i: int) -> tuple[list[ScenarioSpec], list[int] | None]:
        """The i-th request and the indices that execute fresh (None:
        all of them)."""
        return self.batches[i % len(self.batches)], None

    # -- life cycle ------------------------------------------------------
    def setup(self) -> None:
        self.close()
        self.batches = self.make_batches(random.Random(self.seed))
        self.runner = self.new_runner()
        self.warm()

    def close(self) -> None:
        if self.runner is not None:
            self.runner.close()
            self.runner = None

    def remove(self) -> None:
        """Release everything the workload holds."""
        self.close()

    def trace_on(self, tracer: Tracer) -> None:
        """Profile stages, and restart the runner so that pool workers
        inherit the setting."""
        self.tracer = tracer
        os.environ[PROFILE_ENV] = "1"
        self.close()
        self.runner = self.new_runner()
        self.warm()

    def measure(self, seconds: float) -> SweepPhase:
        phase = SweepPhase(batch_size=self.batch_size)
        tracer = self.tracer
        cpus = (sorted(os.sched_getaffinity(0)) if self.pooled
                else pin_one_cpu())
        began = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - began < seconds:
            specs, fresh = self.batch(i)
            phase.probes.append(probe(cpus))
            phase.starts.append(time.perf_counter() - began)
            if tracer is None:
                span = None
                started = time.perf_counter()
                result = self.runner.run(specs)
                wall = time.perf_counter() - started
            else:
                with tracer.span("runner.run", request=f"b{i}") as span:
                    result = self.runner.run(specs)
                wall = span.duration
            self.observe(phase, specs, fresh, result, wall, span)
            i += 1
        return phase

    def observe(self, phase: SweepPhase, specs, fresh, result, wall: float,
                span) -> None:
        phase.walls.append(wall)
        phase.samples.append(sum(r.n_samples for r in result.records))
        phase.specs_submitted += len(specs)
        phase.pool_restarts += result.stats.pool_restarts
        phase.executor_errors += result.stats.executor_errors
        for record in result.records:
            phase.outputs[(record.spec_hash, digest(record),
                           record.stage)] += 1
            phase.fault_events += sum(record.fault_events.values())
        indices = range(len(specs)) if fresh is None else fresh
        stages = StageTrace()
        for k in indices:
            record = result.records[k]
            phase.fresh_elapsed_s += record.elapsed_s
            phase.fresh_records += 1
            stages.merge(record.stage_trace)
        phase.stages.merge(stages)
        if span is not None:
            # Stage totals of the batch's records, beneath its span.
            span.attrs["stage_totals_s"] = stages.to_dict()

    # -- correctness -----------------------------------------------------
    def references(self, hashes: set[str]) -> dict[str, str]:
        """Reference digest per spec hash: the serial in-process
        executor on the same specs."""
        refs: dict[str, str] = {}
        for specs in self.batches:
            for spec in specs:
                record = execute_scenario(spec)
                if record.spec_hash in hashes:
                    refs.setdefault(record.spec_hash, digest(record))
        return refs

    def check(self, phases: list[SweepPhase], tally: Tally) -> None:
        outputs: Counter = Counter()
        for phase in phases:
            outputs.update(phase.outputs)
        refs = self.references({key[0] for key in outputs})
        for (spec_hash, got, stage), count in outputs.items():
            for _ in range(count):
                tally.record(stage, refs.get(spec_hash) == got)

    # -- per-layer metrics -----------------------------------------------
    def layers(self, phase: SweepPhase) -> dict[str, float]:
        tracer = self.tracer
        out = empty_layers()
        wall = sum(phase.walls)
        n_batches = len(phase.walls)
        workers = self.runner.workers if self.runner.backend == "process" else 1
        out["runner.pool_idle_frac"] = 1.0 - phase.fresh_elapsed_s / (
            workers * wall)
        out["runner.pool_restarts"] = phase.pool_restarts
        out["runner.executor_errors"] = phase.executor_errors
        n = max(1, phase.fresh_records)
        for stage in PIPELINE_STAGES:
            out[f"stage.{stage}_ms"] = (
                phase.stages.timings_s.get(stage, 0.0) / n * 1e3)
        if phase.fresh_elapsed_s > 0.0:
            out["stage.coverage_frac"] = (phase.stages.total_s
                                          / phase.fresh_elapsed_s)
        out["tensor.execute_batch_ms"] = _median_or_zero(
            tracer.durations("tensor.execute_batch"), 1e3)
        gets = tracer.durations("cache.get")
        out["cache.get_us_p50"] = _median_or_zero(gets, 1e6)
        out["cache.put_us_p50"] = _median_or_zero(
            tracer.durations("cache.put"), 1e6)
        cache = self.runner.cache
        if isinstance(cache, TimedCache) and cache.gets:
            out["cache.hit_ratio"] = cache.hits / cache.gets
        out["cache.busy_frac"] = tracer.busy("cache.") / wall
        spec_busy = tracer.busy("spec.")
        out["spec.resolve_us"] = spec_busy / phase.specs_submitted * 1e6
        out["spec.busy_frac"] = spec_busy / wall
        out["net.nodes_observed"] = (
            phase.stages.counters.get("nodes_observed", 0) / n_batches)
        out["faults.events"] = phase.fault_events / n_batches
        return out


class SweepPool(Sweep):
    """Cold mixed batches through the process pool, no cache."""

    name = "sweep_pool"
    pooled = True
    distinct_batches = 4

    def make_batches(self, rng):
        batches = []
        for _ in range(self.distinct_batches):
            # 3/4 single receivers, 1/8 networked, 1/8 faulted streams.
            specs = outdoor_specs(rng, 48, ground_lux=LUX, speed_mps=SPEEDS,
                                  bits=(2, 3, 4), receiver_height_m=HEIGHTS)
            specs += outdoor_specs(rng, 8, ground_lux=LUX,
                                   topology=("full", "chain"),
                                   receiver_height_m=HEIGHTS[:2],
                                   n_receivers=(3,))
            specs += outdoor_specs(rng, 8, ground_lux=LUX,
                                   speed_mps=SPEEDS[2:],
                                   receiver_height_m=HEIGHTS,
                                   stream_chunk=(64,), fault_plan=(FAULTS,))
            rng.shuffle(specs)
            batches.append(specs)
        return batches

    def new_runner(self):
        return BatchRunner(workers=WORKERS)

    def warm(self):
        # Start the workers outside the timed region, on specs that are
        # never measured.
        rng = random.Random(f"warm-{self.seed}")
        self.runner.run(outdoor_specs(rng, 4 * WORKERS, seeds=UNSEEN_SEEDS,
                                      ground_lux=LUX))


class SweepTensor(Sweep):
    """Fused same-optics batches: 4 optical configs x 64 seeds."""

    name = "sweep_tensor"
    batch_size = 256
    distinct_batches = 2

    def make_batches(self, rng):
        configs = optical_configs(rng, 4)
        return [[config.replace(seed=rng.randrange(*SEEN_SEEDS))
                 for config in configs for _ in range(64)]
                for _ in range(self.distinct_batches)]

    def new_runner(self):
        return BatchRunner(backend="tensor")

    def setup(self):
        clear_plan_cache()
        super().setup()

    def warm(self):
        # Build the four group plans, as any second batch finds them.
        self.runner.run(self.batches[0])

    def layers(self, phase):
        out = super().layers(phase)
        eligible = [[s for s in map(ScenarioSpec.resolve, batch)
                     if fast_path_eligible(s)] for batch in self.batches]
        out["tensor.fast_path_frac"] = (sum(map(len, eligible))
                                        / (self.batch_size * len(eligible)))
        out["tensor.groups"] = median([len(set(map(optical_key, specs)))
                                       for specs in eligible])
        return out


class SweepCached(Sweep):
    """A warm on-disk result cache: ~95% reads, ~5% never-seen specs."""

    name = "sweep_cached"
    filled = 512
    unseen_per_batch = 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cache_dir: Path | None = None
        self.fill_refs: dict[str, str] = {}
        self.configs: list[ScenarioSpec] = []
        self.unseen: list[ScenarioSpec] = []
        self.rng = random.Random(seed + 1)

    def make_batches(self, rng):
        self.configs = optical_configs(rng, 8)
        per_config = self.filled // len(self.configs)
        return [[config.replace(seed=rng.randrange(*SEEN_SEEDS))
                 for config in self.configs for _ in range(per_config)]]

    def new_runner(self):
        # The default backend (REPRO_CACHE_BACKEND is cleared), opened
        # from a directory as ``sweep --cache-dir`` opens it.
        runner = BatchRunner(cache=self.cache_dir)
        if self.tracer is not None:
            runner.cache = TimedCache(runner.cache, self.tracer)
        return runner

    def setup(self):
        self.close()
        self.batches = self.make_batches(random.Random(self.seed))
        self.cache_dir = self.work_dir / f"cache-{os.getpid()}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        clear_plan_cache()
        # Populate through the tensor backend: records are
        # byte-identical to the serial executor's, at a fraction of the
        # set-up time.
        with BatchRunner(cache=self.cache_dir, backend="tensor") as filler:
            records = filler.run(self.batches[0]).records
        self.fill_refs = {r.spec_hash: digest(r) for r in records}
        self.rng = random.Random(self.seed + 1)
        self.unseen = []
        self.runner = self.new_runner()

    def remove(self) -> None:
        self.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def batch(self, i):
        rng = self.rng
        specs = rng.sample(self.batches[0],
                           self.batch_size - self.unseen_per_batch)
        unseen = [rng.choice(self.configs).replace(
                      seed=rng.randrange(*UNSEEN_SEEDS))
                  for _ in range(self.unseen_per_batch)]
        self.unseen.extend(unseen)
        positions = sorted(rng.sample(range(self.batch_size),
                                      self.unseen_per_batch))
        for pos, spec in zip(positions, unseen):
            specs.insert(pos, spec)
        return specs, positions

    def references(self, hashes):
        # Hits: the record written when the cache was filled.  Never-
        # seen specs ran through the serial executor in the runner, so
        # the fused tensor path, byte-identical by contract, is an
        # independent reference that stays cheap at thousands of specs.
        refs = dict(self.fill_refs)
        for record in tensor_batch.execute_batch(self.unseen):
            refs[record.spec_hash] = digest(record)
        return refs


# ----------------------------------------------------------------------
# Live streaming: open loop of vehicle passes into one SessionMux
# ----------------------------------------------------------------------

CHUNK = 64


class CpuClock:
    """This thread's CPU seconds plus every idle wait skipped.

    The stream workload's event loops run on this clock: time passes
    while the loop works, and waiting for the next timer takes none.
    Neither the time the host takes the CPU away from this thread
    (reported to the guest as steal) nor the loop's millisecond timer
    granularity is measured, and an open-loop stretch lasts as long as
    its work, not as long as its schedule.
    """

    def __init__(self) -> None:
        self.skipped = 0.0

    def now(self) -> float:
        return time.thread_time() + self.skipped


class _SkipIdle:
    """Selector proxy that never waits for a timer: a wait with nothing
    to do is added to the clock and returns at once."""

    def __init__(self, inner: selectors.BaseSelector, clock: CpuClock):
        self.inner = inner
        self.clock = clock

    def select(self, timeout=None):
        if timeout is None:
            # No timer pending: only I/O can wake the loop.
            return self.inner.select(None)
        events = self.inner.select(0)
        if not events and timeout > 0.0:
            self.clock.skipped += timeout
        return events

    def __getattr__(self, name):
        return getattr(self.inner, name)


class CpuClockLoop(asyncio.SelectorEventLoop):
    """Event loop whose ``time()`` is a :class:`CpuClock`."""

    def __init__(self, clock: CpuClock) -> None:
        self._cpu_clock = clock
        super().__init__(selector=_SkipIdle(selectors.DefaultSelector(),
                                            clock))

    def time(self) -> float:
        return self._cpu_clock.now()


def run_on(clock: CpuClock, coro):
    """Run ``coro`` to completion on a loop timed by ``clock``."""
    with asyncio.Runner(loop_factory=lambda: CpuClockLoop(clock)) as runner:
        return runner.run(coro)


@dataclass
class StreamPhase:
    """What one measured stretch of cycles observed; times are on the
    workload's :class:`CpuClock`.

    The stretch is a sequence of units, each an open-loop segment or an
    unpaced wave; ``probes[u]`` is the probe timed just before unit
    ``u`` (and the last one after the last unit).
    """

    probes: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    #: The unit each latency was measured in.
    latency_units: list[int] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    open_time: float = 0.0
    #: ``(sessions, samples, time, unit, cycle)`` per wave.
    waves: list[tuple[int, int, float, int, int]] = field(
        default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    busy_s: float = 0.0
    max_queue_depth: int = 0
    backpressure_waits: int = 0
    passes: int = 0
    stages: StageTrace = field(default_factory=StageTrace)

    def scale(self, unit: int) -> float:
        """Factor to the reference host speed for a unit: the mean of
        the probes either side of it (see ``probe.py``)."""
        return REFERENCE_S / ((self.probes[unit] + self.probes[unit + 1])
                              / 2.0)

    def verdict_latencies(self, at_reference: bool = True) -> list[float]:
        """Open-loop verdict latencies, by default each at the reference
        host speed."""
        if not at_reference:
            return list(self.latencies)
        return [latency * self.scale(unit)
                for latency, unit in zip(self.latencies, self.latency_units)]

    def end_to_end(self, at_reference: bool = True) -> dict[str, float]:
        """Medians over cycles and over open-loop passes, by default at
        the reference host speed (each wave and each pass scaled by its
        unit's probes).  A cycle's waves decode every trace of the pool
        once, so every cycle holds the same unpaced work."""
        per_cycle: dict[int, list[float]] = {}
        for n, samples, t, unit, cycle in self.waves:
            t *= self.scale(unit) if at_reference else 1.0
            row = per_cycle.setdefault(cycle, [0, 0, 0.0])
            row[0] += n
            row[1] += samples
            row[2] += t
        cycles = per_cycle.values()
        return {
            "scenarios_per_s": median([n / t for n, _, t in cycles]),
            "stream_ksps": median([s / t for _, s, t in cycles]) / 1e3,
            "verdict_ms_p50": median(self.verdict_latencies(at_reference))
                              * 1e3,
        }

    def raw(self) -> dict[str, list]:
        """Per-pass and per-wave timings behind the end-to-end metrics."""
        return {"probes": self.probes, "latencies": self.latencies,
                "latency_units": self.latency_units, "waves": self.waves}


class StreamLive:
    """Vehicle passes arriving at a fixed rate, each a live session fed
    64-sample chunks on its own sample clock, alternating with unpaced
    waves of sessions.  Everything runs on a :class:`CpuClock`."""

    name = "stream_live"
    #: Passes started per second of the open loop: 1/16 of what one core
    #: decodes unpaced at the reference host speed (~260/s), so that the
    #: latency is mostly a pass's own work on its last chunk and its
    #: flush.  Queueing behind other passes grows faster than linearly
    #: with the host's slowdowns, which the probe corrects only linearly
    #: (timed by the wall clock, 128/s built a backlog on a slowed host
    #: and 32/s spread by 8-23% from run to run).
    rate_hz = 16.0
    #: One cycle is an open-loop segment this long on the clock (about
    #: two seconds of CPU; every trace of the pool once), drained, then
    #: ``waves`` unpaced waves of ``wave`` sessions (again every trace
    #: once), each unit after a probe; cycles spread both measurements
    #: over the run, and every cycle holds the same work.
    open_s = 12.0
    waves = 6
    wave = 32
    #: Traces captured in set-up; cycles use each once, and a pool this
    #: large holds about the same decode work for every seed.
    pool_size = 192
    #: Timings per probe; the median is kept.
    probe_repeats = 3

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.tracer: Tracer | None = None
        self.session_spans: dict[str, int] = {}
        self.feeds: list[tuple[ScenarioSpec, Any, list]] = []
        self.n_passes = 0
        self.clock = CpuClock()

    def setup(self) -> None:
        rng = random.Random(self.seed)
        # Speeds >= 5 m/s keep the auto sample rate at its 2 kS/s cap.
        specs = [spec.resolve() for spec in outdoor_specs(
            rng, self.pool_size, ground_lux=LUX, speed_mps=(5.0, 6.0),
            receiver_height_m=HEIGHTS, bits=(2, 3))]
        self.feeds = []
        for spec in specs:
            trace = capture_trace(spec)
            self.feeds.append((spec, trace,
                               [c.copy() for c in iter_chunks(trace.samples,
                                                              CHUNK)]))

    def remove(self) -> None:
        """Nothing outlives a run: traces and sessions are in memory."""

    def trace_on(self, tracer: Tracer) -> None:
        self.tracer = tracer
        tracer.clock = self.clock.now

    def _decoder(self, spec, trace) -> StreamDecoder:
        return StreamDecoder(
            trace.sample_rate_hz, trace.start_time_s,
            n_data_symbols=2 * len(spec.bits), decoder=build_decoder(spec),
            stage_trace=StageTrace() if self.tracer is not None else None)

    def _collect(self, phase: StreamPhase, session, feed_index: int,
                 open_loop: bool) -> None:
        verdict = session.verdict()
        key = (feed_index, verdict.bits if verdict else "",
               verdict.stage if verdict else "", session.failed)
        phase.verdicts[key] += 1
        if open_loop:
            stats = session.stats
            phase.passes += 1
            phase.busy_s += stats.busy_s
            phase.max_queue_depth = max(phase.max_queue_depth,
                                        stats.max_queue_depth)
            phase.backpressure_waits += stats.backpressure_waits
            phase.stages.merge(session.decoder.stage_trace)

    async def _paced(self, chunks, dues, lags):
        now = self.clock.now
        for chunk, due in zip(chunks, dues):
            delay = due - now()
            if delay > 0.0:
                await asyncio.sleep(delay)
            lags.append(now() - due)
            yield chunk

    async def _pass(self, phase, mux, index, start):
        feed = index % len(self.feeds)
        spec, trace, chunks = self.feeds[feed]
        sid = f"p{index}"
        fs = trace.sample_rate_hz
        n = len(trace.samples)
        # A chunk is due when its last sample has been taken.
        dues = [start + min((k + 1) * CHUNK, n) / fs
                for k in range(len(chunks))]
        session = mux.add_session(sid, self._decoder(spec, trace))
        if self.tracer is not None:
            span = self.tracer.add("stream.session", start, start,
                                   request=sid)
            self.session_spans[sid] = span
        await mux.run({sid: self._paced(chunks, dues, phase.lags)})
        ready = self.clock.now()
        phase.latencies.append(ready - dues[-1])
        phase.latency_units.append(len(phase.probes) - 1)
        if self.tracer is not None:
            self.tracer.spans[span].end = ready
        self._collect(phase, session, feed, True)

    async def _open_loop(self, phase):
        """Start passes on schedule for ``open_s``, then drain them."""
        now = self.clock.now
        mux = SessionMux(queue_chunks=8, isolate_errors=True)
        t0 = now() + 0.01
        tasks = []
        k = 0
        while k / self.rate_hz < self.open_s:
            start = t0 + k / self.rate_hz
            delay = start - now()
            if delay > 0.0:
                await asyncio.sleep(delay)
            phase.lags.append(now() - start)
            tasks.append(asyncio.ensure_future(
                self._pass(phase, mux, self.n_passes, start)))
            self.n_passes += 1
            k += 1
        await asyncio.gather(*tasks)
        phase.open_time += now() - t0

    def _unpaced(self, phase, wave, cycle):
        """One wave of sessions fed as fast as backpressure allows."""
        mux = SessionMux(queue_chunks=8, isolate_errors=True)
        feeds, index = {}, {}
        for k in range(self.wave):
            i = (wave * self.wave + k) % len(self.feeds)
            spec, trace, chunks = self.feeds[i]
            sid = f"w{wave}s{k}"
            mux.add_session(sid, self._decoder(spec, trace))
            feeds[sid] = chunks
            index[sid] = i
        started = self.clock.now()
        run_on(self.clock, mux.run(feeds))
        wall = self.clock.now() - started
        samples = sum(s.stats.n_samples for s in mux.sessions.values())
        phase.waves.append((self.wave, samples, wall,
                            len(phase.probes) - 1, cycle))
        for sid, session in mux.sessions.items():
            self._collect(phase, session, index[sid], False)

    def measure(self, seconds: float) -> StreamPhase:
        phase = StreamPhase()
        cpus = pin_one_cpu()
        began = time.perf_counter()
        cycle = 0
        # Whole cycles only, and none that would end past ``seconds``.
        # The probe is timed by the clock the units are timed by.
        probed = lambda: phase.probes.append(probe(  # noqa: E731
            cpus, clock=time.thread_time, repeats=self.probe_repeats))
        while cycle == 0 or ((time.perf_counter() - began)
                             * (cycle + 1) / cycle <= seconds):
            probed()
            run_on(self.clock, self._open_loop(phase))
            for k in range(self.waves):
                probed()
                self._unpaced(phase, cycle * self.waves + k, cycle)
            cycle += 1
        probed()
        return phase

    # -- correctness -----------------------------------------------------
    def check(self, phases: list[StreamPhase], tally: Tally) -> None:
        refs = []
        for spec, trace, _ in self.feeds:
            # The offline decode of the same trace, labelled as the
            # streaming verdict labels it.
            try:
                result = build_decoder(spec).decode(
                    trace, n_data_symbols=2 * len(spec.bits))
                stage = "decoded" if result.success else "decode_failed"
                refs.append((result.bit_string(), stage))
            except PreambleNotFoundError:
                refs.append(("", "preamble_not_found"))
            except DecodeError:
                refs.append(("", "decode_failed"))
        for phase in phases:
            for (i, bits, stage, failed), count in phase.verdicts.items():
                for _ in range(count):
                    tally.session(failed, stage, refs[i] == (bits, stage))

    # -- per-layer metrics -----------------------------------------------
    def layers(self, phase: StreamPhase) -> dict[str, float]:
        tracer = self.tracer
        out = empty_layers()
        out["stream.busy_frac"] = phase.busy_s / phase.open_time
        out["stream.push_us_p50"] = _median_or_zero(
            tracer.durations("stream.push"), 1e6)
        out["stream.flush_ms_p50"] = _median_or_zero(
            tracer.durations("stream.flush"), 1e3)
        for stage in STREAM_STAGES:
            out[f"stream.stage.{stage}_ms"] = (
                phase.stages.timings_s.get(stage, 0.0)
                / max(1, phase.passes) * 1e3)
        out["stream.max_queue_depth"] = phase.max_queue_depth
        out["stream.backpressure_waits"] = phase.backpressure_waits
        out["loadgen.lag_ms_p99"] = nearest_rank(phase.lags, 99.0)[0] * 1e3
        out["loadgen.rate_frac"] = (self.rate_hz
                                    / phase.end_to_end()["scenarios_per_s"])
        return out


WORKLOADS = {cls.name: cls for cls in (SweepPool, SweepTensor, SweepCached,
                                       StreamLive)}
