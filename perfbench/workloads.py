"""The benchmark's three workloads and their output checks.

Every workload runs the PSC pipeline under the Gigaflow system (K=4).
The rule set is a fixed part of each workload (PSC built with
:data:`RULESET_SEED`); ``--seed`` generates the traffic: the packet
trace, the fabric endpoint map and the churn storm.  A workload is
used as repeated *units*: :meth:`Workload.setup` builds fresh state
from the seed (so caches start empty and pipelines unchurned), the
state's :meth:`steps` are the timed region, and :func:`output_errors`
checks the outcome afterwards.  Units of one seed are identical
inputs, so their fidelity outputs must be identical too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

from repro.core.partition import disjoint_partition
from repro.flow import prefix_mask
from repro.net import FabricController, FabricSimulator, leaf_spine
from repro.pipeline import Disposition
from repro.pipeline.library import get_pipeline_spec
from repro.serve import ServeConfig, ServingDriver, endless_packets
from repro.sim import ChurnConfig, GigaflowSystem, SimConfig, VSwitchSimulator
from repro.workload import (
    TraceProfile,
    build_fabric_endpoints,
    build_workload,
    insert_delete_storm,
)

#: Seed of the PSC rule set every workload runs (the bench default).
RULESET_SEED = 7
#: Gigaflow cache tables (the paper's default K).
TABLES = 4
#: Packets per serving micro-batch.
BATCH = 256
#: serve-warm micro-batches per timed step (the runner samples the
#: host's speed between steps).
STEP_BATCHES = 512


@dataclass(frozen=True)
class Scale:
    """Input sizes of one workload."""

    flows: int
    mean_flow_size: float
    duration: float
    locality: str = "high"
    #: Tail index of the Pareto flow-size distribution.
    pareto_alpha: float = 1.2
    #: serve-warm: micro-batches in the timed region.
    timed_batches: int = 0
    #: fabric-churn: idle expiry and sweep cadence (simulated seconds).
    max_idle: float = 0.0
    sweep_interval: float = 5.0
    #: fabric-churn: deny rules in the spine-targeted storm.
    storm: int = 0


class State:
    """One unit's inputs and engine objects.

    ``phases`` holds the set-up's own timings (``build_s``,
    ``trace_s``, ``warmup_s``); ``packets`` is the ingress packet count
    of the timed region; ``batch_ms`` collects per-call host times.
    """

    packets: int
    flows: list

    def __init__(self):
        self.phases = {"build_s": 0.0, "trace_s": 0.0, "warmup_s": 0.0}
        self.batch_ms = []

    def steps(self) -> list:
        """The timed region, as calls the runner may sample the host's
        speed between."""
        raise NotImplementedError

    def finish(self) -> None:
        """Close the run after the timed region (untimed)."""

    def switches(self):
        """``[(name, simulator, pipeline, result)]``; ``simulator`` and
        ``result`` may be ``None`` before the timed steps ran."""
        raise NotImplementedError

    def fabric(self):
        """The :class:`~repro.net.FabricResult`, for fabric workloads."""
        return None


def _build(scale: Scale):
    return build_workload(
        get_pipeline_spec("PSC"), n_flows=scale.flows,
        locality=scale.locality, seed=RULESET_SEED,
    )


def _profile(scale: Scale) -> TraceProfile:
    return TraceProfile(
        mean_flow_size=scale.mean_flow_size,
        duration=scale.duration,
        pareto_alpha=scale.pareto_alpha,
    )


def _system(capacity: int, partitioner) -> GigaflowSystem:
    return GigaflowSystem(
        num_tables=TABLES,
        table_capacity=max(capacity // TABLES, 2),
        partitioner=partitioner,
    )


# =============================================================================
# replay-cold


class ReplayState(State):
    def __init__(self, scale: Scale, seed: int, partitioner):
        super().__init__()
        start = perf_counter()
        workload = _build(scale)
        built = perf_counter()
        self.trace = workload.trace(profile=_profile(scale), seed=seed)
        self.phases["build_s"] = built - start
        self.phases["trace_s"] = perf_counter() - built
        self.pipeline = workload.pipeline
        self.flows = [pilot.flow for pilot in workload.pilots]
        self.packets = len(self.trace)
        self.simulator = VSwitchSimulator(
            self.pipeline,
            _system(2 * scale.flows, partitioner),
            SimConfig(fast_path=True),
        )
        self.result = None

    def steps(self) -> list:
        return [self._replay]

    def _replay(self) -> None:
        start = perf_counter()
        self.result = self.simulator.run(self.trace)
        self.batch_ms.append((perf_counter() - start) * 1e3)

    def switches(self):
        return [("switch", self.simulator, self.pipeline, self.result)]


# =============================================================================
# serve-warm


class ServeState(State):
    def __init__(self, scale: Scale, seed: int, partitioner):
        super().__init__()
        start = perf_counter()
        workload = _build(scale)
        built = perf_counter()
        profile = _profile(scale)
        # Segments 0 and 1 of the endless source, rebuilt here only to
        # learn their lengths.  Segment 0 installs every flow; segment 1
        # refreshes the memo records its installs invalidated, so the
        # timed region starts in the steady state: memo replays only.
        warm_packets = sum(
            len(workload.trace(profile=profile, seed=seed + segment))
            for segment in (0, 1)
        )
        traced = perf_counter()
        self.phases["build_s"] = built - start
        self.phases["trace_s"] = traced - built
        self.pipeline = workload.pipeline
        self.flows = [pilot.flow for pilot in workload.pilots]
        self.driver = ServingDriver(
            self.pipeline,
            _system(2 * scale.flows, partitioner),
            SimConfig(fast_path=True),
            ServeConfig(batch_size=BATCH),
        ).start()
        self.source = endless_packets(workload, profile, seed=seed)
        while warm_packets > 0:
            batch = list(islice(self.source, min(BATCH, warm_packets)))
            self.driver.process(batch)
            warm_packets -= len(batch)
        self.phases["warmup_s"] = perf_counter() - traced
        self.timed_batches = scale.timed_batches
        self.packets = scale.timed_batches * BATCH
        self.result = None

    def steps(self) -> list:
        full, rest = divmod(self.timed_batches, STEP_BATCHES)
        sizes = [STEP_BATCHES] * full + ([rest] if rest else [])
        return [lambda n=n: self._serve(n) for n in sizes]

    def _serve(self, batches: int) -> None:
        # Closed loop, one source: the next batch is pulled only after
        # the previous one is processed.
        source = self.source
        process = self.driver.process
        times = self.batch_ms
        for _ in range(batches):
            batch = list(islice(source, BATCH))
            start = perf_counter()
            process(batch)
            times.append((perf_counter() - start) * 1e3)

    def finish(self) -> None:
        self.result = self.driver.finish()

    def switches(self):
        return [
            ("switch", self.driver.simulator, self.pipeline, self.result)
        ]


# =============================================================================
# fabric-churn


def churn_table(pipeline, field: str = "ip_src") -> int:
    """The deepest table matching on ``field``: where ACL pushes land."""
    return max(
        table.table_id
        for table in pipeline.tables.values()
        if field in table.field_set
    )


class FabricState(State):
    LEAVES, SPINES = 4, 2
    #: Share of flows whose endpoints sit on one leaf.
    NET_LOCALITY = 0.25

    def __init__(self, scale: Scale, seed: int, partitioner):
        super().__init__()
        topology = leaf_spine(self.LEAVES, self.SPINES)
        start = perf_counter()
        workload = _build(scale)
        # Private, identically built pipelines per switch: the storm
        # mutates the spines' rule sets.
        self.pipelines = {
            switch: _build(scale).pipeline for switch in topology.switches
        }
        built = perf_counter()
        duration = scale.duration
        trace = workload.trace(profile=_profile(scale), seed=seed)
        endpoints = build_fabric_endpoints(
            topology, scale.flows, locality=self.NET_LOCALITY, seed=seed
        )
        # Aim the storm at the busiest flows, as the churn bench does.
        _times, flow_indices, _sizes = trace.columns()
        per_flow = np.bincount(flow_indices, minlength=scale.flows)
        hottest = np.argsort(per_flow, kind="stable")[::-1]
        gap = 0.3 * duration / scale.storm
        storm = insert_delete_storm(
            [workload.pilots[i] for i in hottest[: 2 * scale.storm]],
            churn_table(workload.pipeline),
            start=0.3 * duration,
            count=scale.storm,
            gap=gap,
            hold=2 * gap,
            seed=seed,
            mask=prefix_mask(16),
        )
        self.phases["build_s"] = built - start
        self.phases["trace_s"] = perf_counter() - built

        cross = 1.0 - self.NET_LOCALITY
        leaf_load = scale.flows * (self.NET_LOCALITY + 2 * cross) / self.LEAVES
        spine_load = scale.flows * cross / self.SPINES
        # Identical caches everywhere, sized between the two loads.
        capacity = max(int((leaf_load + spine_load) / 2), 8)
        config = SimConfig(
            fast_path=True,
            max_idle=scale.max_idle,
            sweep_interval=scale.sweep_interval,
            churn=ChurnConfig(
                schedule=storm,
                reval_budget=32,
                switches=tuple(topology.by_role("spine")),
            ),
        )
        self.controller = FabricController(topology, endpoints)
        self.fabric_sim = FabricSimulator(
            topology,
            lambda context: self.pipelines[context.switch],
            lambda context: _system(capacity, partitioner),
            controller=self.controller,
            config=config,
            batch_size=BATCH,
            link_failures=[(duration / 2, "leaf0", "spine0")],
        )
        self.trace = trace
        self.flows = [pilot.flow for pilot in workload.pilots]
        self.packets = len(trace)
        self.fabric_result = None

    def steps(self) -> list:
        return [self._run]

    def _run(self) -> None:
        start = perf_counter()
        self.fabric_result = self.fabric_sim.run(self.trace)
        self.batch_ms.append((perf_counter() - start) * 1e3)

    def switches(self):
        drivers = self.fabric_sim.drivers
        results = (
            self.fabric_result.switch_results if self.fabric_result else {}
        )
        out = []
        for name, pipeline in self.pipelines.items():
            driver = drivers.get(name)
            out.append((
                name,
                driver.simulator if driver is not None else None,
                pipeline,
                results.get(name),
            ))
        return out

    def fabric(self):
        return self.fabric_result


# =============================================================================
# registry


@dataclass(frozen=True)
class Workload:
    state: type
    #: ``{"default": Scale, "tiny": Scale}``; tiny is for smoke tests.
    scales: dict

    def setup(self, seed: int, scale: str = "default", partitioner=None):
        return self.state(
            self.scales[scale], seed, partitioner or disjoint_partition
        )


#: The workloads ``BENCHMARK.json`` declares (reasons in README.md).
WORKLOADS = {
    "replay-cold": Workload(
        ReplayState,
        {
            "default": Scale(2000, 128.0, 30.0),
            "tiny": Scale(150, 16.0, 4.0),
        },
    ),
    "serve-warm": Workload(
        ServeState,
        {
            "default": Scale(2000, 32.0, 30.0, timed_batches=3072),
            "tiny": Scale(150, 16.0, 4.0, timed_batches=12),
        },
    ),
    "fabric-churn": Workload(
        FabricState,
        {
            "default": Scale(
                400, 16.0, 8.0, locality="low", pareto_alpha=3.0,
                max_idle=3.0, sweep_interval=0.5, storm=24,
            ),
            "tiny": Scale(
                120, 8.0, 4.0, locality="low", pareto_alpha=3.0,
                max_idle=1.5, sweep_interval=0.25, storm=6,
            ),
        },
    ),
}


# =============================================================================
# output checks


def cached_verdict(result, flow) -> tuple:
    """(disposition, output port, final flow) a cache hit implies."""
    actions = result.actions
    port = actions.output_port()
    if port is not None:
        disposition = Disposition.OUTPUT
    elif actions.drops():
        disposition = Disposition.DROP
    else:
        disposition = Disposition.CONTROLLER
    return disposition, port, actions.apply(flow)


def slowpath_verdict(pipeline, flow) -> tuple:
    """(disposition, output port, final flow) of the pipeline itself."""
    traversal = pipeline.execute(flow, record_stats=False)
    return (
        traversal.disposition,
        traversal.steps[-1].actions.output_port(),
        traversal.final_flow,
    )


def verdict_errors(switch: str, cache, pipeline, flows) -> list:
    """Every flow that hits ``cache`` must get the slow-path verdict.

    Runs after the timed region on the final (post-churn) state; the
    lookups touch LRU state, which no longer matters then.
    """
    errors = []
    for flow in flows:
        result = cache.lookup(flow)
        if not result.hit:
            continue
        cached = cached_verdict(result, flow)
        expected = slowpath_verdict(pipeline, flow)
        if cached != expected:
            errors.append(
                f"{switch}: flow {flow} cached verdict "
                f"{cached[:2]} != slow path {expected[:2]}"
                + ("" if cached[2] == expected[2] else " (final flow differs)")
            )
    return errors


def output_errors(state: State) -> list:
    """Conservation rules, then the slow-path verdict check."""
    errors = []
    for name, simulator, pipeline, result in state.switches():
        stats = result.stats
        if stats.hits + stats.misses != result.packets:
            errors.append(
                f"{name}: hits {stats.hits} + misses {stats.misses} != "
                f"packets {result.packets}"
            )
        fastpath = simulator.fastpath
        if fastpath.memo_hits + fastpath.memo_misses != result.packets:
            errors.append(
                f"{name}: memo hits {fastpath.memo_hits} + memo misses "
                f"{fastpath.memo_misses} != fast-path lookups "
                f"{result.packets}"
            )
    fabric = state.fabric()
    if fabric is not None:
        per_switch = sum(r.packets for r in fabric.switch_results.values())
        if fabric.hops_total != per_switch:
            errors.append(
                f"fabric: hops_total {fabric.hops_total} != sum of "
                f"per-switch packets {per_switch}"
            )
    for name, simulator, pipeline, _result in state.switches():
        errors.extend(
            verdict_errors(
                name, simulator.system.cache, pipeline, state.flows
            )
        )
    return errors


def fidelity(state: State) -> dict:
    """The paper's outputs: hit rate, modelled latency, peak entries.

    For the fabric, ``peak_entries`` is the sum of the exact per-switch
    peaks.
    """
    fabric = state.fabric()
    if fabric is not None:
        result = fabric.merged
        peak = sum(result.peak_entries_per_shard)
    else:
        result = state.switches()[0][3]
        peak = result.peak_entries
    return {
        "hit_rate": result.hit_rate,
        "sim_latency_us": result.avg_latency_us,
        "peak_entries": peak,
    }


def fingerprint(state: State) -> tuple:
    """The fidelity fields tracing and repetition must leave unchanged."""
    rows = []
    for name, _simulator, _pipeline, r in state.switches():
        s = r.stats
        rows.append((
            name, r.packets, s.hits, s.misses, s.evictions, s.insertions,
            s.rejected, r.cache_probes, r.avg_latency_us, r.peak_entries,
        ))
    fabric = state.fabric()
    if fabric is not None:
        rows.append(("fabric", fabric.hops_total, fabric.reroutes))
    return tuple(rows)
