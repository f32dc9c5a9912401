"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced units;
``--trace 1`` pairs each untraced unit with a traced one and reports
the per-layer ledger.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (manifest included), which is also
written under ``.bench_out/``.  The exit code is 0 only when every
output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Traffic samples per run: unit ``i`` replays sample ``i % 3`` of the
#: seed, so one run's medians cover several traces rather than one
#: trace's luck.  Every run completes all of them, which also makes
#: ``setup_s`` a median.
TRAFFIC_SAMPLES = 3
#: Stop starting units after this much wall time (seconds).
WALL_CAP_S = 120.0
#: Iterations of :func:`calibration_loop` per host-speed sample.
CAL_ITERATIONS = 300_000
#: Calibration-loop iterations per second that define the reference
#: host: the loop's median rate on the 2-vCPU 2.1 GHz Xeon (Python
#: 3.11) the benchmark was tuned on.
REF_RATE = 2.3e6

#: ``name: unit`` of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "pps": "1/s",
    "setup_s": "s",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "hit_rate": "ratio",
    "sim_latency_us": "us",
    "peak_entries": "count",
    "peak_rss_mb": "MB",
}

#: ``name: unit`` of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "sim.timed_s": "s",
    "sim.loop_self_s": "s",
    "sim.loop_self_share": "ratio",
    "workload.build_s": "s",
    "workload.trace_s": "s",
    "serve.warmup_s": "s",
    "fastpath.lookup_calls": "count",
    "fastpath.replay_self_s": "s",
    "fastpath.memo_hits": "count",
    "fastpath.memo_misses": "count",
    "fastpath.invalidations": "count",
    "fastpath.memo_hit_rate": "ratio",
    "cache.lookup_calls": "count",
    "cache.lookup_s": "s",
    "cache.lookup_share": "ratio",
    "classify.groups_per_packet": "groups/pkt",
    "pipeline.execute_calls": "count",
    "pipeline.execute_s": "s",
    "pipeline.groups_probed": "count",
    "install.calls": "count",
    "install.s": "s",
    "install.rules_installed": "count",
    "install.rules_reused": "count",
    "install.rules_rejected": "count",
    "install.reuse_ratio": "ratio",
    "partition.calls": "count",
    "partition.s": "s",
    "evict.idle_sweeps": "count",
    "evict.idle_s": "s",
    "evict.idle_evicted": "count",
    "evict.capacity_evictions": "count",
    "churn.advance_calls": "count",
    "churn.advance_s": "s",
    "churn.reval_checked": "count",
    "churn.reval_evicted": "count",
    "churn.backlog_peak": "count",
    "serve.batches": "count",
    "serve.process_self_s": "s",
    "net.path_for_calls": "count",
    "net.path_for_s": "s",
    "net.hops_per_packet": "hops/pkt",
    "net.reroutes": "count",
    "net.hit_rate.leaf": "ratio",
    "net.hit_rate.spine": "ratio",
    "net.merge_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead": "ratio",
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit with 1."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, src)


# =============================================================================
# host speed


class _Slot:
    __slots__ = ("hits", "last")


def calibration_loop(n: int) -> int:
    """A fixed pure-Python mix of the simulator's own operations: tuple
    keys, dict probes, slotted-object allocation, attribute updates."""
    table = {}
    total = 0
    for i in range(n):
        key = (i & 2047, i % 7)
        slot = table.get(key)
        if slot is None:
            slot = table[key] = _Slot()
            slot.hits = 0
        slot.hits += 1
        slot.last = i
        total += len(key)
    return total


def host_speed() -> float:
    """The host's speed right now, relative to the reference host.

    A shared host's speed drifts by tens of percent over minutes.
    Multiplying a wall time by the speed measured beside it gives
    *reference seconds*: the time the same work takes on the
    reference host.  Code changes move reference seconds; host drift
    mostly does not.
    """
    start = perf_counter()
    calibration_loop(CAL_ITERATIONS)
    return CAL_ITERATIONS / (perf_counter() - start) / REF_RATE


# =============================================================================
# units


def run_unit(workload, seed, scale, recorder=None) -> dict:
    """Set up, run the timed region, check; returns a summary.

    Host times in the summary are reference seconds: each wall time is
    scaled by the mean :func:`host_speed` sampled on either side of it.
    ``wall`` keeps the raw wall times.  The unit's engine state is
    dropped on return, so later units do not run against a larger heap.
    A raised exception is reported as an error with ``timed_s`` of
    ``None``.
    """
    from workloads import fidelity, fingerprint, output_errors

    partitioner = None
    if recorder is not None:
        from repro.core.partition import disjoint_partition
        from spans import PARTITION

        partitioner = recorder.wrap(PARTITION, disjoint_partition)
    speed_before = host_speed()
    start = perf_counter()
    state = workload.setup(seed, scale, partitioner)
    setup_s = perf_counter() - start
    unit = {"packets": state.packets, "timed_s": None}
    # Each unit starts its timed region from a collected heap.
    gc.collect()
    speed = host_speed()
    setup_speed = (speed_before + speed) / 2
    try:
        if recorder is None:
            wall_s, timed_s = run_steps(state, speed)
        else:
            from spans import ROOT as ROOT_SPAN

            before = counters(state)
            steps = state.steps()
            recorder.timed(lambda: [step() for step in steps])
            state.counter_delta = subtract(counters(state), before)
            traced_speed = (speed + host_speed()) / 2
            ledger = recorder.ledger()
            wall_s = ledger[ROOT_SPAN][1]
            timed_s = wall_s * traced_speed
            state.batch_ms[:] = [ms * traced_speed for ms in state.batch_ms]
        state.finish()
        if recorder is not None:
            unit["layers"] = layer_metrics(
                state, ledger, recorder, traced_speed
            )
        unit["fingerprint"] = fingerprint(state)
        unit["fidelity"] = fidelity(state)
        unit["errors"] = output_errors(state)
    except Exception:
        traceback.print_exc()
        unit["errors"] = ["unit raised (traceback on stderr)"]
        return unit
    unit.update(
        speed=timed_s / wall_s,
        wall={"setup_s": setup_s, "timed_s": wall_s},
        setup_s=setup_s * setup_speed,
        timed_s=timed_s,
        phases={k: v * setup_speed for k, v in state.phases.items()},
        batch_ms=state.batch_ms,
    )
    return unit


def run_steps(state, speed: float) -> tuple:
    """Run the timed steps, sampling host speed between them.

    Returns ``(wall_s, reference_s)``; the state's ``batch_ms`` are
    rescaled to reference milliseconds in place.
    """
    wall_s = reference_s = 0.0
    for step in state.steps():
        first = len(state.batch_ms)
        start = perf_counter()
        step()
        elapsed = perf_counter() - start
        after = host_speed()
        factor = (speed + after) / 2
        wall_s += elapsed
        reference_s += elapsed * factor
        state.batch_ms[first:] = [
            ms * factor for ms in state.batch_ms[first:]
        ]
        speed = after
    return wall_s, reference_s


def counters(state) -> dict:
    """Cumulative engine counters summed over the unit's switches."""
    out = dict.fromkeys(
        ("memo_hits", "memo_misses", "invalidations", "hits", "misses",
         "evictions", "insertions", "rejected", "reused", "shadow",
         "groups_probed", "reval_checked", "reval_evicted"),
        0,
    )
    out["backlog_peak"] = 0
    for _name, simulator, pipeline, _result in state.switches():
        out["groups_probed"] += pipeline.stats.groups_probed
        if simulator is None:
            continue
        fastpath = simulator.fastpath
        if fastpath is not None:
            out["memo_hits"] += fastpath.memo_hits
            out["memo_misses"] += fastpath.memo_misses
            out["invalidations"] += fastpath.invalidations
        cache = simulator.system.cache
        stats = cache.stats
        out["hits"] += stats.hits
        out["misses"] += stats.misses
        out["evictions"] += stats.evictions
        out["insertions"] += stats.insertions
        out["rejected"] += stats.rejected
        out["reused"] += cache.sharing_events
        out["shadow"] += cache.shadow_repairs
        churn = simulator.churn
        if churn is not None:
            out["reval_checked"] += churn.revalidator.total_checked
            out["reval_evicted"] += churn.revalidator.total_evicted
            out["backlog_peak"] = max(out["backlog_peak"], churn.backlog_peak)
    controller = getattr(state, "controller", None)
    out["reroutes"] = controller.reroutes if controller is not None else 0
    return out


def subtract(after: dict, before: dict) -> dict:
    delta = {key: after[key] - before[key] for key in after}
    # A peak is a level, not a count.
    delta["backlog_peak"] = after["backlog_peak"]
    return delta


def tail_ms(values) -> float:
    """``batch_p99_ms``: the 99th percentile, or, with fewer than 1000
    samples, the highest percentile that still has ten samples beyond
    it (the median when none has)."""
    import numpy as np

    q = max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / len(values))))
    return float(np.percentile(np.asarray(values), q))


def unit_seed(seed: int, index: int) -> int:
    """The traffic seed of unit ``index`` of a run with ``seed``."""
    return seed * TRAFFIC_SAMPLES + index % TRAFFIC_SAMPLES


class Tally:
    """Attempted/failed packets and error messages across units."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, unit: dict, reference=None) -> bool:
        """Count ``unit``; False when it failed.  ``reference`` is an
        earlier unit with identical inputs: the fidelity outputs must
        match it exactly."""
        errors = list(unit["errors"])
        if (
            reference is not None
            and unit["timed_s"] is not None
            and unit["fingerprint"] != reference["fingerprint"]
        ):
            errors.append("fidelity outputs differ between identical inputs")
        self.attempted += unit["packets"]
        if errors:
            self.failed += unit["packets"]
            self.errors.extend(errors)
        return not errors and unit["timed_s"] is not None


def same_inputs(units, index: int):
    """The earlier unit that replayed the same traffic sample."""
    if index < TRAFFIC_SAMPLES:
        return None
    return units[index - TRAFFIC_SAMPLES]


def fidelity_mean(units) -> dict:
    """Fidelity outputs averaged over the run's traffic samples (the
    first :data:`TRAFFIC_SAMPLES` units, which every run completes)."""
    first = [unit["fidelity"] for unit in units[:TRAFFIC_SAMPLES]]
    return {
        name: statistics.fmean(f[name] for f in first) for name in first[0]
    }


def setup_phases(units) -> dict:
    return {
        phase: statistics.median(unit["phases"][phase] for unit in units)
        for phase in ("build_s", "trace_s", "warmup_s")
    }


# =============================================================================
# end-to-end (--trace 0)


def measure(workload, seed, seconds, scale):
    wall = perf_counter()
    tally = Tally()
    units = []
    while True:
        index = len(units)
        unit = run_unit(workload, unit_seed(seed, index), scale)
        ok = tally.add(unit, same_inputs(units, index))
        if unit["timed_s"] is None:
            break
        units.append(unit)
        timed = sum(u["wall"]["timed_s"] for u in units)
        if not ok or len(units) >= TRAFFIC_SAMPLES and (
            timed >= seconds or perf_counter() - wall > WALL_CAP_S
        ):
            break
    metrics = {}
    detail = {"units": len(units)}
    if units:
        batch_ms = [ms for unit in units for ms in unit["batch_ms"]]
        metrics = {
            "pps": statistics.median(
                u["packets"] / u["timed_s"] for u in units
            ),
            "setup_s": statistics.median(u["setup_s"] for u in units),
            "batch_p50_ms": statistics.median(batch_ms),
            "batch_p99_ms": tail_ms(batch_ms),
            **fidelity_mean(units),
            "peak_rss_mb": peak_rss_mb(),
        }
        detail.update(
            wall_timed_s=sum(u["wall"]["timed_s"] for u in units),
            batches=len(batch_ms),
            unit_pps=[u["packets"] / u["timed_s"] for u in units],
            unit_setup_s=[u["setup_s"] for u in units],
            unit_host_speed=[u["speed"] for u in units],
            unit_wall_pps=[
                u["packets"] / u["wall"]["timed_s"] for u in units
            ],
            setup_phases_s=setup_phases(units),
        )
    return metrics, tally, detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# =============================================================================
# per-layer (--trace 1)


def measure_traced(workload, seed, seconds, scale, spans_path):
    from spans import SpanRecorder

    recorder = SpanRecorder()
    wall = perf_counter()
    tally = Tally()
    pairs = []
    timed = 0.0
    while True:
        index = len(pairs)
        plain = run_unit(workload, unit_seed(seed, index), scale)
        with recorder.patched():
            traced = run_unit(
                workload, unit_seed(seed, index), scale, recorder
            )
        ok = tally.add(plain, same_inputs([p for p, _t in pairs], index))
        # Tracing is observation only: same outputs as untraced.
        if not tally.add(traced, plain if plain["timed_s"] else None):
            ok = False
        if not ok:
            break
        traced["layers"]["trace.overhead"] = (
            traced["timed_s"] / plain["timed_s"]
        )
        pairs.append((plain, traced))
        timed += plain["wall"]["timed_s"] + traced["wall"]["timed_s"]
        if timed >= seconds or perf_counter() - wall > WALL_CAP_S:
            break
    metrics = {}
    if pairs:
        recorder.save(spans_path)
        layers = [traced["layers"] for _plain, traced in pairs]
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        # Set-up phases come from the untraced units, which run
        # without the wrappers.
        phases = setup_phases([plain for plain, _traced in pairs])
        metrics["workload.build_s"] = phases["build_s"]
        metrics["workload.trace_s"] = phases["trace_s"]
        metrics["serve.warmup_s"] = phases["warmup_s"]
    detail = {"pairs": len(pairs), "spans": spans_path if pairs else None}
    return metrics, tally, detail


def layer_metrics(state, ledger, recorder, speed: float) -> dict:
    """Per-layer metrics of one traced unit (times in reference
    seconds: wall seconds times ``speed``)."""
    from spans import PARTITION, ROOT as ROOT_SPAN

    def calls(name):
        return ledger.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(name):
        return ledger.get(name, (0, 0.0, 0.0))[1] * speed

    def self_s(name):
        return ledger.get(name, (0, 0.0, 0.0))[2] * speed

    def ratio(part, whole):
        return part / whole if whole else 0.0

    delta = state.counter_delta
    timed_s = inclusive_s(ROOT_SPAN)
    results = [r for _n, _s, _p, r in state.switches()]
    probes = sum(r.cache_probes for r in results)
    lookups = sum(r.packets for r in results)
    generated = delta["insertions"] + delta["reused"] + delta["rejected"]
    idle_evicted = recorder.tallies["evict.idle"]
    fabric = state.fabric()
    by_role = fabric.hit_rate_by_role() if fabric is not None else {}
    return {
        "sim.timed_s": timed_s,
        "sim.loop_self_s": self_s(ROOT_SPAN),
        "sim.loop_self_share": ratio(self_s(ROOT_SPAN), timed_s),
        "fastpath.lookup_calls": calls("fastpath.lookup"),
        "fastpath.replay_self_s": self_s("fastpath.lookup"),
        "fastpath.memo_hits": delta["memo_hits"],
        "fastpath.memo_misses": delta["memo_misses"],
        "fastpath.invalidations": delta["invalidations"],
        "fastpath.memo_hit_rate": ratio(
            delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"]
        ),
        "cache.lookup_calls": calls("cache.lookup"),
        "cache.lookup_s": self_s("cache.lookup"),
        "cache.lookup_share": ratio(self_s("cache.lookup"), timed_s),
        "classify.groups_per_packet": ratio(probes, lookups),
        "pipeline.execute_calls": calls("pipeline.execute"),
        "pipeline.execute_s": self_s("pipeline.execute"),
        "pipeline.groups_probed": delta["groups_probed"],
        "install.calls": calls("install"),
        "install.s": self_s("install"),
        "install.rules_installed": delta["insertions"],
        "install.rules_reused": delta["reused"],
        "install.rules_rejected": delta["rejected"],
        "install.reuse_ratio": ratio(delta["reused"], generated),
        "partition.calls": calls(PARTITION),
        "partition.s": self_s(PARTITION),
        "evict.idle_sweeps": calls("evict.idle"),
        "evict.idle_s": self_s("evict.idle"),
        "evict.idle_evicted": idle_evicted,
        "evict.capacity_evictions": (
            delta["evictions"] - idle_evicted - delta["reval_evicted"]
            - delta["shadow"]
        ),
        "churn.advance_calls": calls("churn.advance"),
        "churn.advance_s": self_s("churn.advance"),
        "churn.reval_checked": delta["reval_checked"],
        "churn.reval_evicted": delta["reval_evicted"],
        "churn.backlog_peak": delta["backlog_peak"],
        "serve.batches": calls("serve.process"),
        "serve.process_self_s": self_s("serve.process"),
        "net.path_for_calls": calls("net.path_for"),
        "net.path_for_s": self_s("net.path_for"),
        "net.hops_per_packet": (
            ratio(fabric.hops_total, fabric.packets) if fabric else 0.0
        ),
        "net.reroutes": delta["reroutes"],
        "net.hit_rate.leaf": by_role.get("leaf", 0.0),
        "net.hit_rate.spine": by_role.get("spine", 0.0),
        "net.merge_s": inclusive_s("net.merge"),
        "gc.collections": recorder.gc_collections,
        "gc.pause_s": recorder.gc_pause_s * speed,
    }


# =============================================================================
# manifest and output


def manifest(args) -> dict:
    return {
        "git_rev": git_rev(),
        "source_sha1": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "timer": "time.perf_counter wall clock, rescaled to reference "
                 "seconds by calibration_loop",
        "ref_rate": REF_RATE,
        "run_seconds": args.seconds,
    }


def git_rev():
    """HEAD's commit from ``.git`` files, or ``None`` outside a repo."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(
            os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8"
        ) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-1 over ``src/repro``'s Python files: identifies the code
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("replay-cold", "serve-warm", "fabric-churn"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("default", "tiny"), default="default",
        help="input sizes; tiny is for the benchmark's own smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR,
        f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}",
    )
    if args.trace:
        units = PER_LAYER
        metrics, tally, detail = measure_traced(
            workload, args.seed, args.seconds, args.scale, stem + ".spans.npz"
        )
    else:
        units = END_TO_END
        metrics, tally, detail = measure(
            workload, args.seed, args.seconds, args.scale
        )
    attempted, failed, errors = tally.attempted, tally.failed, tally.errors
    for error in errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    correct = not errors and set(metrics) == set(units)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"correct={correct} failed={failed}/{attempted}")
    print_table(metrics, units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    record = {
        "manifest": manifest(args),
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
        "detail": detail,
        **result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
