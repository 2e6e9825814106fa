"""rigidity-forge verifier benchmark.

    python3 perfbench/run.py --workload soundness-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout (nothing is installed).  One process, one thread, a closed
loop: each item starts when the previous verdict is in.  The loop runs whole
passes over the workload's fixed item list, each pass in a seeded order, at
least two and until ``--seconds`` have elapsed, so every run sees the same
item mix.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see ``metrics.py``).  The traced run alternates untraced and
traced passes (the ratio of their times gives the tracing overhead) and then
runs the layer probes.  Every item's verdict is checked against
its known answer; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the environment, the counters and any
failures.  ``--out FILE`` also writes that full record as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    NO_TRACE,
    REFERENCE_NS,
    ItemRecord,
    PassRecord,
    ProgramMissing,
    RefClock,
    Tracer,
    fresh_import,
    hd_quantile,
    peak_rss_mb,
    trace_model_apply,
)
from metrics import END_TO_END, LAYERS  # noqa: E402
from probes import run_probes  # noqa: E402
from workloads import COUNTERS, SETUPS, Outcome, merge_counters  # noqa: E402

SETUP_REPEATS = 5
# every item is timed at least twice: one pass of soundness-corpus outlasts
# --seconds, and a single sample of each item left its median too noisy
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(SRC),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_pass(m, workload, rng: random.Random, tracer, clock) -> PassRecord:
    order = list(workload.items)
    rng.shuffle(order)
    record = PassRecord(traced=tracer.enabled, counters=dict(workload.base_counters))
    with trace_model_apply(m, tracer):
        for item in order:
            if tracer.enabled:
                tracer.item_id = item.id
            gc.collect()  # garbage left by the previous item is not this item's cost
            try:
                with clock.region():
                    outcome = item.run(tracer)
            except Exception as exc:  # an item that raises is a failed item
                outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}")
            record.items.append(ItemRecord(item.id, item.group, clock.raw, clock.scaled, outcome.ok, outcome.message))
            record.ns += clock.raw
            record.scaled_ns += clock.scaled
            if outcome.ok:
                merge_counters(record.counters, outcome.tally())
    if tracer.enabled:
        record.self_ns = tracer.self_times_ns()
        tracer.clear()
    return record


def closed_loop(m, workload, seed: int, seconds: float, traced: bool, clock) -> list[PassRecord]:
    """Whole passes, at least two, until ``seconds`` have elapsed; traced runs
    alternate an untraced and a traced pass."""
    rng = random.Random(f"order:{seed}")
    tracers = [NO_TRACE, Tracer()] if traced else [NO_TRACE]
    passes: list[PassRecord] = []
    deadline = time.perf_counter() + seconds
    while True:
        for tracer in tracers:
            passes.append(run_pass(m, workload, rng, tracer, clock))
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def item_times_ms(items: list[ItemRecord], scaled: bool) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in items:
        out.setdefault(r.item, []).append((r.scaled_ns if scaled else r.ns) / 1e6)
    return out


def timings(items: list[ItemRecord], setup_ns: list[float], scaled: bool) -> dict:
    """p50 and p90 over the items' median verdict times (one value per item of
    the pass, so the quantile's position never depends on the pass count)."""
    per_item = [median(times) for times in item_times_ms(items, scaled).values()]
    total_ns = sum(r.scaled_ns if scaled else r.ns for r in items)
    return {
        "verdict_ms.p50": hd_quantile(per_item, 0.5),
        "verdict_ms.p90": hd_quantile(per_item, 0.9),
        "items_per_s": len(items) / (total_ns / 1e9),
        "setup_s": median(setup_ns) / 1e9,
    }


def end_to_end(passes: list[PassRecord], setup_scaled_ns: list[float]) -> dict:
    items = [r for p in passes for r in p.items]
    values = timings(items, setup_scaled_ns, scaled=True)
    values["verified_share"] = sum(r.ok for r in items) / len(items)
    values["peak_rss_mb"] = peak_rss_mb()
    return {e.name: {"value": values[e.name], "unit": e.unit} for e in END_TO_END}


def per_layer(passes: list[PassRecord], probe_values: dict, probe_self_ns: dict) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    counters = traced[0].counters
    values = dict(probe_values)
    for name in COUNTERS:
        values[name] = counters.get(name, 0)
    facts = counters.get("engine.facts", 0)
    values["engine.closure_ratio"] = counters.get("engine.closure_facts", 0) / facts if facts else 0
    kfield_ns = sum(r.scaled_ns for p in traced for r in p.items if r.group == "kfield")
    values["models.kfield_share"] = kfield_ns / sum(p.scaled_ns for p in traced)
    values["trace_overhead_share"] = median([p.scaled_ns for p in traced]) / median([p.scaled_ns for p in plain]) - 1
    out = {}
    for layer in LAYERS:
        if layer.span is not None:
            per_pass = median([p.self_ns.get(layer.span, 0) for p in traced]) + probe_self_ns.get(layer.span, 0)
            value = per_pass / (1e9 if layer.unit == "s" else 1e6)
        else:
            value = values.get(layer.name, 0)
        out[layer.name] = {"value": value, "unit": layer.unit}
    return out


def failures_of(passes: list[PassRecord]) -> list[str]:
    found = []
    for index, record in enumerate(passes):
        found += [f"pass {index}: {r.item}: {r.message}" for r in record.items if not r.ok]
        if record.counters != passes[0].counters:
            found.append(f"pass {index}: counters differ from pass 0: {record.counters} != {passes[0].counters}")
    return found


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write the full record here (JSON)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # end-to-end times are in reference-speed units; a traced run samples the
    # reference only between items, so its spans and probes stay wall time
    clock = RefClock(period_s=None if args.trace else RefClock.PERIOD_S)
    try:
        setup_ns, setup_scaled_ns = [], []
        try:
            for _ in range(SETUP_REPEATS):
                m = workload = None
                gc.collect()
                with clock.region():
                    m = fresh_import(SRC)
                    workload = SETUPS[args.workload](m, args.seed)
                setup_ns.append(clock.raw)
                setup_scaled_ns.append(clock.scaled)
        except ProgramMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        passes = closed_loop(m, workload, args.seed, args.seconds, bool(args.trace), clock)
    finally:
        clock.close()
    failures = failures_of(passes)
    if args.trace:
        probe_tracer = Tracer()
        probe_values, probe_failures = run_probes(m, args.seed, probe_tracer, SRC, SCRATCH)
        failures += probe_failures
        metrics = per_layer(passes, probe_values, probe_tracer.self_times_ns())
    else:
        metrics = end_to_end(passes, setup_scaled_ns)

    items = [r for p in passes for r in p.items]
    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": sum(not r.ok for r in items),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "passes": len(passes),
        "items_per_pass": len(workload.items),
        "pass_seconds": [round(p.ns / 1e9, 4) for p in passes],
        "failed_share": result["failed"] / len(items),
        "counters_per_pass": passes[0].counters,
        "setup_ns": setup_ns,
        "wall_clock": timings(items, setup_ns, scaled=False),
        "reference_ms": {
            "unit": REFERENCE_NS / 1e6,
            "median": median(clock.samples) / 1e6,
            "min": min(clock.samples) / 1e6,
            "samples": len(clock.samples),
        },
        "failures": failures[:20],
        "item_ms": {k: [round(x, 4) for x in v] for k, v in item_times_ms(items, scaled=not args.trace).items()},
        "result": result,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k not in ("result", "item_ms")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
