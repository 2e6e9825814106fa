"""Every metric the benchmark reports, with the reason it is there.

``END_TO_END`` is what a user of the verifier waits for; the untraced run
(``--trace 0``) prints these.  ``LAYERS`` comes from the traced run
(``--trace 1``); each entry names the end-to-end metric (and workload) it
should move.  A span metric is the self time of one span name over a traced
pass of the workload (median over passes) plus its self time in the probes
that every traced run adds: the layer sweep, which puts one small input
through every spanned layer, the suite criteria and the CLI.  A layer the
workload does not exercise therefore shows the sweep's time alone.  Kernel
metrics (``scalars.*``, ``poly.*``, ``cm.*``) are microbenchmarks.

``BENCHMARK.json`` lists the same names and units; the self-test checks that
the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

SOUND, CHAIN, RADICAL = "soundness-corpus", "chain-scale", "radical-build"
WORKLOADS = (SOUND, CHAIN, RADICAL)

WHY = {
    SOUND: "the acceptance gate and model-check on eps models spend their time here, ~95% in K(eps) arithmetic; "
    "also times the cheap tower paths and the early-exit refutations",
    CHAIN: "rational chains of span 5-80 through the file pipeline: engine seeding, the find_sqdist scan and "
    "~1 MB of JSON at span 40; no K(eps) work; writes beside reads",
    RADICAL: "constructions over quadratic towers of depth 1-4: TowerElem sign/inverse/adjoin and the mediant "
    "search, with small derivations and no K(eps) work",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


# Times are in reference-speed units (see harness.RefClock): wall time scaled
# so that the fixed reference computation takes 0.5 ms.  The wall-clock
# figures go into each run's record line beside them.
END_TO_END = (
    EndToEnd(
        "verdict_ms.p50",
        "ms",
        "lower",
        0.2,
        "median time from the start of an item to its verdict: the Harrell-Davis median of the items' "
        "median times over the run's passes; the sample count is `attempted`",
    ),
    EndToEnd("verdict_ms.p90", "ms", "lower", 0.2, "90th percentile of the same, estimated the same way"),
    EndToEnd("items_per_s", "1/s", "higher", 0.15, "items completed per second of item time, whole passes"),
    EndToEnd(
        "verified_share",
        "share",
        "higher",
        0.001,
        "1 - failed_share: the share of items whose verdict matched the known answer "
        "(reported this way round because a metric must never read 0)",
    ),
    EndToEnd("setup_s", "s", "lower", 0.25, "import plus building the inputs the workload treats as given; median of 5"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2, "peak resident memory of the benchmark process"),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric it should move, and on which workload
    span: str | None = None  # span whose self time gives the value


_KERNELS = "items_per_s and verdict_ms.p90 on radical-build"
_KFIELD = "verdict_ms.p90 and items_per_s on soundness-corpus"
_POLY = "setup_s, and suite criteria 1, 3 and 8"
_BUILD = "items_per_s on radical-build and chain-scale"
_CHAIN = "items_per_s and verdict_ms.p90 on chain-scale"
_FACTS = "items_per_s on chain-scale and soundness-corpus"
_ACCEPT = "soundness-corpus, through the acceptance path and the command line"


def _timed(name: str, unit: str, moves: str, span: str) -> Layer:
    return Layer(name, unit, "lower", moves, span=span)


LAYERS: tuple[Layer, ...] = (
    *(
        Layer(f"scalars.{op}_us.d{d}", "us", "lower", _KERNELS)
        for op in ("tower_mul", "tower_inverse", "tower_sign")
        for d in range(5)
    ),
    Layer("scalars.adjoin_sqrt_us", "us", "lower", _KERNELS),
    *(Layer(f"scalars.fun_{op}_us", "us", "lower", _KFIELD) for op in ("add", "mul", "eq")),
    Layer("poly.det_ms", "ms", "lower", _POLY),
    Layer("poly.identity_check_ms", "ms", "lower", _POLY),
    Layer("cm.cm4_us", "us", "lower", _POLY),
    Layer("cm.affinely_dependent3_us", "us", "lower", _POLY),
    *(
        _timed(f"gadgets.build_ms.{kind}", "ms", _BUILD, f"gadgets.build.{kind}")
        for kind in ("division", "chain", "bridge", "kempe", "perp")
    ),
    Layer("gadgets.points", "count", "lower", _BUILD),
    Layer("gadgets.cert_entries", "count", "lower", _BUILD),
    Layer("gadgets.tower_depth_max", "count", "lower", _BUILD),
    _timed("engine.replay_ms", "ms", _CHAIN, "engine.replay"),
    _timed("engine.recheck_ms", "ms", _CHAIN, "engine.recheck"),
    *(
        _timed(f"engine.check_ms.{kind}", "ms", _KFIELD if kind.startswith("eps") else _CHAIN, f"engine.check.{kind}")
        for kind in ("identity", "conjugation", "conjugation-rotation", "eps-rotation", "eps-reflection")
    ),
    Layer("engine.facts", "count", "lower", _FACTS),
    Layer("engine.facts_checked", "count", "lower", _FACTS),
    Layer("engine.closure_facts", "count", "lower", _FACTS),
    Layer("engine.closure_ratio", "share", "higher", _FACTS),
    *(
        _timed(f"models.{what}_ms.{field}", "ms", _KFIELD if field == "kfield" else _KERNELS, f"models.{what}.{field}")
        for what in ("apply", "preservation", "structure")
        for field in ("tower", "kfield")
    ),
    Layer("models.kfield_share", "share", "lower", _KFIELD),
    _timed("codec.encode_ms", "ms", _CHAIN, "codec.encode"),
    _timed("codec.decode_ms", "ms", _CHAIN, "codec.decode"),
    Layer("codec.bytes", "count", "lower", _CHAIN),
    *(_timed(f"suite.criterion_s.c{i}", "s", _ACCEPT, f"suite.criterion.c{i}") for i in range(1, 10)),
    *(_timed(f"cli.main_ms.{cmd}", "ms", _ACCEPT, f"cli.main.{cmd}") for cmd in ("verify", "replay", "model-check")),
    Layer("trace_overhead_share", "share", "lower", "nothing; the traced run's time over the untraced run's, minus 1"),
)

def benchmark_json() -> dict:
    """The BENCHMARK.json this table describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": e.name, "unit": e.unit, "better": e.better, "bound": e.bound} for e in END_TO_END],
        "per_layer": [{"name": l.name, "unit": l.unit, "better": l.better} for l in LAYERS],
    }


RUN_SECONDS = 10
