"""Self-test of the benchmark itself (not of the verifier).

    python3 perfbench/selftest.py

Checks, in separate ``run.py`` processes of one pass each:

* ``BENCHMARK.json`` is exactly what ``metrics.py`` describes and keeps to
  the format rules (names, units, bounds, lengths);
* an untraced run prints exactly the end-to-end metrics and a traced run
  exactly the per-layer metrics, all items verified;
* the deterministic counters repeat exactly across two runs and two seeds of
  the fixed workloads (soundness-corpus, chain-scale), and across two runs
  of one seed of the seeded radical-build batch;
* without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import CHAIN, END_TO_END, LAYERS, RADICAL, SOUND, benchmark_json  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json() -> list[str]:
    problems = []
    written = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if written != benchmark_json():
        problems.append("BENCHMARK.json differs from metrics.benchmark_json()")
    names = [w["name"] for w in written["workloads"]]
    names += [m["name"] for m in written["end_to_end"] + written["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    units = [m["unit"] for m in written["end_to_end"] + written["per_layer"]]
    problems += [f"bad unit {u!r}" for u in units if not UNIT.match(u)]
    problems += [f"why too long: {w['name']}" for w in written["workloads"] if len(w["why"]) > 200 or "\n" in w["why"]]
    problems += [f"bound out of range: {m['name']}" for m in written["end_to_end"] if not 0 < m["bound"] <= 0.25]
    setup = [m for m in written["end_to_end"] if m["name"] == "setup_s"]
    if setup != [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in written["end_to_end"])}]:
        problems.append("setup_s must be in seconds, lower is better, with the largest bound")
    if not 2 <= len(written["workloads"]) <= 8 or not 1 <= len(written["per_layer"]) <= 128:
        problems.append("workload or per-layer count out of range")
    if len(json.dumps(written)) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def run_once(workload: str, seed: int, trace: int, out: Path, cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    record = json.loads(out.read_text(encoding="utf-8")) if proc.returncode == 0 else None
    return proc.returncode, proc.stdout, record


def main() -> int:
    problems = check_benchmark_json()
    e2e = {m.name for m in END_TO_END}
    layers = {m.name for m in LAYERS}
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build", prefix="selftest-") as tmp:
        tmp = Path(tmp)
        plan = [(SOUND, 1, 0), (SOUND, 1, 1), (SOUND, 2, 0), (CHAIN, 1, 0), (CHAIN, 1, 1), (CHAIN, 2, 0),
                (RADICAL, 3, 0), (RADICAL, 3, 1)]
        counters: dict[str, list] = {}
        for workload, seed, trace in plan:
            code, _, record = run_once(workload, seed, trace, tmp / f"{workload}-{seed}-{trace}.json")
            label = f"{workload} seed={seed} trace={trace}"
            if record is None:
                problems.append(f"{label}: exited {code}")
                continue
            result = record["result"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not all verdicts verified: {record['failures'][:3]}")
            if set(result["metrics"]) != (layers if trace else e2e):
                problems.append(f"{label}: printed metric names differ from BENCHMARK.json")
            counters.setdefault(workload, []).append(record["counters_per_pass"])
            print(f"{label}: {record['counters_per_pass']}")
        for workload, seen in counters.items():
            if any(c != seen[0] for c in seen):
                problems.append(f"{workload}: counters differ between runs: {seen}")

        # a directory with only BENCHMARK.json and the benchmark must refuse
        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, stdout, _ = run_once(CHAIN, 1, 0, tmp / "bare.json", cwd=bare)
        if code == 0 or '"metrics"' in stdout:
            problems.append("the benchmark ran without the program's sources")

    for problem in problems:
        print(f"selftest: FAILED {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
