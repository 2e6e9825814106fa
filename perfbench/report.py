"""Run every workload untraced and traced, print every metric with its unit.

    python3 perfbench/report.py --seed 1 --seconds 20 [--out perfbench/baseline.json]

Each of the six runs is a separate ``run.py`` process, run one after the
other.  The combined records (environment, counters, metrics) go to
``--out``.  The report ends with the baseline check: the traced
soundness-corpus run must attribute at least 90% of its item time to the two
K(eps) models (``models.kfield_share``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import WORKLOADS  # noqa: E402

KFIELD_SHARE_MIN = 0.9


def run(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    records = []
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build", prefix="report-") as tmp:
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run(workload, args.seed, args.seconds, trace, Path(tmp) / f"{workload}-{trace}.json")
                records.append(record)
                result = record["result"]
                print(f"== {workload} trace={trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} passes={record['passes']}")
                for name, metric in result["metrics"].items():
                    print(f"   {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    traced = next(r for r in records if r["workload"] == "soundness-corpus" and r["trace"] == 1)
    share = traced["result"]["metrics"]["models.kfield_share"]["value"]
    baseline_ok = share >= KFIELD_SHARE_MIN
    print(f"baseline check: K(eps) share of soundness-corpus item time = {share:.3f} "
          f"({'ok' if baseline_ok else 'FAILED'}: needs >= {KFIELD_SHARE_MIN})")
    all_correct = all(r["result"]["correct"] for r in records)
    if args.out is not None:
        summary = {"kfield_share": share, "kfield_share_ok": baseline_ok, "all_correct": all_correct}
        args.out.write_text(json.dumps({"summary": summary, "runs": records}, indent=1) + "\n", encoding="utf-8")
    return 0 if baseline_ok and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
