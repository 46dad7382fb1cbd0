"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workloads ambiguity,length --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. ``--out`` writes the same summary, with
every value, as JSON; ``bench/baseline.json`` was written this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=CONFIG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            result = one_run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs were not correct", file=sys.stderr)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(args.seeds)} runs, {attempted} requests, {failed} failed")
        summary[workload] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, values in per_metric.items():
            s = summarise(values)
            s["unit"] = units[name]
            summary[workload]["metrics"][name] = s
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  OVER BOUND"
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  over a third of the bound"
            shown = f" bound {bound}" if bound is not None else ""
            print(
                f"  {name:36s} median {s['median']:.6g} {units[name]}  "
                f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}  spread {s['spread']:.4f}{shown}{flag}"
            )
    if args.out:
        doc = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
