"""Summarise the result records that run.py leaves in perfbench/results.

    python3 perfbench/summarize.py

Per workload: each end-to-end metric's median over the untraced runs and
its spread, the distance between the first and third quartiles as a
share of the median; the traced runs' self time per layer as a share of
the operation time of a round; and the tracing overhead, the traced
minus the untraced operation time per round over the untraced one.
"""

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(results=RESULTS):
    runs = {}
    for path in sorted(Path(results).glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["args"]["workload"], rec["args"]["trace"]), []).append(rec)
    if not runs:
        print(f"no result records in {results}")
        return 1
    print("machine:", json.dumps(next(iter(runs.values()))[0]["header"]))
    for workload in sorted({w for w, _ in runs}):
        plain = runs.get((workload, 0), [])
        traced = runs.get((workload, 1), [])
        print(f"\n== {workload}: {len(plain)} untraced, {len(traced)} traced runs")
        if plain:
            r = plain[0]["result"]
            print(f"attempted {r['attempted']}, failed {r['failed']}, "
                  f"correct {all(p['result']['correct'] for p in plain)}")
            for name in plain[0]["result"]["metrics"]:
                vals = [p["result"]["metrics"][name]["value"] for p in plain]
                med, sp = spread(vals)
                unit = plain[0]["result"]["metrics"][name]["unit"]
                print(f"  {name:14s} median {med:.6g} {unit:5s} spread {sp:.4f}")
        if traced:
            per_round = statistics.median(t["op_time_s"] / t["rounds"] for t in traced)
            print(f"  traced operation time per round {per_round:.4g} s")
            for name in traced[0]["result"]["metrics"]:
                if not name.endswith(".self_s"):
                    continue
                med = statistics.median(t["result"]["metrics"][name]["value"] for t in traced)
                if med > 0:
                    print(f"  {name:40s} {med:10.4f} s  {100 * med / per_round:5.1f}%")
            if plain:
                base = statistics.median(p["op_time_s"] / p["rounds"] for p in plain)
                print(f"  tracing overhead {100 * (per_round - base) / base:+.2f}% "
                      f"({per_round:.4g} s vs {base:.4g} s per round)")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
