"""Summarise benchmark reports: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [--out FILE]

Reads every .perfbench_out/<workload>-seed<n>-trace0.json report, and for
each workload and end-to-end metric of BENCHMARK.json gives the median and
the quartiles over the runs (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median.  The first traced report of each workload is kept
whole as its per-layer table.  Prints a table; with --out also writes JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

OUT_ROOT = Path(".perfbench_out")


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values), "values": values}


def summarize(spec) -> dict:
    names = [m["name"] for m in spec["end_to_end"]]
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        runs = sorted(OUT_ROOT.glob(f"{w}-seed*-trace0.json"))
        reports = [json.loads(p.read_text(encoding="utf-8")) for p in runs]
        entry = {"seeds": [r["seed"] for r in reports],
                 "failed": sum(r["result"]["failed"] for r in reports),
                 "attempted": sum(r["result"]["attempted"] for r in reports),
                 "end_to_end": {}, "fingerprints": {}}
        for n in names:
            values = [r["metrics"][n]["value"] for r in reports
                      if n in r["metrics"]]
            if len(values) >= 2:
                entry["end_to_end"][n] = spread(values)
        for r in reports:
            entry["fingerprints"][str(r["seed"])] = r["fingerprint"]
        traced = sorted(OUT_ROOT.glob(f"{w}-seed*-trace1.json"))
        if traced:
            t = json.loads(traced[0].read_text(encoding="utf-8"))
            entry["traced"] = {k: t[k] for k in (
                "seed", "metrics", "commands", "calls_by_command", "kernels")}
            m = t["metrics"]
            # self times of all wrapped functions plus the remainder
            entry["traced"]["accounted_s"] = m["trace.remainder_s"]["value"] + sum(
                v["value"] for n, v in m.items()
                if n.count(".") == 2 and n.endswith(".self_s")
                and not n.startswith("trace."))
        out["workloads"][w] = entry
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out")
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    summary = summarize(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, entry in summary["workloads"].items():
        print(f"{w}: {len(entry['seeds'])} runs, "
              f"{entry['failed']} failed of {entry['attempted']}")
        for n, s in entry["end_to_end"].items():
            print(f"  {n:22s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f} (bound {bounds[n]})")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
