"""Median and quartiles of every metric over the result files of many runs.

    python3 benchmarks/aggregate.py > summary.json

Reads ``.bench_work/results/*-trace<0|1>.json`` and groups them by workload
and trace flag.  ``baseline.json`` was written this way, from ten seeds
per workload untraced and one traced run per workload.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_work" / "results"


def summary(runs):
    env = {k: v for k, v in runs[0]["env"].items() if k not in ("seed", "loadavg_start")}
    env["medn_file"] = str(Path(env["medn_file"]).relative_to(ROOT))
    out = {"runs": len(runs), "seeds": sorted(r["env"]["seed"] for r in runs),
           "failed": sum(len(r["failures"]) for r in runs), "env": env, "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        entry = {"unit": first["unit"], "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / entry["median"] if entry["median"] else None)
        out["metrics"][name] = entry
    return out


def main():
    groups = {}
    for path in sorted(RESULTS.glob("*-trace[01].json")):
        run = json.loads(path.read_text())
        key = f"{run['workload']}-{'traced' if run['trace'] else 'untraced'}"
        groups.setdefault(key, []).append(run)
    json.dump({key: summary(runs) for key, runs in sorted(groups.items())}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
