#!/usr/bin/env python3
"""Compare two sets of bench_e2e result files, workload by workload.

    python3 bench/e2e/compare.py --base parent/*.json --new change/*.json
    python3 bench/e2e/compare.py --base set1/*.json --new set2/*.json \
        --json-out bench/e2e/results/baseline.json

Each side is a list of result files written by bench_e2e (untraced runs; the
i-th files of the two sides form a pair, so give them in the order they ran).
For every workload x end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the fraction of pairs the new side wins, and a verdict:

  improved    the new side wins >= 9/10 of the pairs and the medians differ,
              in its favour, by more than the base side's quartile distance
  unresolved  a side's spread (quartile distance / median) exceeds the
              metric's bound, and not every new run beats every base run
  no worse    the new median is worse than the base median by at most the bound
  regressed   otherwise

Exit status: 0 when nothing regressed, 1 when something did, 2 on bad input.
Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_side(paths):
    """workload -> list of result documents, in the order given."""
    side = {}
    for p in paths:
        doc = json.loads(Path(p).read_text())
        if doc.get("schema") != "lktm.e2e.result.v1":
            raise ValueError(f"{p}: not a bench_e2e result file")
        if doc.get("trace") or doc.get("smoke"):
            continue
        side.setdefault(doc["workload"], []).append(doc)
    return side


def summarize(values):
    q1, q3 = quartiles(values)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def fmt(s):
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def verdict(metric, base, new):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b, n = summarize(base), summarize(new)
    pairs = list(zip(base, new))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    gap = (n["median"] - b["median"]) if lower else (b["median"] - n["median"])
    worse = gap / b["median"] if b["median"] else 0.0
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0 for s in (b, n))
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if pairs and wins >= 0.9 * len(pairs) and -gap > b["q3"] - b["q1"]:
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse <= bound:
        v = "no worse"
    else:
        v = "regressed"
    return {"base": b, "new": n, "wins": wins, "pairs": len(pairs), "worse": worse,
            "spread": spread, "bound": bound, "verdict": v}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    ap.add_argument("--new", nargs="+", required=True, help="result files of the change")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK), help="BENCHMARK.json")
    ap.add_argument("--json-out", help="also write the comparison as JSON")
    args = ap.parse_args()
    try:
        bench = json.loads(Path(args.benchmark).read_text())
        base, new = load_side(args.base), load_side(args.new)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2

    rows = []
    print(f"{'workload':14} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'worse':>7} {'wins':>6}  verdict")
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in base or w not in new:
            print(f"{w:14} (no results on {'base' if w not in base else 'new'} side)")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            r = verdict(metric, [d["metrics"][name]["value"] for d in base[w]],
                        [d["metrics"][name]["value"] for d in new[w]])
            r.update(workload=w, metric=name, unit=metric["unit"])
            rows.append(r)
            print(f"{w:14} {name:12} {fmt(r['base']):>34} {fmt(r['new']):>34} "
                  f"{r['worse'] * 100:+6.2f}% {r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")

    if args.json_out:
        Path(args.json_out).write_text(json.dumps({"comparisons": rows}, indent=1) + "\n")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
