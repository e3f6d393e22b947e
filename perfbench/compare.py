"""Compare two sets of run records: the parent commit and the change.

Each set is a directory holding the records ``run.py`` writes (one JSON
file per run).  For every workload and end-to-end metric the report
gives each side's median and quartiles over its untraced runs, and
flags

* a regression: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json, and
* a changed deterministic metric: on a seed both sides ran, the value
  differs at all.

Returns exit code 1 when anything is flagged.
"""

import json
import statistics
from pathlib import Path

#: Metrics that repeat exactly for one seed and one program.
DETERMINISTIC = ("speedup_pct", "hot_text_bytes")


def load(directory):
    """{workload: [record]} for the untraced runs under ``directory``."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_dir, change_dir, bench):
    parent, change = load(parent_dir), load(change_dir)
    flagged = 0
    print(f"{'workload':<14} {'metric':<15} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:<14} only in "
                  f"{'parent' if workload in parent else 'change'}")
            flagged += 1
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            before = quartiles([r["values"][name] for r in parent[workload]])
            after = quartiles([r["values"][name] for r in change[workload]])
            worse = after[1] - before[1]
            if metric["better"] == "higher":
                worse = -worse
            verdict = "ok"
            if worse > metric["bound"] * abs(before[1]):
                verdict = f"REGRESSION (bound {metric['bound']:.0%})"
            if name in DETERMINISTIC:
                seeds = ({r["seed"]: r["values"][name]
                          for r in parent[workload]},
                         {r["seed"]: r["values"][name]
                          for r in change[workload]})
                changed = sorted(s for s in set(seeds[0]) & set(seeds[1])
                                 if seeds[0][s] != seeds[1][s])
                if changed:
                    verdict = f"CHANGED on seeds {changed}"
            flagged += verdict != "ok"
            print(f"{workload:<14} {name:<15} {_fmt(before):>32} "
                  f"{_fmt(after):>32}  {verdict}")
    return 1 if flagged else 0


def _fmt(q):
    return "/".join(f"{v:.4g}" for v in q)
