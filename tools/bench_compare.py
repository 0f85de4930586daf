#!/usr/bin/env python3
"""Compare paired benchmark records of a parent commit and a change.

    python3 tools/bench_compare.py PARENT.json... -- CHANGE.json...

Each file is a record written by ``perfbench/run.py --out``; the i-th
parent record and the i-th change record form pair i, so give both sides
in the order they were run.  For each workload in every record and each
end-to-end metric of BENCHMARK.json, one line gives each side's median
and quartiles over its records, the change's median over the parent's,
how many pairs the change won (ties count for neither) and whether the
change is within the metric's bound:

* ``yes``: the change's median is worse than the parent's by no more
  than the bound, or better;
* ``no``: it is worse by more than the bound;
* ``unresolved``: the parent's own spread (its interquartile range over
  its median) is wider than the bound, so a regression of the bound's
  size could not be told from noise, and the change's runs do not all
  read better than all the parent's.

Each workload's header line also counts the jobs that failed on each
side.  Quartiles are statistics.quantiles' inclusive ones, which stay
within the values on few records.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _quartiles(values):
    """(q1, median, q3) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _failed(record, workload):
    """(failed, attempted) jobs of one workload in one record."""
    run = record["runs"][workload]
    facts = [job[2] for passes in (run["passes"], run["traced_passes"])
             for jobs in passes for job in jobs]
    return sum(not f["ok"] for f in facts), len(facts)


def _compare(spec, parent, change):
    """One report line's fields for one metric: parent and change
    quartiles, the ratio of medians, pairs won and the bound verdict."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = c_med / p_med if p_med else float("inf")
    worse = ratio - 1 if lower else 1 - ratio
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not (
            max(change) < min(parent) if lower else min(change) > max(parent)):
        within = "unresolved"
    else:
        within = "yes" if worse <= bound else "no"
    return (p_med, p_q1, p_q3), (c_med, c_q1, c_q3), ratio, won, within


def report(parents, changes, metrics, out=sys.stdout):
    """Print the comparison of the parent records against the change records."""
    workloads = [w for w in parents[0]["runs"]
                 if all(w in r["runs"] for r in parents + changes)]
    for workload in workloads:
        p_fail = [sum(x) for x in zip(*(_failed(r, workload) for r in parents))]
        c_fail = [sum(x) for x in zip(*(_failed(r, workload) for r in changes))]
        print("workload %s: %d pairs; failed jobs: parent %d of %d, change %d of %d"
              % (workload, len(parents), *p_fail, *c_fail), file=out)
        print("  %-18s %-6s %-30s %-30s %-7s %-6s %-6s %s" % (
            "metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
            "ratio", "won", "bound", "within"), file=out)
        for spec in metrics:
            name = spec["name"]
            parent = [r["runs"][workload]["metrics"][name] for r in parents]
            change = [r["runs"][workload]["metrics"][name] for r in changes]
            p, c, ratio, won, within = _compare(spec, parent, change)
            print("  %-18s %-6s %-30s %-30s %-7.3f %-6s %-6s %s" % (
                name, spec["better"], "%.6g [%.6g, %.6g]" % p, "%.6g [%.6g, %.6g]" % c,
                ratio, "%d/%d" % (won, len(parent)), "%g%%" % (100 * spec["bound"]),
                within), file=out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    sides = argv[:cut], argv[cut + 1:]
    if not sides[0] or len(sides[0]) != len(sides[1]):
        print("error: give one or more parent records and as many change records",
              file=sys.stderr)
        return 2
    try:
        parents, changes = ([json.loads(Path(p).read_text()) for p in side] for side in sides)
        metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report(parents, changes, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
