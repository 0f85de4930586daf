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

Under the metric lines, one line per job position in the workload's
pass gives its kind, each side's median time in probes and the change's
over the parent's.  A job's time in probes is, as in perfbench/run.py,
its seconds over the median probe time of its pass; a record's value is
the median over its passes and a side's the median over its records.
These lines show which job moved a metric that sums or averages over
several.

Records made with ``--trace 1`` carry per-layer metrics in place of the
end-to-end ones, which are then left out, and the spans of their traced
passes.  For such records one line per span name gives each side's
median busy seconds per traced pass (the summed durations of the
record's spans of that name over its traced passes) and the change's
over the parent's, so a layer's time (io.parse_tensor,
tensor.verify_exact, ...) shows next to the jobs that spend it.
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


def _job_probes(record, workload):
    """Each job position's kind and its median time in probes over the
    record's passes of one workload."""
    run = record["runs"][workload]
    times = [[s / statistics.median(probes) for _, s, _ in jobs]
             for jobs, probes in zip(run["passes"], run["probes"])]
    return [k for k, _, _ in run["passes"][0]], list(map(statistics.median, zip(*times)))


def _span_busy(record, workload):
    """Span name -> busy seconds per traced pass in one record of one
    workload; empty for a record without spans."""
    run = record["runs"][workload]
    busy = {}
    for span in run.get("spans", ()):
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]
    return {name: s / len(run["traced_passes"]) for name, s in busy.items()}


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
            if not all(name in r["runs"][workload]["metrics"] for r in parents + changes):
                continue
            parent = [r["runs"][workload]["metrics"][name] for r in parents]
            change = [r["runs"][workload]["metrics"][name] for r in changes]
            p, c, ratio, won, within = _compare(spec, parent, change)
            print("  %-18s %-6s %-30s %-30s %-7.3f %-6s %-6s %s" % (
                name, spec["better"], "%.6g [%.6g, %.6g]" % p, "%.6g [%.6g, %.6g]" % c,
                ratio, "%d/%d" % (won, len(parent)), "%g%%" % (100 * spec["bound"]),
                within), file=out)
        sides = [[_job_probes(r, workload) for r in records] for records in (parents, changes)]
        for pos, kind in enumerate(sides[0][0][0]):
            p, c = (statistics.median(t[pos] for _, t in side) for side in sides)
            print("  job %-3d %-16s parent %-10.4g change %-10.4g ratio %.3f"
                  % (pos + 1, kind, p, c, c / p), file=out)
        sides = [[_span_busy(r, workload) for r in records] for records in (parents, changes)]
        for name in sorted(set().union(*sides[0]) & set().union(*sides[1])):
            p, c = (statistics.median(busy.get(name, 0.0) for busy in side) for side in sides)
            print("  span %-30s parent %-10.4g change %-10.4g ratio %.3f"
                  % (name, p, c, c / p if p else float("inf")), file=out)


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
