"""fmmkit benchmark: closed-loop CLI workloads, plus a separate traced run.

    python3 perfbench/run.py --workload {search,prove,evaluate,all} \\
        --seed N --seconds S --trace {0,1} [--out FILE]

One client drives ``fmmkit.cli.main`` in-process, in one thread: each CLI
call starts only after the previous one returns.  FMMKIT_* variables are
removed before fmmkit is imported, so the defaults are measured; what was
removed is recorded in the environment stamp.  Inputs are generated from
--seed into a scratch directory under the checkout, which is deleted at
exit.  Every job's output is checked (see workloads.py).

--trace 0 repeats passes of the workload until --seconds have passed and
reports the end-to-end metrics: set-up time, the workload's primary and
secondary job times, pass time, work rate and peak RSS.  Job times are
reported in seconds and, as the metrics, in probes (see END_TO_END).
--trace 1 alternates an untraced and a traced pass over the same inputs
and reports per-layer metrics per traced pass, plus the tracing overhead:
traced pass time minus untraced.

--workload all runs the three workloads in turn in one process (so its
peak RSS is the largest of the three) and prefixes each metric with the
workload's name.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Lines before it are the human report and the environment stamp.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

# Job times are reported in probes: each pass's seconds divided by the
# median time of probe() within that pass.  This box's speed drifts by up to
# a factor of two within a minute; in a 4-minute sample, 30-second medians
# of a verify job spread 17% in seconds and 6% in probes.  The raw seconds
# stay in the report.
END_TO_END = (
    ("setup_s", "s"),
    ("primary_probes", "probe"),
    ("secondary_probes", "probe"),
    ("pass_probes", "probe"),
    ("work_per_probe", "1/probe"),
    ("peak_rss_mb", "MB"),
)

SPAN_LAYERS = (
    "io.parse_tensor", "io.write_tensor", "io.parse_matrix", "io.write_matrix",
    "tensor.expand", "tensor.verify_exact", "tensor.verify_approximate",
    "tensor.type_polynomial",
    "algebra.kronecker", "algebra.direct_sum", "algebra.embed_and_add",
    "algebra.serendipity_find",
    "evaluate.multiply_recursive", "evaluate.epsilon_error_scan",
    "search.als.search", "search.als.rationalize",
)
KERNELS = ("search.kernels.block_solve", "search.kernels.residual")


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in SPAN_LAYERS:
        spec += [(name + ".calls", "count", "lower"), (name + ".busy_s", "s", "lower")]
    for name in KERNELS:
        spec += [(name + ".calls", "count", "lower"), (name + ".busy_s", "s", "lower"),
                 (name + ".computed_flops_per_call", "flop", "lower"),
                 (name + ".computed_bytes_per_call", "B", "lower")]
    spec.append(("search.kernels.residual.computed_intermediate_bytes", "B", "lower"))
    spec += [(name + ".bytes", "B", "lower") for name in SPAN_LAYERS if name.startswith("io.")]
    spec += [
        ("tensor.expand.products", "count", "lower"),
        ("tensor.proven_equations", "count", "higher"),
        ("search.als.self_s", "s", "lower"),
        ("search.als.rationalize.verified_ratio", "ratio", "higher"),
        ("search.als.sweeps", "count", "lower"),
        ("search.als.converged_ratio", "ratio", "higher"),
        ("search.als.sweeps_per_s", "1/s", "higher"),
        ("search.found_ratio", "ratio", "higher"),
        ("evaluate.leaf_products", "count", "lower"),
        ("cli.calls", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("trace.passes", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


# -- environment stamp -----------------------------------------------------------

def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fmmkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(removed):
    from fmmkit.search import kernels
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.BACKEND,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "fmmkit_env_removed": removed,
    }


# -- measurement -----------------------------------------------------------------

def call_cli(argv, tracer=None, job_id=None):
    """One closed-loop CLI call: (exit code, stdout, stderr, seconds)."""
    from fmmkit.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.job(job_id):
                    code = main(argv)
        except SystemExit as exc:
            code = exc.code
        seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


# fixed operands for probe(): a 7-term <2,2,2> normal-equation solve, the
# shape of the ALS block solve, in the benchmark's own code
_PROBE_A = np.linspace(-1.0, 1.0, 28).reshape(7, 4)
_PROBE_T = np.linspace(0.0, 1.0, 64).reshape(4, 16)


def probe():
    """Time a fixed mix of exact rational and small float linear algebra,
    owned by the benchmark, so that it tracks the machine, not the program."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    A = _PROBE_A
    for _ in range(60):
        G = (A @ A.T) * (A @ A.T)
        G.flat[::8] += 0.5
        KR = (A[:, :, None] * A[:, None, :]).reshape(7, -1)
        A = A * 0.5 + 0.5 * np.linalg.solve(G, KR @ _PROBE_T.T)
    return perf_counter() - t0


def run_pass(jobs, probes, tracer=None, first_job_id=0):
    """Run one pass; returns [(kind, seconds, facts)] in job order.  After
    each job, two probes per started second of it are timed into `probes`,
    so probes sample the run in proportion to job time."""
    results = []
    for offset, job in enumerate(jobs):
        code, out, err, seconds = call_cli(job.argv, tracer, first_job_id + offset)
        probes.extend(probe() for _ in range(2 * max(1, math.ceil(seconds))))
        try:
            facts = job.check(code, out, err)
        except (OSError, ValueError, IndexError) as exc:
            # a missing or malformed output file fails the job, not the run
            facts = {"ok": False, "error": "check raised %r" % exc}
        results.append((job.kind, seconds, facts))
    return results


class Run:
    """What one benchmark run measured."""

    def __init__(self, name, setup_s, passes, traced, tracer, probes):
        self.name = name
        self.setup_s = setup_s
        self.passes = passes      # untraced passes
        self.traced = traced      # traced passes (trace mode only)
        self.tracer = tracer
        self.probes = probes      # probe seconds, one list per untraced pass

    def results(self):
        return [r for p in self.passes + self.traced for r in p]


def measure(name, seed, seconds, trace, workdir):
    """Set up SETUP_REPEATS times, then run passes for `seconds` (at least one)."""
    from tracing import Tracer, patched
    from workloads import WORKLOADS

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        jobs = WORKLOADS[name].setup(workdir, seed)
        setup_s.append(perf_counter() - t0)
    tracer = Tracer() if trace else None
    passes, traced, probes = [], [], []
    start = perf_counter()
    index = 0
    while True:
        # each pass starts from a collected heap, so garbage left by set-up
        # or an earlier pass does not bill its collection to this pass
        gc.collect()
        probes.append([])
        passes.append(run_pass(jobs(0 if trace else index), probes[-1]))
        if trace:
            # the traced pass repeats the untraced pass's inputs, so their
            # time difference is the tracing overhead and counts repeat
            gc.collect()
            with patched(tracer):
                traced.append(run_pass(jobs(0), [], tracer, index * len(jobs(0))))
        index += 1
        if perf_counter() - start >= seconds:
            break
    return Run(name, setup_s, passes, traced, tracer, probes)


# -- metrics ---------------------------------------------------------------------

def _timings(run, scales):
    """Median over passes of each job timing, each pass's seconds divided by
    its scale; the work rate is total work over total scaled work time."""
    from workloads import WORKLOADS
    wl = WORKLOADS[run.name]

    def median_over_passes(value):
        return statistics.median(value(p) / scale for p, scale in zip(run.passes, scales))

    def mean_of(kind):
        return lambda p: statistics.mean(s for k, s, _ in p if k == kind)

    work = sum(f["work"] for p in run.passes for _, _, f in p if "work" in f)
    work_time = sum(sum(s for _, s, f in p if "work" in f) / scale
                    for p, scale in zip(run.passes, scales))
    return (median_over_passes(mean_of(wl.primary)),
            median_over_passes(mean_of(wl.secondary)),
            median_over_passes(lambda p: sum(s for _, s, _ in p)),
            work / work_time)


def seconds_metrics(run):
    """Job timings in seconds, named as in the workload's terms."""
    values = _timings(run, [1.0] * len(run.passes))
    names = ("primary_s", "secondary_s", "pass_s", "work_per_s")
    out = dict(zip(names, values))
    out["probe_s"] = statistics.median(t for p in run.probes for t in p)
    return out


def end_to_end(run):
    values = _timings(run, [statistics.median(p) for p in run.probes])
    names = ("primary_probes", "secondary_probes", "pass_probes", "work_per_probe")
    out = {"setup_s": statistics.median(run.setup_s)}
    out.update(zip(names, values))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run):
    from tracing import CLI_SPAN, kernel_counts
    t = run.tracer
    n = len(run.traced)
    calls, busy, self_s, counts = {}, {}, {}, {}
    for span in t.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        for key, value in (span.counts or {}).items():
            counts[(span.name, key)] = counts.get((span.name, key), 0) + value
    facts = [f for p in run.traced for _, _, f in p]

    def total(key):
        return sum(f.get(key, 0) for f in facts)

    m = {}
    for name in SPAN_LAYERS:
        m[name + ".calls"] = calls.get(name, 0) / n
        m[name + ".busy_s"] = busy.get(name, 0.0) / n
    computed = kernel_counts(t)
    for name in KERNELS:
        c = computed.get(name, {"calls": 0, "flops": 0, "bytes": 0, "intermediate_bytes": 0})
        m[name + ".calls"] = t.kernel_calls[name] / n
        m[name + ".busy_s"] = t.kernel_busy[name] / n
        m[name + ".computed_flops_per_call"] = _ratio(c["flops"], c["calls"])
        m[name + ".computed_bytes_per_call"] = _ratio(c["bytes"], c["calls"])
        if name.endswith("residual"):
            m[name + ".computed_intermediate_bytes"] = c["intermediate_bytes"]
    for name in SPAN_LAYERS:
        if name.startswith("io."):
            m[name + ".bytes"] = counts.get((name, "bytes"), 0) / n
    search_busy = busy.get("search.als.search", 0.0)
    feasible = [f for p in run.traced for k, _, f in p if k == "hit"]
    plain = statistics.median(sum(s for _, s, _ in p) for p in run.passes)
    traced = statistics.median(sum(s for _, s, _ in p) for p in run.traced)
    m.update({
        "tensor.expand.products": counts.get(("tensor.expand", "products"), 0) / n,
        "tensor.proven_equations": total("equations") / n,
        "search.als.self_s": self_s.get("search.als.search", 0.0) / n,
        "search.als.rationalize.verified_ratio": _ratio(
            counts.get(("search.als.rationalize", "verified"), 0),
            calls.get("search.als.rationalize", 0)),
        "search.als.sweeps": total("sweeps") / n,
        "search.als.converged_ratio": _ratio(total("converged"), total("restarts")),
        "search.als.sweeps_per_s": _ratio(total("sweeps"), search_busy),
        "search.found_ratio": _ratio(sum(f.get("found", False) for f in feasible), len(feasible)),
        "evaluate.leaf_products": total("leaf_products") / n,
        "cli.calls": calls.get(CLI_SPAN, 0) / n,
        "cli.self_s": self_s.get(CLI_SPAN, 0.0) / n,
        "trace.passes": n,
        "trace.overhead_s": traced - plain,
        "trace.overhead_ratio": (traced - plain) / plain,
    })
    return m


# -- report ----------------------------------------------------------------------

def _tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    for q in (0.999, 0.99, 0.9):
        if len(values) * (1 - q) >= 10:
            return q, statistics.quantiles(values, n=1000)[round(q * 1000) - 1]
    return None


def _timing_line(label, values):
    tail = _tail(values)
    extra = ("p%g %.6f s" % (tail[0] * 100, tail[1]) if tail
             else "max %.6f s (tail percentile needs >= 100)" % max(values))
    return "%-30s p50 %.6f s  %s  n=%d" % (label, statistics.median(values), extra, len(values))


def report(run, metrics, trace):
    from tracing import kernel_counts
    from workloads import WORKLOADS, layer_note
    wl = WORKLOADS[run.name]
    results = run.results()
    failed = [f for _, _, f in results if not f["ok"]]
    print("workload %s: %d passes, %d CLI calls" % (
        run.name, len(run.passes) + len(run.traced), len(results)))
    kinds = []
    for kind, _, _ in results:
        if kind not in kinds:
            kinds.append(kind)
    for kind in kinds:
        print(_timing_line("job %s" % kind, [s for p in run.passes for k, s, _ in p if k == kind]))
    print(_timing_line("setup_s", run.setup_s))
    if not trace:
        for name, value in seconds_metrics(run).items():
            unit = "%s/s" % wl.work_unit if name == "work_per_s" else "s"
            print("%-30s %.6f %s" % (wl.aliases.get(name, name), value, unit))
        restarts = [(s, f["restarts"]) for p in run.passes for _, s, f in p if "restarts" in f]
        if restarts:
            print("%-30s %.6f restarts/s" % ("search.restarts_per_s",
                                             sum(r for _, r in restarts) / sum(s for s, _ in restarts)))
        for name, unit in END_TO_END:
            print("%-30s %.6f %s" % (name, metrics[name], unit))
    else:
        units = {name: unit for name, unit, _ in per_layer_spec()}
        for name, value in metrics.items():
            print("%-52s %.6f %s  %s" % (name, value, units[name], layer_note(name)))
        for name, entry in kernel_counts(run.tracer).items():
            for shapes, c in entry["per_shape"].items():
                print("%s computed per call at shapes %s: %d flop, %d B (%d calls)" % (
                    name, shapes, c["flops_per_call"], c["bytes_per_call"], c["calls"]))
    hits = [f for k, _, f in results if k == "hit"]
    if hits:
        found = sum(f.get("found", False) for f in hits)
        print("%-30s %.6f (%d of %d feasible jobs verified)" % (
            "search.found_ratio", found / len(hits), found, len(hits)))
    print("%-30s %.6f (%d of %d)" % ("failed_ratio", len(failed) / len(results),
                                     len(failed), len(results)))
    for f in failed[:10]:
        print("FAILED: %s" % f["error"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "prove", "evaluate", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (and spans) as JSON here")
    args = ap.parse_args(argv)

    if not (SRC / "fmmkit" / "__init__.py").is_file():
        print("error: fmmkit source not found under %s" % SRC, file=sys.stderr)
        return 2
    removed = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("FMMKIT_")}
    sys.path.insert(0, str(SRC))
    env = environment(removed)
    print("env " + json.dumps(env, sort_keys=True))

    names = ("search", "prove", "evaluate") if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    record = {"env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "runs": {}}
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace), workdir)
            values = per_layer(run) if args.trace else end_to_end(run)
            report(run, values, bool(args.trace))
            results = run.results()
            attempted += len(results)
            failed += sum(not f["ok"] for _, _, f in results)
            units = dict(END_TO_END) if not args.trace else {
                n: u for n, u, _ in per_layer_spec()}
            prefix = name + "." if len(names) > 1 else ""
            for key, value in values.items():
                metrics[prefix + key] = {"value": value, "unit": units[key]}
            record["runs"][name] = {
                "metrics": values,
                "setup_s": run.setup_s,
                "probes": run.probes,
                "passes": [[(k, s, f) for k, s, f in p] for p in run.passes],
                "traced_passes": [[(k, s, f) for k, s, f in p] for p in run.traced],
                "spans": [s.as_dict() for s in run.tracer.spans] if run.tracer else [],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
