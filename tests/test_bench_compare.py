"""tools/bench_compare.py on small synthetic benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


KINDS = ("verify_small", "verify_large", "compose")


def record(path, metrics, failed=0, passes=((0.01, 0.01, 0.01),), probes=((0.001,),),
           spans=None):
    """A perfbench/run.py --out record of one prove run with these
    metrics and three jobs of the KINDS per pass, `failed` of each pass's
    jobs not ok: passes gives each pass's job seconds and probes its probe
    seconds.  With spans, a --trace 1 record: each pass is also run
    traced, and spans gives the (name, seconds) of its spans."""
    runs = [[[kind, s, {"ok": k >= failed}] for k, (kind, s) in enumerate(zip(KINDS, seconds))]
            for seconds in passes]
    spans = [{"name": name, "start": 1.0, "end": 1.0 + s} for name, s in spans or ()]
    path.write_text(json.dumps({"runs": {"prove": {
        "metrics": metrics, "passes": runs, "probes": probes,
        "traced_passes": runs if spans else [], "spans": spans}}}))
    return str(path)


def metrics(setup, primary, secondary, pass_, work, rss):
    return {"setup_s": setup, "primary_probes": primary, "secondary_probes": secondary,
            "pass_probes": pass_, "work_per_probe": work, "peak_rss_mb": rss}


def test_paired_records_are_compared_per_metric(tmp_path, capsys):
    tool = load_tool()
    parents = [record(tmp_path / "p0.json", metrics(0.05, 10.0, 3.0, 40.0, 100.0, 40.0)),
               record(tmp_path / "p1.json", metrics(0.15, 10.2, 3.0, 40.0, 100.0, 40.0))]
    changes = [record(tmp_path / "c0.json", metrics(0.2, 7.0, 4.0, 40.0, 80.0, 45.0), 1),
               record(tmp_path / "c1.json", metrics(0.2, 7.1, 4.0, 40.0, 80.0, 45.0))]
    assert tool.main(parents + ["--"] + changes) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload prove: 2 pairs; failed jobs: parent 0 of 6, change 1 of 6"
    rows = {line.split()[0]: line.split() for line in lines[2:] if not line.startswith("  job")}
    # (ratio of medians, pairs won, within the bound)
    got = {name: (row[-4], row[-3], row[-1]) for name, row in rows.items()}
    assert got == {
        # the parent's own spread, 0.05 around 0.1, is wider than 25%
        "setup_s": ("2.000", "0/2", "unresolved"),
        "primary_probes": ("0.698", "2/2", "yes"),
        "secondary_probes": ("1.333", "0/2", "no"),
        # ties count for neither side
        "pass_probes": ("1.000", "0/2", "yes"),
        # higher is better: 20% lower is within its 25% bound
        "work_per_probe": ("0.800", "0/2", "yes"),
        "peak_rss_mb": ("1.125", "0/2", "no"),
    }
    # the median and the inclusive quartiles of 10.0 and 10.2
    assert rows["primary_probes"][2:5] == ["10.1", "[10.05,", "10.15]"]


def test_a_change_better_in_every_run_resolves_a_wide_spread(tmp_path, capsys):
    tool = load_tool()
    parents = [record(tmp_path / ("p%d.json" % k), metrics(s, 10.0, 3.0, 40.0, 100.0, 40.0))
               for k, s in enumerate((0.05, 0.15))]
    changes = [record(tmp_path / ("c%d.json" % k), metrics(0.04, 10.0, 3.0, 40.0, 100.0, 40.0))
               for k in range(2)]
    assert tool.main(parents + ["--"] + changes) == 0
    setup = next(line for line in capsys.readouterr().out.splitlines() if "setup_s" in line)
    assert setup.split()[-3:] == ["2/2", "25%", "yes"]


def test_each_job_position_is_compared_in_probes(tmp_path, capsys):
    tool = load_tool()
    m = metrics(0.1, 10.0, 3.0, 40.0, 100.0, 40.0)
    # a job's probes are its seconds over its pass's median probe, so the
    # first record's second pass, on probes twice as slow, reads as its first
    parents = [record(tmp_path / "p0.json", m, passes=[(0.01, 0.02, 0.04), (0.02, 0.04, 0.08)],
                      probes=[[0.001], [0.002]]),
               record(tmp_path / "p1.json", m, passes=[(0.01, 0.02, 0.05)])]
    changes = [record(tmp_path / "c0.json", m, passes=[(0.01, 0.02, 0.02)],
                      probes=[[0.001, 0.003, 0.002]]),
               record(tmp_path / "c1.json", m, passes=[(0.01, 0.02, 0.03)])]
    assert tool.main(parents + ["--"] + changes) == 0
    jobs = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("  job")]
    # position, kind, parent median, change median, ratio
    assert [row[1:3] + row[4:9:2] for row in jobs] == [
        ["1", "verify_small", "10", "7.5", "0.750"],
        ["2", "verify_large", "20", "15", "0.750"],
        ["3", "compose", "45", "20", "0.444"],
    ]


def test_traced_records_compare_each_span_name(tmp_path, capsys):
    tool = load_tool()
    layers = {"io.parse_tensor.busy_s": 0.01}  # a traced record's per-layer metrics
    two = [(0.01, 0.02, 0.03)] * 2
    # busy seconds per traced pass: each record traces its two passes
    parents = [record(tmp_path / "p0.json", layers, passes=two, spans=[
                   ("cli.main", 0.02), ("io.parse_tensor", 0.004), ("io.parse_tensor", 0.004),
                   ("tensor.verify_exact", 0.006)]),
               record(tmp_path / "p1.json", layers, passes=two, spans=[
                   ("cli.main", 0.04), ("io.parse_tensor", 0.012), ("tensor.verify_exact", 0.01)])]
    changes = [record(tmp_path / "c0.json", layers, passes=two, spans=[
                   ("cli.main", 0.02), ("io.parse_tensor", 0.003), ("tensor.verify_exact", 0.002)]),
               record(tmp_path / "c1.json", layers, passes=two, spans=[
                   ("cli.main", 0.02), ("io.parse_tensor", 0.005), ("tensor.verify_exact", 0.004)])]
    assert tool.main(parents + ["--"] + changes) == 0
    lines = capsys.readouterr().out.splitlines()
    # no end-to-end metric in a traced record, so only the header, jobs and spans
    assert [line.split()[0] for line in lines[2:]] == ["job"] * 3 + ["span"] * 3
    spans = [line.split() for line in lines if line.startswith("  span")]
    # name, parent median, change median, ratio
    assert [[row[1], row[3], row[5], row[7]] for row in spans] == [
        ["cli.main", "0.015", "0.01", "0.667"],
        ["io.parse_tensor", "0.005", "0.002", "0.400"],
        ["tensor.verify_exact", "0.004", "0.0015", "0.375"],
    ]


@pytest.mark.parametrize("argv", [[], ["a.json"], ["a.json", "--"], ["a.json", "--", "b.json",
                                                                     "c.json"]])
def test_unpaired_arguments_are_refused(argv, capsys):
    assert load_tool().main(argv) == 2
    assert capsys.readouterr().err
