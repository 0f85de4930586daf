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


def record(path, metrics, failed=0):
    """A perfbench/run.py --out record of one prove run with these
    end-to-end metrics and three jobs, `failed` of them not ok."""
    jobs = [["verify_large", 0.01, {"ok": k >= failed}] for k in range(3)]
    path.write_text(json.dumps({"runs": {"prove": {
        "metrics": metrics, "passes": [jobs], "traced_passes": []}}}))
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
    rows = {line.split()[0]: line.split() for line in lines[2:]}
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


@pytest.mark.parametrize("argv", [[], ["a.json"], ["a.json", "--"], ["a.json", "--", "b.json",
                                                                     "c.json"]])
def test_unpaired_arguments_are_refused(argv, capsys):
    assert load_tool().main(argv) == 2
    assert capsys.readouterr().err
