"""The benchmark's own tests: counts repeat, and BENCHMARK.json matches.

Run from the repository root:

    python3 -m pytest perfbench/test_counts.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# counts a change that keeps the traces must leave exactly equal
COUNTS = {
    "search": ("search.als.sweeps", "search.kernels.block_solve.calls",
               "search.kernels.residual.calls", "search.als.rationalize.calls"),
    "prove": ("tensor.expand.products", "tensor.proven_equations", "io.parse_tensor.bytes"),
    "evaluate": ("evaluate.leaf_products", "io.parse_matrix.bytes"),
}


def _short_traced_run(name, workdir):
    workdir.mkdir()
    run = bench.measure(name, seed=5, seconds=0, trace=True, workdir=workdir)
    failures = [f["error"] for _, _, f in run.results() if not f["ok"]]
    assert not failures
    return bench.per_layer(run)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_repeat_on_a_fixed_seed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "HIT_RESTARTS", 3)
    monkeypatch.setattr(workloads, "MISS_RESTARTS", 2)
    first = _short_traced_run(name, tmp_path / "first")
    second = _short_traced_run(name, tmp_path / "second")
    for key in COUNTS[name]:
        assert first[key] > 0, key
        assert first[key] == second[key], key


def test_residual_intermediate_is_r_by_the_dense_tensor():
    # <2,2,2;7>: the r x 4 x 4 x 4 float64 product the numpy residual builds
    _, _, intermediate = tracing.residual_counts((7, 4), (7, 4), (7, 4))
    assert intermediate == 7 * 4 * 4 * 4 * 8


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        bench.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
