"""Tests of the benchmark itself: its independent checks and a smoke run of
every workload, traced and untraced.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _order(n, pairs):
    return {"kind": "quasi", "n": n, "pairs": [list(p) for p in pairs], "closure": True}


def _crown(k):
    return _order(2 * k, [(i, k + j) for i in range(k) for j in range(k) if i != j])


def _digraph(n, edges):
    return {"kind": "digraph", "n": n, "edges": [list(e) for e in edges]}


def test_dim_two_test_separates_standard_examples():
    for k, want in ((2, (2, True)), (3, (3, False)), (4, (3, False))):
        n, rows = checks.order_rows(_crown(k))
        assert checks.dimension_bounds(n, rows) == want
    n, rows = checks.order_rows(_order(3, [(0, 1), (1, 2)]))
    assert checks.dimension_bounds(n, rows) == (1, True)
    n, rows = checks.order_rows(_order(2, [(0, 1), (1, 0)]))
    assert checks.dimension_bounds(n, rows) == (0, True)


def test_family_check_rejects_bad_families():
    n, rows = checks.order_rows(_order(2, []))
    checks.check_family(n, rows, [[[0, 1]], [[1, 0]]])
    with pytest.raises(checks.Refuted):
        checks.check_family(n, rows, [[[0, 1]]])
    n3, rows3 = checks.order_rows(_order(3, [(0, 1)]))
    with pytest.raises(checks.Refuted):
        checks.check_family(n3, rows3, [[[1, 0]], [[0, 1]]])


def test_padded_family_cannot_inflate_a_dimension():
    antichain = _order(3, [])
    family = [[[0, 1], [0, 2], [1, 2]], [[2, 1], [2, 0], [1, 0]], [[0, 1], [0, 2], [1, 2]]]
    with pytest.raises(checks.Refuted):
        checks.confirm_dimension(antichain, 3, family)


def test_brute_refutation_and_kahn():
    n, cycle = checks.digraph_rows(_digraph(3, [(0, 1), (1, 2), (2, 0)]))
    assert not checks.acyclic(cycle, range(3))
    assert checks.no_cover_with(n, cycle, 1)
    assert not checks.no_cover_with(n, cycle, 2)
    n, k4 = checks.digraph_rows(_digraph(4, [(i, j) for i in range(4) for j in range(4) if i != j]))
    assert checks.no_cover_with(n, k4, 3)
    assert checks.confirm_dichromatic(n, k4, 4, [[0], [1], [2], [3]])
    with pytest.raises(checks.Refuted):
        checks.check_cover(n, k4, [[0, 1], [2], [3]])


def test_pair_digraph_matches_definition():
    n, rows = checks.order_rows(_order(2, []))
    pairs, ap = checks.pair_digraph(n, rows)
    assert pairs == [(0, 1), (1, 0)]
    assert ap == [0b10, 0b01]


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["errors"]
    assert result["attempted"] >= 1
    assert set(info["machine"]) == {"nproc", "cpu_model", "python", "orderdim"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if workload == "dim-search":
        assert info["failed_ops"] == ["wall-24-0.2-0"]
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dim-search", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
