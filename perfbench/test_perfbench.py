"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1",
         "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_bench(tmp_path, with_src=True):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    res = _result(_bench(ROOT, "--workload", workload, "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= len(wl.level_ids(workload, "tiny"))
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["cli.self_s"] >= 0.0
        assert m["forms.nnz"] > 0 and 0.0 < m["forms.zero_frac"] < 1.0
        assert m["solve.residual_max"] < wl.RESIDUAL_GATE
        assert m["forms.rss_mb"] > 0 and m["solve.rss_mb"] > 0
        if workload == "flux-tri-k1":
            # its mesh and topology are built during set-up, outside the sweep
            assert m["mesh.s"] == 0.0 and m["topology.s"] == 0.0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_reference_counts_failed_levels(tmp_path):
    root = _copy_bench(tmp_path)
    ref_path = root / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["h-tri-k1"]["tiny"][1]["err_energy"] *= 1.0001
    ref_path.write_text(json.dumps(ref))
    res = _result(_bench(root, "--workload", "h-tri-k1"))
    assert res["correct"] is False
    assert res["failed"] >= 1 and res["failed"] < res["attempted"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    proc = _bench(_copy_bench(tmp_path, with_src=False), "--workload", "p-tri-n2")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_level_check_uses_the_printed_digits():
    row = {"dofs": 10, "err_l2": 1.2345678e-3, "err_energy": 9.8765432e-1}
    assert wl.level_mismatch(row, 10, 1.234568e-3, 9.876543e-1) is None
    assert wl.level_mismatch(row, 10, 1.234570e-3, 9.876543e-1) is not None
    assert wl.level_mismatch(row, 11, 1.234568e-3, 9.876543e-1) is not None
    # a p-sweep prints p^(k+1) * err: the tolerance follows the printed number
    scales = wl.p_sweep_scales(3)
    printed = float(f"{row['err_l2'] * scales[0]:.6e}")
    printed_en = float(f"{row['err_energy'] * scales[1]:.6e}")
    assert wl.level_mismatch(row, 10, printed / scales[0], printed_en / scales[1],
                             scales=scales) is None
    # in the roundoff regime only the floor counts
    assert wl.level_mismatch(row, 10, 3e-12, 2e-11, roundoff=True) is None
    assert wl.level_mismatch(row, 10, 3e-12, 2e-6, roundoff=True) is not None
