"""scripts/bench_record.py on two fake directories of benchmark records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

HOST = {"nproc": 2, "usable_cpus": 2, "python": "3.11.7"}


def _write(directory: Path, workload: str, seed: int, wall: float, setup: float,
           failed: int = 0, correct: bool = True) -> None:
    directory.mkdir(exist_ok=True)
    record = {
        "correct": correct,
        "attempted": 11,
        "failed": failed,
        "workload": workload,
        "seed": seed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"}},
        "environment": HOST,
    }
    (directory / f"{workload}_seed{seed}_trace0.json").write_text(json.dumps(record))


def test_folds_paired_records_per_workload(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH_gate.json"
    walls = {1: (0.70, 0.60), 2: (0.80, 0.65), 3: (0.75, 0.75), 4: (0.60, 0.70), 5: (0.90, 0.62)}
    for seed, (p, c) in walls.items():
        _write(parent, "gate", seed, p, 0.2)
        _write(change, "gate", seed, c, 0.2 - 0.001 * seed, failed=seed % 2)
    # a traced record is not an end-to-end one and is ignored
    (change / "gate_seed9_trace1.json").write_text("{}")
    argv = [str(parent), str(change), "--parent-rev", "aaa", "--change-rev", "bbb", "--out", str(out)]
    assert bench_record.main(argv) == 0
    data = json.loads(out.read_text())
    assert (data["parent_rev"], data["change_rev"]) == ("aaa", "bbb")
    gate = data["workloads"]["gate"]
    assert gate["seeds"] == [1, 2, 3, 4, 5]
    wall = gate["wall_s"]
    assert wall["parent"] == pytest.approx({"median": 0.75, "q1": 0.70, "q3": 0.80})
    assert wall["change"] == pytest.approx({"median": 0.65, "q1": 0.62, "q3": 0.70})
    # seed 3 ties, seed 4 is lost
    assert (wall["change_won"], wall["pairs"]) == (3, 5)
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert gate["setup_s"]["change_won"] == 5
    assert gate["hosts"] == [HOST]
    assert gate["attempted"] == {"parent": 55, "change": 55}
    assert gate["failed"] == {"parent": 0, "change": 3}


def test_a_record_without_its_pair_is_refused(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "gate", 1, 0.7, 0.2)
    _write(parent, "gate", 2, 0.7, 0.2)
    _write(change, "gate", 1, 0.6, 0.2)
    argv = [str(parent), str(change), "--parent-rev", "a", "--change-rev", "b", "--out", str(tmp_path / "o.json")]
    assert bench_record.main(argv) == 2
    assert "('gate', 2)" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_record_that_is_not_correct_is_refused(tmp_path, capsys, side):
    dirs = {name: tmp_path / name for name in ("parent", "change")}
    for name, directory in dirs.items():
        _write(directory, "gate", 1, 0.7, 0.2)
        _write(directory, "gate", 2, 0.7, 0.2, correct=name != side)
    out = tmp_path / "o.json"
    argv = [str(dirs["parent"]), str(dirs["change"]), "--parent-rev", "a", "--change-rev", "b", "--out", str(out)]
    assert bench_record.main(argv) == 2
    assert f"{side} records with correct false (workload, seed): [('gate', 2)]" in capsys.readouterr().err
    assert not out.exists()
