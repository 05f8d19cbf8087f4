"""tools/bench_pairs.py checks its seed list before it runs any benchmark,
and records which version of the change each workload ran."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_seeds_read_ranges_and_lists():
    assert bench_pairs._seeds("1301-1303,9") == [1301, 1302, 1303, 9]
    assert bench_pairs._seeds("5,9") == [5, 9]


@pytest.mark.parametrize("seeds", ["7", "5-3", "5-7,6", "4,4", "x"])
def test_bad_seeds_stop_before_the_first_run(seeds, monkeypatch, capsys):
    def run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "_run", run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(ROOT), "--change", str(ROOT),
                          "--workload", "coxeter-enum", "--seeds", seeds, "--out", "unused.json"])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def _checkout(path):
    """A one-commit git repository holding the benchmark's spec and a note."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (path / "note.txt").write_text("one\n")
    git = ["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for cmd in (["init", "-q"], ["add", "."], ["commit", "-qm", "spec"]):
        subprocess.run(git + cmd, check=True, capture_output=True)
    return path


def _head(path):
    return subprocess.run(["git", "-C", str(path), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def test_each_workload_records_the_change_commit_and_its_diff(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"correct": True, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}
    monkeypatch.setattr(bench_pairs, "_run", lambda *args: result)
    out = tmp_path / "bench.json"

    def record(workload):
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", workload, "--seeds", "1,2", "--out", str(out)])
        return json.loads(out.read_text())["workloads"][workload]

    clean = record("homology")
    assert clean["change_commit"] == _head(change) and "change_diff" not in clean
    (change / "note.txt").write_text("two\n")
    diff = subprocess.run(["git", "-C", str(change), "diff", "HEAD"],
                          capture_output=True, check=True).stdout
    dirty = record("cli-survey")
    assert dirty["change_commit"] == _head(change)
    assert dirty["change_diff"] == hashlib.sha256(diff).hexdigest()[:8]
    assert json.loads(out.read_text())["parent"] == _head(parent)
