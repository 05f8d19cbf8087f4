"""tools/bench_pairs.py checks its seed list before it runs any benchmark."""

import importlib.util
import pathlib

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
