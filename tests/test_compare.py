"""Tests for the star-compare result-diff tool."""

import json

import pytest

from repro.tools.compare import compare_results, main


def dump(path, rows_value):
    payload = [{
        "experiment": "Fig. 11",
        "title": "t",
        "columns": ["workload", "star"],
        "rows": [{"workload": "hash", "star": rows_value}],
        "notes": [],
    }]
    path.write_text(json.dumps(payload))


class TestCompare:
    def test_identical_results_agree(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump(a, 1.05)
        dump(b, 1.05)
        assert main([str(a), str(b)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_within_tolerance(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump(a, 1.000)
        dump(b, 1.005)
        assert main([str(a), str(b), "--tolerance", "0.02"]) == 0

    def test_drift_detected(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump(a, 1.00)
        dump(b, 1.50)
        assert main([str(a), str(b)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_structural_notes(self):
        before = {"X": {"columns": ["w"], "rows": []}}
        after = {}
        drifts, notes = compare_results(before, after, 0.02)
        assert not drifts
        assert any("disappeared" in note for note in notes)

    def test_strict_mode_fails_on_structure(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump(a, 1.0)
        b.write_text("[]")
        assert main([str(a), str(b)]) == 0
        assert main([str(a), str(b), "--strict"]) == 1

    def test_non_numeric_cells_ignored(self):
        row = {"workload": "hash", "star": "n/a"}
        table = {"columns": ["workload", "star"], "rows": [row]}
        drifts, _notes = compare_results({"X": table}, {"X": table},
                                         0.02)
        assert drifts == []

    @pytest.mark.parametrize("problem", [
        "missing", "not-json", "wrong-shape", "not-a-store",
    ])
    def test_bad_input_exits_2_with_a_message(
            self, problem, tmp_path, assert_usage_error):
        """A typo is not DRIFT (exit 1): each side is loaded before
        anything is compared, and a directory that is not a lab store
        is left untouched."""
        good = tmp_path / "good.json"
        dump(good, 1.0)
        bad = tmp_path / "bad.json"
        if problem == "not-json":
            bad.write_text("not json\n")
        elif problem == "wrong-shape":
            bad.write_text(json.dumps({"a": 1}))
        elif problem == "not-a-store":
            bad.mkdir()
        for argv in ([str(bad), str(good)], [str(good), str(bad)]):
            assert_usage_error(main(argv), "star-compare", str(bad))
        if problem == "not-a-store":
            assert list(bad.iterdir()) == []

    def test_end_to_end_with_star_bench(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            bench_main(["--experiment", "fig14a", "--scale", "smoke",
                        "--json", str(path)])
        capsys.readouterr()
        assert main([str(a), str(b)]) == 0


class TestCompareLabStores:
    """Directory arguments are opened as star-lab result stores."""

    @staticmethod
    def _store(root, value):
        from repro.bench.runner import config_for_scale
        from repro.lab.spec import bench_spec
        from repro.lab.store import ResultStore

        store = ResultStore(root)
        config = config_for_scale("smoke")
        for index, workload in enumerate(("array", "hash")):
            spec = bench_spec(config, "star", workload, 40, seed=7)
            store.put(spec, {
                "version": 1,
                "ipc": value + index,
                "stats": {"nvm.data_writes": 100},
            })
        store.close()
        return store

    def test_identical_stores_agree(self, tmp_path, capsys):
        self._store(tmp_path / "a", 1.0)
        self._store(tmp_path / "b", 1.0)
        assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "agree" in capsys.readouterr().out

    def test_drifted_payload_is_flagged_per_metric(
            self, tmp_path, capsys):
        self._store(tmp_path / "a", 1.0)
        self._store(tmp_path / "b", 2.0)
        assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out and "ipc" in out

    def test_hash_prefix_narrows_the_comparison(self, tmp_path):
        from repro.lab.store import ResultStore
        from repro.tools.compare import load_results

        self._store(tmp_path / "a", 1.0)
        self._store(tmp_path / "b", 2.0)
        first = ResultStore(tmp_path / "a").hashes()[0][:12]
        ref = "%s@%s" % (tmp_path / "a", first)
        other = "%s@%s" % (tmp_path / "b", first)
        assert len(load_results(ref)) == 1
        assert len(load_results(str(tmp_path / "a"))) == 2
        assert main([ref, other]) == 1
