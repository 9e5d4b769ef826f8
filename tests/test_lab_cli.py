"""star-lab CLI: run / status / resume / export / gc / farm verbs,
in process."""

import json

import pytest

from repro.lab.cli import main
from repro.lab.store import ResultStore


@pytest.fixture()
def grid_path(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({
        "name": "cli-smoke", "kind": "bench", "scale": "smoke",
        "schemes": ["wb", "star"], "workloads": ["array"],
        "seed": 7, "operations": 40,
    }))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_run_completes_and_populates_the_store(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        assert run_cli("run", "--grid", grid_path,
                       "--store", store_dir) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out
        assert len(ResultStore(store_dir)) == 2

    def test_second_run_resumes_every_cell(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        run_cli("run", "--grid", grid_path, "--store", store_dir)
        capsys.readouterr()
        assert run_cli("run", "--grid", grid_path,
                       "--store", store_dir) == 0
        table = capsys.readouterr().out
        row = [line for line in table.splitlines() if line.strip()][-1]
        # cells / resumed / computed columns
        assert row.split()[:3] == ["2", "2", "0"]

    def test_unknown_grid_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "--grid", "no-such-grid",
                       "--store", str(tmp_path / "lab")) == 2
        assert "no grid named" in capsys.readouterr().err


class TestInterruptResumeExport:
    def test_killed_campaign_resumes_and_exports_identically(
            self, grid_path, tmp_path, capsys):
        serial = str(tmp_path / "serial")
        resumed = str(tmp_path / "resumed")
        run_cli("run", "--grid", grid_path, "--store", serial)

        assert run_cli("run", "--grid", grid_path, "--store", resumed,
                       "--max-cells", "1") == 3
        assert "resume" in capsys.readouterr().out
        # journal-driven resume: no --grid needed
        assert run_cli("resume", "--store", resumed) == 0

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("export", "--store", serial, "-o", str(a))
        run_cli("export", "--store", resumed, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_status_lists_the_campaign_checkpoint(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        run_cli("run", "--grid", grid_path, "--store", store_dir,
                "--max-cells", "1")
        capsys.readouterr()
        assert run_cli("status", "--store", store_dir) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out and "cli-smoke" in out

    def test_resume_without_unfinished_campaign_is_an_error(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        run_cli("run", "--grid", grid_path, "--store", store_dir)
        capsys.readouterr()
        assert run_cli("resume", "--store", store_dir) == 2
        assert "unfinished" in capsys.readouterr().err

    def test_export_to_stdout_with_hash_prefix(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        run_cli("run", "--grid", grid_path, "--store", store_dir)
        hashes = ResultStore(store_dir).hashes()
        capsys.readouterr()
        assert run_cli("export", "--store", store_dir,
                       "--hash-prefix", hashes[0][:16]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [entry["spec_hash"] for entry in entries] == [hashes[0]]


class TestFarmVerbs:
    def test_serve_work_serve_matches_serial_export(
            self, grid_path, tmp_path, capsys):
        """The whole farm protocol with no threads: an interrupted
        serve seeds the board, a worker drains it, a second serve
        re-adopts the campaign, merges and completes."""
        serial = str(tmp_path / "serial")
        run_cli("run", "--grid", grid_path, "--store", serial)
        store_dir = str(tmp_path / "farmed")
        farm_dir = str(tmp_path / "farmed/farm")

        # seed + journal, then stop immediately (exit 3: resumable)
        assert run_cli("serve", "--grid", grid_path,
                       "--store", store_dir, "--farm", farm_dir,
                       "--max-wall", "0", "--quiet") == 3

        assert run_cli("work", "--farm", farm_dir, "--id", "w1",
                       "--wait", "5") == 0
        assert "2 done" in capsys.readouterr().out

        # the restarted coordinator re-adopts the board and merges
        assert run_cli("serve", "--grid", grid_path,
                       "--store", store_dir, "--farm", farm_dir,
                       "--max-wall", "60") == 0
        assert "remaining" in capsys.readouterr().out

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("export", "--store", serial, "-o", str(a))
        run_cli("export", "--store", store_dir, "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stopped_work_settles_its_chunk_and_exits_3(
            self, grid_path, tmp_path, monkeypatch, capsys):
        from repro.lab import cli
        from repro.lab.farm import Worker
        from repro.lab.lease import LeaseBoard

        class StoppedWorker(Worker):
            """Requests its own stop as the first cell launches (what
            the SIGINT handler does on Ctrl-C)."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                inner, worker = self.scheduler.runner, self

                class Runner:
                    def start(self, spec, clock, telemetry=None):
                        worker.request_stop()
                        return inner.start(spec, clock)

                self.scheduler.runner = Runner()

        monkeypatch.setattr(cli, "Worker", StoppedWorker)
        store_dir = str(tmp_path / "farmed")
        farm_dir = tmp_path / "farmed/farm"
        run_cli("serve", "--grid", grid_path, "--store", store_dir,
                "--farm", str(farm_dir), "--max-wall", "0", "--quiet")
        capsys.readouterr()
        assert run_cli("work", "--farm", str(farm_dir), "--id", "w1",
                       "--wait", "5") == 3
        out = capsys.readouterr().out
        assert "1 done" in out and "interrupted" in out
        with LeaseBoard(farm_dir / "leases.sqlite") as board:
            assert board.counts()["done"] == 1
            assert board.counts()["pending"] == 1

    def test_work_without_a_board_is_an_error(self, tmp_path, capsys):
        assert run_cli("work", "--farm", str(tmp_path / "nope"),
                       "--id", "w1", "--wait", "0", "--poll",
                       "0.01") == 2
        assert "lease board" in capsys.readouterr().err

    def test_merge_verb_imports_worker_stores(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "farmed")
        farm_dir = str(tmp_path / "farmed/farm")
        run_cli("serve", "--grid", grid_path, "--store", store_dir,
                "--farm", farm_dir, "--max-wall", "0", "--quiet")
        run_cli("work", "--farm", farm_dir, "--id", "w1",
                "--wait", "5", "--quiet")
        capsys.readouterr()
        assert run_cli("merge", "--store", store_dir,
                       "--farm", farm_dir) == 0
        assert "merged 2 new records" in capsys.readouterr().out
        assert len(ResultStore(store_dir)) == 2

    def test_farm_progress_shows_in_star_top(
            self, grid_path, tmp_path, capsys):
        from repro.obs.top import main as top_main

        store_dir = str(tmp_path / "farmed")
        farm_dir = str(tmp_path / "farmed/farm")
        run_cli("serve", "--grid", grid_path, "--store", store_dir,
                "--farm", farm_dir, "--max-wall", "0", "--quiet")
        run_cli("work", "--farm", farm_dir, "--id", "w1",
                "--wait", "5", "--quiet")
        run_cli("serve", "--grid", grid_path, "--store", store_dir,
                "--farm", farm_dir, "--max-wall", "60", "--quiet")
        capsys.readouterr()
        assert top_main(["--farm", farm_dir, "--store", store_dir,
                         "--once"]) == 0
        output = capsys.readouterr().out
        assert "w1" in output and "coordinator" in output
        assert "claimed 2" in output


class TestOneBoardOneCampaign:
    def _grid(self, tmp_path, name, workload):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({
            "name": name, "kind": "bench", "scale": "smoke",
            "schemes": ["wb", "star"], "workloads": [workload],
            "seed": 7, "operations": 40,
        }))
        return str(path)

    def test_serving_another_campaign_on_a_board_is_refused(
            self, tmp_path, capsys):
        grid_a = self._grid(tmp_path, "grid-a", "array")
        grid_b = self._grid(tmp_path, "grid-b", "hash")
        store_dir = str(tmp_path / "farmed")
        farm_dir = str(tmp_path / "farmed/farm")
        run_cli("serve", "--grid", grid_a, "--store", store_dir,
                "--farm", farm_dir, "--max-wall", "0", "--quiet")
        run_cli("work", "--farm", farm_dir, "--id", "w1",
                "--wait", "5", "--quiet")
        capsys.readouterr()
        # B's cells would sit on A's board, and A's merge would wait
        # on them forever
        assert run_cli("serve", "--grid", grid_b, "--store", store_dir,
                       "--farm", farm_dir, "--max-wall", "0",
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert farm_dir in err and "another campaign" in err
        # re-serving A, or a superset of it, still re-adopts the board
        assert run_cli("serve", "--grid", grid_a, "--grid", grid_b,
                       "--store", store_dir, "--farm", farm_dir,
                       "--max-wall", "0", "--quiet") == 3
        assert run_cli("work", "--farm", farm_dir, "--id", "w1",
                       "--wait", "5", "--quiet") == 0
        assert run_cli("serve", "--grid", grid_a, "--grid", grid_b,
                       "--store", store_dir, "--farm", farm_dir,
                       "--max-wall", "60", "--quiet") == 0
        assert len(ResultStore(store_dir)) == 4


def exit_code(argv):
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


class TestUsageErrors:
    # --retries and --max-attempts are gone (the board owns the retry
    # policy); their rows stay, refused now as unknown flags
    @pytest.mark.parametrize("argv, flag", [
        (["run", "--jobs", "0"], "--jobs"),
        (["run", "--jobs", "-2"], "--jobs"),
        (["run", "--retries", "-1"], "--retries"),
        (["run", "--max-cells", "0"], "--max-cells"),
        (["run", "--max-cells", "-1"], "--max-cells"),
        (["resume", "--jobs", "0"], "--jobs"),
        (["resume", "--retries", "-1"], "--retries"),
        (["resume", "--max-cells", "0"], "--max-cells"),
        (["work", "--jobs", "0"], "--jobs"),
        (["work", "--max-attempts", "0"], "--max-attempts"),
        (["work", "--net-retries", "-1"], "--net-retries"),
        (["run", "--timeout", "5"], "--timeout"),
        (["resume", "--timeout", "5"], "--timeout"),
        (["work", "--timeout", "5"], "--timeout"),
        # a timeout no cell can meet
        (["run", "--timeout", "0", "--jobs", "2"], "--timeout"),
        (["run", "--timeout", "-1", "--jobs", "2"], "--timeout"),
        (["resume", "--timeout", "0", "--jobs", "2"], "--timeout"),
        (["work", "--timeout", "0", "--jobs", "2"], "--timeout"),
        (["work", "--timeout", "-1", "--jobs", "2"], "--timeout"),
        # a poll interval that would busy-spin the watch or claim loop
        (["serve", "--poll", "0", "--max-wall", "0"], "--poll"),
        (["serve", "--poll", "-1", "--max-wall", "0"], "--poll"),
        (["serve", "--poll", "nan", "--max-wall", "0"], "--poll"),
        (["work", "--poll", "0"], "--poll"),
        (["work", "--poll", "-1"], "--poll"),
        (["work", "--poll", "nan"], "--poll"),
        # a lease no claim can hold
        (["work", "--lease", "0"], "--lease"),
        (["work", "--lease", "-5"], "--lease"),
        (["work", "--lease", "nan"], "--lease"),
    ])
    def test_bad_values_exit_2_with_a_message(
            self, argv, flag, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        farm_dir = str(tmp_path / "lab/farm")
        if argv[0] == "work":
            # a served board, so an accepted value would run cells
            run_cli("serve", "--grid", grid_path, "--store", store_dir,
                    "--farm", farm_dir, "--max-wall", "0", "--quiet")
            argv = argv + ["--farm", farm_dir, "--wait", "0"]
        else:
            argv = argv + ["--grid", grid_path, "--store", store_dir]
        capsys.readouterr()
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert len(ResultStore(store_dir)) == 0

    @pytest.mark.parametrize("grid, message", [
        ({"a": 1}, "unknown key"),
        ({"kind": "bench", "scale": "smoke", "operatons": 20},
         "unknown key"),
        ({"kind": "bench", "scale": "smoke", "schemes": ["nope"]},
         "unknown scheme"),
        ({"kind": "bench", "scale": "smoke", "workloads": ["nope"]},
         "unknown workload"),
        ({"kind": "fuzz", "cases": 2, "atack_rate": 0.5}, "unknown key"),
        ({"kind": "bench", "scale": "smoke", "operations": "many"},
         "operations must be an integer"),
        ({"kind": "bench", "scale": "smoke", "operations": 2.5},
         "operations must be an integer"),
        ({"kind": "bench", "scale": "smoke", "operations": True},
         "operations must be an integer"),
        ({"kind": "bench", "scale": "smoke", "seed": "x"},
         "seed must be an integer"),
        ({"kind": "bench", "scale": "smoke", "seed": 1.5},
         "seed must be an integer"),
        ({"kind": "bench", "scale": "smoke",
          "axes": {"adr_bitmap_lines": "x"}}, "must be a list"),
        ({"kind": "bench", "scale": "smoke",
          "axes": {"adr_bitmap_lines": [4, 2.5]}},
         "adr_bitmap_lines must be an integer"),
        ({"kind": "bench", "scale": "smoke", "bitmap_fanout": "x"},
         "bitmap_fanout must be an integer"),
        ({"kind": "bench", "scale": "smoke", "workloads": "hash"},
         "workloads must be a list"),
        ({"kind": "bench", "scale": "smoke", "schemes": "star"},
         "schemes must be a list"),
        ({"kind": "fuzz", "cases": "x"}, "cases must be an integer"),
        ({"kind": "fuzz", "cases": 2, "seed": 1.5},
         "seed must be an integer"),
        ({"kind": "fuzz", "cases": 2, "max_operations": "x"},
         "max_operations must be an integer"),
        ({"kind": "fuzz", "cases": 2, "attack_rate": "x"},
         "attack rate must be within"),
    ], ids=["unread-key", "misspelt-key", "unknown-scheme",
            "unknown-workload", "fuzz-misspelt-key",
            "operations-str", "operations-float", "operations-bool",
            "seed-str", "seed-float", "axis-str", "axis-float",
            "fanout-str", "workloads-str", "schemes-str",
            "fuzz-cases-str", "fuzz-seed-float", "fuzz-max-ops-str",
            "fuzz-attack-rate-str"])
    def test_bad_grid_exits_2_before_any_cell_runs(
            self, grid, message, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        store_dir = tmp_path / "lab"
        assert run_cli("run", "--grid", str(path),
                       "--store", str(store_dir), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("star-lab: grid 'grid': ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not store_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["status"], ["export"], ["gc"], ["resume"],
        ["merge", "--farm", "{tmp}/no-farm"],
        ["export", "-o", "{tmp}/no-dir/out.json"],
    ], ids=["status", "export", "gc", "resume", "merge", "export-o"])
    def test_missing_path_exits_2_and_creates_nothing(
            self, argv, tmp_path, assert_usage_error):
        store_dir = tmp_path / "no-store"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        path = argv[-1] if len(argv) > 1 else str(store_dir)
        code = run_cli(*argv, "--store", str(store_dir))
        assert_usage_error(code, "star-lab", path)
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("verb, flag, value", [
        (verb, flag, value)
        for verb in ("run", "resume")
        for flag, value in (("--retries", "2"), ("--backoff", "0.5"),
                            ("--backoff-policy", "exponential"),
                            ("--backoff-cap", "30"))
    ] + [
        ("work", flag, value)
        for flag, value in (("--max-attempts", "3"), ("--backoff", "0.5"),
                            ("--backoff-policy", "exponential"),
                            ("--backoff-cap", "30"))
    ] + [("serve", "--lease", "4")])
    def test_retry_policy_flags_are_gone(
            self, verb, flag, value, grid_path, tmp_path, capsys):
        """The lease board owns the retry policy (3 attempts, requeued
        after 0.5 s then 1.0 s), so no verb takes it as a flag."""
        store_dir = str(tmp_path / "lab")
        farm_dir = str(tmp_path / "farm")
        if verb == "work":
            run_cli("serve", "--grid", grid_path, "--store", store_dir,
                    "--farm", farm_dir, "--max-wall", "0", "--quiet")
            where = ["--farm", farm_dir, "--wait", "0"]
        else:
            where = ["--grid", grid_path, "--store", store_dir]
        if verb == "serve":
            where += ["--farm", farm_dir, "--max-wall", "0"]
        capsys.readouterr()
        assert exit_code([verb, flag, value] + where + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: %s" % flag in err
        assert len(ResultStore(store_dir)) == 0


class TestGc:
    def test_gc_keeps_grid_cells_and_drops_the_rest(
            self, grid_path, tmp_path, capsys):
        store_dir = str(tmp_path / "lab")
        run_cli("run", "--grid", grid_path, "--store", store_dir)
        store = ResultStore(store_dir)
        keep = store.hashes()
        # an extra cell not referenced by the grid
        other = tmp_path / "other.json"
        other.write_text(json.dumps({
            "name": "other", "kind": "bench", "scale": "smoke",
            "schemes": ["anubis"], "workloads": ["array"],
            "seed": 7, "operations": 40,
        }))
        run_cli("run", "--grid", str(other), "--store", store_dir)
        store.close()
        capsys.readouterr()

        assert run_cli("gc", "--store", store_dir,
                       "--grid", grid_path) == 0
        assert "dropped 1 records" in capsys.readouterr().out
        assert sorted(ResultStore(store_dir).hashes()) == sorted(keep)
