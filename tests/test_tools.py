"""Tests for the star-run / star-stats / star-trace command-line tools."""

import pytest

from repro.tools.run import main as run_main
from repro.tools.stats import main as stats_main
from repro.tools.trace import main as trace_main


class TestStarTrace:
    def test_generate_then_info(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert trace_main([
            "generate", "--workload", "array", "--operations", "50",
            "--lines", "65536", "-o", str(path),
        ]) == 0
        assert path.exists()
        assert trace_main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unique lines" in out
        assert "persists" in out

    def test_generate_threaded(self, tmp_path, capsys):
        path = tmp_path / "t.trace.gz"
        assert trace_main([
            "generate", "--workload", "hash", "--operations", "30",
            "--lines", "65536", "--threads", "2", "-o", str(path),
        ]) == 0
        assert trace_main(["info", str(path)]) == 0

    def test_info_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing here\n")
        assert trace_main(["info", str(path)]) == 1

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            trace_main([])

    @pytest.mark.parametrize("case", [
        "info-missing", "info-malformed", "info-not-gzip",
        "generate-no-directory", "generate-onto-directory",
    ])
    def test_bad_path_exits_2_with_a_message(self, case, tmp_path,
                                             assert_usage_error):
        verb, _, problem = case.partition("-")
        path = bad_path(tmp_path, problem)
        argv = (["info", path] if verb == "info" else
                ["generate", "--workload", "hash", "-o", path])
        assert_usage_error(trace_main(argv), "star-trace", path)


class TestStarRun:
    def test_basic_run(self, capsys):
        assert run_main([
            "--workload", "array", "--operations", "100",
            "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "NVM writes" in out
        assert "IPC" in out

    def test_crash_and_audit(self, capsys):
        assert run_main([
            "--workload", "hash", "--operations", "150", "--crash",
            "--audit", "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit: all invariants hold" in out
        assert "verified=True, exact=True" in out

    def test_threads(self, capsys):
        assert run_main([
            "--workload", "queue", "--operations", "40",
            "--threads", "4", "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0
        assert "x4 threads" in capsys.readouterr().out

    def test_wear_leveling(self, capsys):
        assert run_main([
            "--workload", "array", "--operations", "200",
            "--wear-level", "20", "--memory-mb", "8",
            "--cache-kb", "8",
        ]) == 0

    def test_replay_trace(self, tmp_path, capsys):
        path = tmp_path / "r.trace"
        trace_main([
            "generate", "--workload", "btree", "--operations", "40",
            "--lines", "131072", "-o", str(path),
        ])
        capsys.readouterr()
        assert run_main([
            "--trace", str(path), "--scheme", "star",
            "--memory-mb", "8", "--cache-kb", "8", "--crash",
        ]) == 0
        assert "trace" in capsys.readouterr().out

    def test_scheme_choices(self):
        with pytest.raises(SystemExit):
            run_main(["--scheme", "bogus"])

    def test_wear_level_zero_means_off(self, capsys):
        assert run_main([
            "--workload", "array", "--operations", "50",
            "--wear-level", "0", "--memory-mb", "8", "--cache-kb", "8",
        ]) == 0

    @pytest.mark.parametrize("problem", ["missing", "malformed",
                                         "not-gzip"])
    def test_unreadable_trace_exits_2_with_a_message(
            self, problem, tmp_path, assert_usage_error):
        path = bad_path(tmp_path, problem)
        code = run_main(["--trace", path, "--memory-mb", "8",
                         "--cache-kb", "4"])
        assert_usage_error(code, "star-run", path)


class TestStarStats:
    @pytest.mark.parametrize("flag", ["--json", "--prom", "--events",
                                      "--trace"])
    def test_unwritable_output_exits_2_before_running(
            self, flag, tmp_path, assert_usage_error):
        path = bad_path(tmp_path, "no-directory")
        code = stats_main(["--operations", "50", "--memory-mb", "8",
                           "--cache-kb", "4", flag, path])
        assert_usage_error(code, "star-stats", path)


def bad_path(tmp_path, problem):
    """A path the tools must refuse, without a traceback."""
    if problem == "missing":
        return str(tmp_path / "missing.trace")
    if problem == "malformed":
        path = tmp_path / "bad.trace"
        path.write_text("R 1 10\nX 2 10\n")
    elif problem == "not-gzip":
        path = tmp_path / "bad.trace.gz"
        path.write_text("R 1 10\n")
    elif problem == "no-directory":
        path = tmp_path / "missing" / "out.trace"
    else:
        assert problem == "onto-directory"
        path = tmp_path
    return str(path)


# ----------------------------------------------------------------------
# sizes and counts are validated at parse time
# ----------------------------------------------------------------------
TOOLS = {
    "star-run": (run_main, []),
    "star-stats": (stats_main, []),
    "star-trace": (trace_main, ["generate", "--workload", "hash"]),
}

SIZE_FLAGS = {
    "star-run": ["--operations", "--threads", "--memory-mb", "--cache-kb"],
    "star-stats": ["--operations", "--memory-mb", "--cache-kb"],
    "star-trace": ["--operations", "--lines", "--threads"],
}

OUT_OF_RANGE = [
    (tool, flag, value)
    for tool, flags in sorted(SIZE_FLAGS.items())
    for flag in flags
    for value in ("0", "-1")
] + [("star-run", "--wear-level", "-1")]


@pytest.mark.parametrize(
    "tool, flag, value", OUT_OF_RANGE,
    ids=["%s%s=%s" % case for case in OUT_OF_RANGE],
)
def test_out_of_range_size_is_a_usage_error(tool, flag, value, tmp_path,
                                             capsys):
    main, prefix = TOOLS[tool]
    argv = prefix + [flag, value]
    if tool == "star-trace":
        argv += ["-o", str(tmp_path / "never.trace")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "argument %s: must be at least" % flag in err
    assert "Traceback" not in err
    assert not (tmp_path / "never.trace").exists()


# ----------------------------------------------------------------------
# inputs that parse but cannot run are refused before any simulation
# ----------------------------------------------------------------------
UNRUNNABLE = [
    # (tool, args, the flag the one-line message names)
    ("star-run", ["--threads", "64", "--memory-mb", "1"], "--memory-mb"),
    ("star-trace", ["--threads", "64", "--lines", "100"], "--lines"),
    ("star-trace", ["--lines", "10"], "--lines"),
    ("star-run", ["--scheme", "wb", "--crash"], "--crash"),
    ("star-stats", ["--scheme", "wb"], "--crash"),
    # 3 and 6 KB make 6 and 12 sets of 8 ways, not a power of two
    ("star-run", ["--cache-kb", "3"], "--cache-kb"),
    ("star-stats", ["--cache-kb", "6"], "--cache-kb"),
    # the tree allocates its nodes mid-stream, past the first op
    ("star-trace", ["--workload", "btree", "--lines", "100",
                    "--operations", "3000"], "--lines"),
]


@pytest.mark.parametrize(
    "tool, args, flag", UNRUNNABLE,
    ids=["%s%s" % (tool, "".join(args)) for tool, args, _ in UNRUNNABLE],
)
def test_unrunnable_input_is_a_usage_error(tool, args, flag, tmp_path,
                                           monkeypatch,
                                           assert_usage_error):
    from repro.tools import run, stats

    def no_simulation(*_args, **_kwargs):
        raise AssertionError("a machine was built for unrunnable input")

    for module in (run, stats):
        monkeypatch.setattr(module, "Machine", no_simulation)
    main, prefix = TOOLS[tool]
    outputs = {"star-trace": ["-o", str(tmp_path / "never.trace")],
               "star-stats": ["--json", str(tmp_path / "never.json")]}
    err = assert_usage_error(main(prefix + args + outputs.get(tool, [])),
                             tool, flag)
    assert list(tmp_path.iterdir()) == []
    if tool == "star-stats" and flag == "--crash":
        assert "--no-crash" in err
