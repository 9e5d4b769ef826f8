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
