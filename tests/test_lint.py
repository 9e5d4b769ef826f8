"""Tests for the repro.lint engine and the STAR00x rule set.

Each rule gets a seeded-violation fixture (must flag) and a compliant
fixture (must stay silent); the engine tests cover pragma suppression,
the JSON reporter round-trip and the CLI exit-code contract. The final
test runs the full rule set over the real ``src/`` tree — the repo's
own code must lint clean.
"""

import json
from pathlib import Path

import pytest

from repro.lint.engine import (
    FileContext,
    Finding,
    LintEngine,
    findings_from_json,
    findings_to_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.rules import default_rules
from repro.lint.rules.determinism import NondeterminismRule
from repro.lint.rules.hotpath import HotPathRosterRule
from repro.lint.rules.metrics import MetricCatalogRule
from repro.lint.rules.nvm_access import UncountedNvmAccessRule
from repro.lint.rules.widths import BitWidthOverflowRule

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def lint_source(tmp_path, rules, source, relpath="repro/sim/fixture.py"):
    """Stage ``source`` under a fake repro/ tree and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return LintEngine(rules).run([str(target)])


def codes(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# STAR001: uncounted NVM access
# ----------------------------------------------------------------------
class TestUncountedNvmAccess:
    def test_flags_direct_region_access(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "def scan(machine):\n"
            "    return sorted(machine.nvm._meta)\n",
        )
        assert codes(findings) == ["STAR001"]
        assert "_meta" in findings[0].message

    def test_flags_bare_nvm_name(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "def raw(nvm):\n"
            "    nvm._data[0] = None\n",
        )
        assert codes(findings) == ["STAR001"]

    def test_counted_and_sanctioned_accessors_pass(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "def ok(machine):\n"
            "    machine.nvm.read_meta(0)\n"
            "    machine.nvm.peek_data(0)\n"
            "    return machine.nvm.meta_lines()\n",
        )
        assert findings == []

    def test_unrelated_underscore_attrs_pass(self, tmp_path):
        # a non-NVM object owning its own _data is not a violation
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "class WearLeveler:\n"
            "    def __init__(self):\n"
            "        self._data = {}\n"
            "    def touch(self):\n"
            "        return len(self._data)\n",
        )
        assert findings == []

    def test_nvm_module_is_exempt(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "class NVM:\n"
            "    def total(self, nvm):\n"
            "        return len(nvm._data)\n",
            relpath="repro/mem/nvm.py",
        )
        assert findings == []

    def test_pragma_suppression(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "def scan(machine):\n"
            "    return machine.nvm._meta  # lint: disable=STAR001\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# STAR002: bit-width overflow
# ----------------------------------------------------------------------
class TestBitWidthOverflow:
    def test_flags_overflowing_literal(self, tmp_path):
        findings = lint_source(
            tmp_path, [BitWidthOverflowRule()],
            "lsbs = 1 << 12\n",
        )
        assert codes(findings) == ["STAR002"]
        assert "10-bit" in findings[0].message

    def test_flags_keyword_argument(self, tmp_path):
        findings = lint_source(
            tmp_path, [BitWidthOverflowRule()],
            "image = NodeImage(counters=(0,) * 8, mac=2 ** 60, lsbs=0)\n",
        )
        assert codes(findings) == ["STAR002"]
        assert "54-bit" in findings[0].message

    def test_flags_attribute_assignment_and_negative(self, tmp_path):
        findings = lint_source(
            tmp_path, [BitWidthOverflowRule()],
            "node.counter = -1\n",
        )
        assert codes(findings) == ["STAR002"]

    def test_boundary_values_pass(self, tmp_path):
        findings = lint_source(
            tmp_path, [BitWidthOverflowRule()],
            "mac = (1 << 54) - 1\n"
            "lsbs = (1 << 10) - 1\n"
            "counter = 2 ** 56 - 1\n",
        )
        assert findings == []

    def test_unbudgeted_names_and_dynamic_values_pass(self, tmp_path):
        findings = lint_source(
            tmp_path, [BitWidthOverflowRule()],
            "address = 1 << 40\n"
            "mac = compute_mac()\n",
        )
        assert findings == []

    def test_custom_width_table(self, tmp_path):
        rule = BitWidthOverflowRule(widths={"minor": 7})
        findings = lint_source(tmp_path, [rule], "minor = 128\n")
        assert codes(findings) == ["STAR002"]


# ----------------------------------------------------------------------
# STAR003: nondeterminism
# ----------------------------------------------------------------------
class TestNondeterminism:
    def test_flags_module_level_random(self, tmp_path):
        findings = lint_source(
            tmp_path, [NondeterminismRule()],
            "import random\n"
            "def jitter():\n"
            "    return random.randrange(4)\n",
        )
        assert codes(findings) == ["STAR003"]

    def test_flags_wall_clock(self, tmp_path):
        findings = lint_source(
            tmp_path, [NondeterminismRule()],
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n",
        )
        assert codes(findings) == ["STAR003"]

    def test_flags_set_iteration(self, tmp_path):
        findings = lint_source(
            tmp_path, [NondeterminismRule()],
            "def walk(lines):\n"
            "    for line in set(lines):\n"
            "        yield line\n",
        )
        assert codes(findings) == ["STAR003"]

    def test_seeded_random_and_sorted_pass(self, tmp_path):
        findings = lint_source(
            tmp_path, [NondeterminismRule()],
            "import random\n"
            "def ok(lines):\n"
            "    rng = random.Random(7)\n"
            "    for line in sorted(set(lines)):\n"
            "        rng.randrange(4)\n",
        )
        assert findings == []

    def test_out_of_scope_module_passes(self, tmp_path):
        findings = lint_source(
            tmp_path, [NondeterminismRule()],
            "import time\n"
            "now = time.perf_counter()\n",
            relpath="repro/tools/bench.py",
        )
        assert findings == []


# ----------------------------------------------------------------------
# STAR004: metric-catalogue hygiene
# ----------------------------------------------------------------------
class TestMetricCatalog:
    def rule(self, **kwargs):
        kwargs.setdefault("metrics", {"nvm.meta_writes": "counter"})
        kwargs.setdefault("patterns", [("sit.level%d.writes", "counter")])
        kwargs.setdefault("require_full_scan", False)
        return MetricCatalogRule(**kwargs)

    def test_flags_unknown_metric(self, tmp_path):
        findings = lint_source(
            tmp_path, [self.rule()],
            "def f(stats):\n"
            "    stats.add('nvm.meta_wrytes')\n"
            "    stats.add('nvm.meta_writes')\n"
            "    stats.add('sit.level%d.writes' % 2)\n",
        )
        assert codes(findings) == ["STAR004"]
        assert "nvm.meta_wrytes" in findings[0].message

    def test_flags_undeclared_template(self, tmp_path):
        findings = lint_source(
            tmp_path, [self.rule(patterns=[])],
            "def f(stats):\n"
            "    stats.add('sit.probe.%s' % kind)\n"
            "    stats.add('nvm.meta_writes')\n",
        )
        assert codes(findings) == ["STAR004"]

    def test_flags_unused_catalogue_entry(self, tmp_path):
        rule = self.rule(metrics={"ghost.counter": "counter"},
                         patterns=[])
        findings = lint_source(
            tmp_path, [rule],
            "def f(stats):\n"
            "    pass\n",
        )
        assert codes(findings) == ["STAR004"]
        assert "ghost.counter" in findings[0].message

    def test_prebuilt_name_table_counts_as_emitted(self, tmp_path):
        """A declared template formatted into a name table, then
        emitted through it, is not an unused catalogue entry; a
        pattern formatted nowhere still is."""
        rule = self.rule(metrics={}, patterns=[
            ("sit.level%d.writes", "counter"),
            ("ghost.level%d", "counter"),
        ])
        findings = lint_source(
            tmp_path, [rule],
            "names = ['sit.level%d.writes' % i for i in range(3)]\n"
            "def f(stats, level):\n"
            "    stats.add(names[level])\n",
        )
        assert codes(findings) == ["STAR004"]
        assert "ghost.level%d" in findings[0].message

    def test_unused_direction_gated_on_full_scan(self, tmp_path):
        rule = self.rule(metrics={"ghost.counter": "counter"},
                         patterns=[], require_full_scan=True)
        findings = lint_source(tmp_path, [rule], "x = 1\n")
        assert findings == []

    def test_non_stats_receivers_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path, [self.rule(patterns=[])],
            "def f(stats, mapping, bag):\n"
            "    mapping.get('whatever')\n"
            "    bag.add('not-a-metric')\n"
            "    stats.add('nvm.meta_writes')\n",
        )
        assert findings == []


# ----------------------------------------------------------------------
# STAR005: hot-path roster drift
# ----------------------------------------------------------------------
class TestHotPathRoster:
    ROSTER = {"repro/mem/fixture.py": {"Fast": False, "Image": True}}

    def test_flags_missing_slots(self, tmp_path):
        findings = lint_source(
            tmp_path, [HotPathRosterRule(self.ROSTER)],
            "class Fast:\n"
            "    pass\n"
            "class Image:\n"
            "    __slots__ = ()\n",
            relpath="repro/mem/fixture.py",
        )
        assert codes(findings) == ["STAR005"]
        assert "Fast" in findings[0].message

    def test_flags_dataclass_without_slots_or_frozen(self, tmp_path):
        findings = lint_source(
            tmp_path, [HotPathRosterRule(self.ROSTER)],
            "from dataclasses import dataclass\n"
            "class Fast:\n"
            "    __slots__ = ()\n"
            "@dataclass\n"
            "class Image:\n"
            "    mac: int\n",
            relpath="repro/mem/fixture.py",
        )
        assert sorted(codes(findings)) == ["STAR005", "STAR005"]

    def test_compliant_classes_pass(self, tmp_path):
        findings = lint_source(
            tmp_path, [HotPathRosterRule(self.ROSTER)],
            "from dataclasses import dataclass\n"
            "class Fast:\n"
            "    __slots__ = ('x',)\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Image:\n"
            "    mac: int\n",
            relpath="repro/mem/fixture.py",
        )
        assert findings == []

    def test_flags_vanished_roster_class(self, tmp_path):
        findings = lint_source(
            tmp_path, [HotPathRosterRule(self.ROSTER)],
            "class Fast:\n"
            "    __slots__ = ()\n",
            relpath="repro/mem/fixture.py",
        )
        assert codes(findings) == ["STAR005"]
        assert "Image" in findings[0].message


# ----------------------------------------------------------------------
# engine mechanics: pragmas, reporters, CLI
# ----------------------------------------------------------------------
class TestEngine:
    def test_file_level_pragma(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule()],
            "# lint: disable-file=STAR001\n"
            "def a(nvm):\n"
            "    return nvm._meta\n"
            "def b(nvm):\n"
            "    return nvm._data\n",
        )
        assert findings == []

    def test_pragma_only_suppresses_named_rule(self, tmp_path):
        findings = lint_source(
            tmp_path, [UncountedNvmAccessRule(), BitWidthOverflowRule()],
            "lsbs = nvm._meta = 5000  # lint: disable=STAR001\n",
        )
        assert codes(findings) == ["STAR002"]

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        target = tmp_path / "repro" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def broken(:\n")
        engine = LintEngine([UncountedNvmAccessRule()])
        assert engine.run([str(target)]) == []
        assert len(engine.errors) == 1

    def test_json_round_trip(self):
        findings = [
            Finding("STAR001", "a.py", 3, 7, "uncounted access"),
            Finding("STAR005", "b.py", 1, 0, "lost __slots__"),
        ]
        assert findings_from_json(findings_to_json(findings)) == findings

    def test_render_text_summarizes(self):
        text = render_text(
            [Finding("STAR002", "x.py", 2, 0, "overflow")]
        )
        assert "x.py:2:0 STAR002" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "clean: no findings"

    def test_default_rules_cover_all_codes(self):
        assert sorted(rule.code for rule in default_rules()) == [
            "STAR001", "STAR002", "STAR003", "STAR004", "STAR005",
            "STAR007", "STAR008",
        ]


class TestCli:
    def seed_violation(self, tmp_path):
        target = tmp_path / "repro" / "sim" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(nvm):\n    return nvm._meta\n")
        return target

    def test_check_mode_exit_codes(self, tmp_path, capsys):
        target = self.seed_violation(tmp_path)
        assert lint_main([str(target)]) == 0  # report-only
        assert lint_main([str(target), "--check"]) == 1
        capsys.readouterr()

    def test_json_report(self, tmp_path, capsys):
        target = self.seed_violation(tmp_path)
        out = tmp_path / "report.json"
        assert lint_main([str(target), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["findings"][0]["rule"] == "STAR001"
        capsys.readouterr()

    def test_rule_filter(self, tmp_path, capsys):
        target = self.seed_violation(tmp_path)
        assert lint_main(
            [str(target), "--check", "--rules", "STAR002"]
        ) == 0
        assert lint_main([str(target), "--rules", "NOPE"]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# the acceptance bar: the repo's own tree lints clean modulo the
# checked-in baseline, and every waiver in the baseline is still live
# ----------------------------------------------------------------------
@pytest.mark.skipif(not REPO_SRC.is_dir(), reason="src tree not present")
def test_repo_source_tree_is_clean():
    from repro.lint.baseline import Baseline

    engine = LintEngine(default_rules())
    findings = engine.run([str(REPO_SRC)])
    baseline = Baseline.load(str(REPO_SRC.parent / "lint-baseline.json"))
    kept, unused = baseline.apply(findings)
    assert kept == [], render_text(kept)
    assert unused == [], render_text(unused)
    assert engine.errors == []
