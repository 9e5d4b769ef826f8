"""Unit + property tests for start-gap wear leveling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.mem.wearlevel import StartGapRemapper, WearLevelingNVM
from repro.sim.endurance import wear_report
from repro.sim.machine import Machine
from repro.tree.node import DataLineImage

from conftest import run_small_workload


def _image(byte: int = 0) -> DataLineImage:
    return DataLineImage(ciphertext=bytes([byte % 256]) * 64,
                         mac=0, lsbs=0)


class TestRemapper:
    def test_identity_before_any_move(self):
        remapper = StartGapRemapper(8)
        assert [remapper.translate(line) for line in range(8)] == \
            list(range(8))

    def test_single_move_shifts_one_line(self):
        remapper = StartGapRemapper(8, gap_write_interval=1)
        source, destination = remapper.note_write()
        assert (source, destination) == (7, 8)
        assert remapper.translate(7) == 8
        assert remapper.translate(6) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            StartGapRemapper(0)
        with pytest.raises(ValueError):
            StartGapRemapper(8, gap_write_interval=0)
        with pytest.raises(ValueError):
            StartGapRemapper(8).translate(8)

    def test_no_move_below_interval(self):
        remapper = StartGapRemapper(8, gap_write_interval=3)
        assert remapper.note_write() is None
        assert remapper.note_write() is None
        assert remapper.note_write() is not None

    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_mapping_is_always_a_bijection(self, lines, moves):
        remapper = StartGapRemapper(lines, gap_write_interval=1)
        for _ in range(moves):
            remapper.note_write()
        physical = [remapper.translate(line) for line in range(lines)]
        assert len(set(physical)) == lines
        assert all(0 <= slot <= lines for slot in physical)
        assert remapper.gap not in physical  # the gap stays empty

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_full_rotation_visits_every_slot(self, lines):
        """After enough moves, a hot logical line has occupied every
        physical slot — the property that spreads wear."""
        remapper = StartGapRemapper(lines, gap_write_interval=1)
        visited = {remapper.translate(0)}
        for _ in range(lines * (lines + 1)):
            remapper.note_write()
            visited.add(remapper.translate(0))
        assert visited == set(range(lines + 1))


class TestWearLevelingNVM:
    def test_content_tracks_remapping(self):
        """The device keeps answering reads correctly across moves."""
        nvm = WearLevelingNVM(16, gap_write_interval=2)
        model = {}
        for step in range(100):
            line = step % 16
            image = _image(step)
            nvm.write_data(line, image)
            model[line] = image
            for known, expected in model.items():
                assert nvm.read_data(known) == expected

    def test_gap_moves_counted(self):
        nvm = WearLevelingNVM(16, gap_write_interval=5)
        for step in range(25):
            nvm.write_data(step % 16, _image())
        assert nvm.stats["wearlevel.gap_moves"] == 5

    def test_migration_traffic_is_counted(self):
        """Gap moves are real device traffic: one read + one write in
        the counters, through the counted migrate_data API."""
        nvm = WearLevelingNVM(4, gap_write_interval=1)
        nvm.write_data(3, _image())  # slot 3 adj. to gap 4 -> migrates
        assert nvm.stats["nvm.data_reads"] == 1
        assert nvm.stats["nvm.data_writes"] == 2
        # wear lands on the migration destination
        assert nvm.wear[("data", 4)] == 1

    def test_span_read_returns_logical_lines_after_gap_moves(self):
        """Once the gap has moved past written lines, their physical
        slots differ from their logical numbers; the span read still
        answers under the logical numbers, one counted read per line."""
        nvm = WearLevelingNVM(8, gap_write_interval=1)
        for step in range(11):
            nvm.write_data((step * 3) % 8, _image(step))
        assert nvm.remapper.gap_moves == 11
        assert nvm.remapper.start == 1  # a full rotation wrapped once
        moved = [line for line in range(8)
                 if nvm.remapper.translate(line) != line]
        assert moved and all(nvm.peek_data(line) is not None
                             for line in moved)
        for first, count in ((0, 8), (2, 5), (7, 1)):
            reads = nvm.stats["nvm.data_reads"]
            images = nvm.read_data_span(first, count)
            assert nvm.stats["nvm.data_reads"] == reads + count
            assert images == {
                line: nvm.peek_data(line)
                for line in range(first, first + count)
                if nvm.peek_data(line) is not None
            }

    def test_migration_of_an_empty_slot_is_free(self):
        nvm = WearLevelingNVM(8, gap_write_interval=10 ** 9)
        assert not nvm.migrate_data(5, 8)
        assert nvm.stats["nvm.data_reads"] == 0
        assert nvm.stats["nvm.data_writes"] == 0
        assert nvm.wear == {}

    def test_hot_line_wear_spread(self):
        """Hammering one logical line spreads across physical slots."""
        plain = WearLevelingNVM(16, gap_write_interval=10 ** 9)
        leveled = WearLevelingNVM(16, gap_write_interval=4)
        for _ in range(200):
            plain.write_data(3, _image())
            leveled.write_data(3, _image())
        assert wear_report(leveled).max_wear < \
            wear_report(plain).max_wear

    def test_machine_runs_on_wear_leveled_nvm(self):
        """The secure machine is oblivious to the remapping layer."""
        config = small_config()
        nvm = WearLevelingNVM(config.num_data_lines,
                              gap_write_interval=50)
        machine = Machine(config, scheme="star", nvm=nvm)
        run_small_workload(machine, "hash", operations=150)
        machine.crash()
        report = machine.recover(raise_on_failure=True)
        assert machine.oracle_check(report)
        assert nvm.stats["wearlevel.gap_moves"] > 0
