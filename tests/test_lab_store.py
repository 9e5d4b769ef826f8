"""Result store integrity: corruption is detected, quarantined and
healed, never crashed on — and exports stay deterministic.

Store tests use synthetic payloads (the store is agnostic to payload
content), so they run in milliseconds.
"""

import gzip
import subprocess
from pathlib import Path

import pytest

from repro.bench.runner import config_for_scale
from repro.lab import store as store_module
from repro.lab.spec import bench_spec
from repro.lab.store import ResultStore, git_revision
from repro.util.stats import Stats

CONFIG = config_for_scale("smoke")


def make_spec(index=0):
    return bench_spec(CONFIG, "star", "hash", 40 + index, seed=7)


def make_payload(index=0):
    return {"version": 1, "stats": {"nvm.data_writes": 100 + index}}


def fill(store, count=2):
    specs = [make_spec(i) for i in range(count)]
    for i, spec in enumerate(specs):
        store.put(spec, make_payload(i), {"git_rev": "abc"},
                  wall_time_s=float(i))
    return specs


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        spec = make_spec()
        assert store.get(spec) is None
        store.put(spec, make_payload())
        record = store.get(spec)
        assert record is not None
        assert record.payload == make_payload()
        assert record.spec == spec.to_dict()
        assert stats.get("lab.store.misses") == 1
        assert stats.get("lab.store.hits") == 1
        assert stats.get("lab.store.puts") == 1

    def test_blob_bytes_are_content_addressed(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        spec = make_spec()
        a.put(spec, make_payload(), {"git_rev": "abc"})
        b.put(spec, make_payload(), {"git_rev": "abc"})
        blob = a.blob_path(spec.spec_hash)
        assert blob.read_bytes() == b.blob_path(
            spec.spec_hash
        ).read_bytes()

    def test_maintenance_reads_do_not_count_as_cache_traffic(
            self, tmp_path):
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        fill(store)
        assert len(store.export()) == 2
        assert list(store.records())
        assert stats.get("lab.store.hits") == 0


class TestCorruption:
    def test_corrupt_index_is_quarantined_and_rebuilt_from_blobs(
            self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        specs = fill(store)
        store.close()
        store.index_path.write_bytes(b"this is not a sqlite file")

        stats = Stats(enabled=True)
        reopened = ResultStore(tmp_path / "lab", stats=stats)
        assert reopened.get(specs[0]) is not None
        assert len(reopened) == len(specs)
        assert list(reopened.quarantine_path.iterdir())
        assert stats.get("lab.store.quarantined") == 1

    def test_truncated_index_recovers_too(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        specs = fill(store)
        store.close()
        raw = store.index_path.read_bytes()
        store.index_path.write_bytes(raw[: len(raw) // 3])

        reopened = ResultStore(tmp_path / "lab")
        assert sorted(reopened.hashes()) == sorted(
            spec.spec_hash for spec in specs
        )

    def test_corrupt_blob_is_quarantined_and_reported_as_miss(
            self, tmp_path):
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "lab", stats=stats)
        spec = fill(store, count=1)[0]
        store.blob_path(spec.spec_hash).write_bytes(b"\x1f\x8bgarbage")

        assert store.get(spec) is None
        assert spec not in store
        assert list(store.quarantine_path.iterdir())
        # the scheduler recomputes the cell and the store heals
        store.put(spec, make_payload())
        assert store.get(spec).payload == make_payload()

    def test_blob_whose_content_mismatches_its_name_is_rejected(
            self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        spec, other = fill(store)
        blob = store.blob_path(spec.spec_hash)
        blob.write_bytes(
            store.blob_path(other.spec_hash).read_bytes()
        )
        assert store.get(spec) is None

    def test_truncated_blob_gzip_stream(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        spec = fill(store, count=1)[0]
        blob = store.blob_path(spec.spec_hash)
        blob.write_bytes(blob.read_bytes()[:-8])
        assert store.get(spec) is None

    def test_blob_missing_records_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        spec = fill(store, count=1)[0]
        blob = store.blob_path(spec.spec_hash)
        with gzip.open(blob, "wt", encoding="ascii") as handle:
            handle.write('{"type":"spec","spec":%s}\n'
                         % '{"kind":"bench"}')
        assert store.get(spec) is None


class TestExportAndGc:
    def test_export_excludes_provenance_and_timing(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        spec = make_spec()
        a.put(spec, make_payload(), {"git_rev": "one"},
              wall_time_s=1.0)
        b.put(spec, make_payload(), {"git_rev": "two"},
              wall_time_s=9.0)
        assert a.export() == b.export()

    def test_export_sorted_and_filterable(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        specs = fill(store, count=3)
        entries = store.export()
        hashes = [entry["spec_hash"] for entry in entries]
        assert hashes == sorted(hashes)
        wanted = specs[0].spec_hash
        only = store.export(spec_hashes=[wanted])
        assert [entry["spec_hash"] for entry in only] == [wanted]
        assert store.export(prefix=wanted[:12]) == only

    def test_gc_drops_unreferenced_records_and_orphans(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        keep, drop = fill(store)
        orphan = store.blob_path("ff" * 32)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"orphan")
        stray = store.blob_path(drop.spec_hash).with_suffix(".tmp")
        stray.write_bytes(b"tmp")

        removed = store.gc(keep_hashes=[keep.spec_hash])
        assert removed["records"] == 1
        assert removed["orphan_blobs"] == 2
        assert store.get(keep) is not None
        assert drop not in store
        assert not orphan.exists() and not stray.exists()

    def test_gc_purges_quarantine_only_on_request(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        spec = fill(store, count=1)[0]
        store.blob_path(spec.spec_hash).write_bytes(b"bad")
        assert store.get(spec) is None  # quarantines the blob
        store.gc()
        assert list(store.quarantine_path.iterdir())
        removed = store.gc(purge_quarantine=True)
        assert removed["quarantined"] == 1
        assert not list(store.quarantine_path.iterdir())

    def test_rebuild_index_recounts_blobs(self, tmp_path):
        store = ResultStore(tmp_path / "lab")
        fill(store, count=3)
        assert store.rebuild_index() == 3


class TestProvenance:
    def test_revision_is_the_package_checkout_outside_any_repo(
            self, tmp_path, monkeypatch):
        package_dir = Path(store_module.__file__).resolve().parent
        expected = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=package_dir,
            capture_output=True, text=True, check=False,
        )
        if expected.returncode != 0 or not expected.stdout.strip():
            pytest.skip("the package is not in a git checkout")
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.chdir(outside)
        assert subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True,
                              check=False).returncode != 0
        git_revision.cache_clear()
        try:
            assert git_revision() == expected.stdout.strip()
        finally:
            git_revision.cache_clear()

    def test_revision_is_resolved_once_per_process(self, monkeypatch):
        calls = []
        real_run = store_module.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(store_module.subprocess, "run", counting_run)
        git_revision.cache_clear()
        try:
            first = git_revision()
            assert all(git_revision() == first for _ in range(5))
        finally:
            git_revision.cache_clear()
        assert len(calls) == 1
