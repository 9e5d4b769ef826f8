"""HTTP lease transport: verbs over the wire, fencing, shipping, churn.

The acceptance property mirrors the filesystem farm's: however flaky
the network — dropped requests, dropped responses, middlebox
duplicates, truncated bodies — a campaign run entirely over HTTP (no
shared filesystem between worker stores and the board) converges to
an export byte-identical to a serial run, with every zombie and
duplicate delivery absorbed by the board's fencing, not by transport
heuristics. Servers bind ephemeral localhost ports; clocks are fakes,
so retries and steals run in microseconds.
"""

import json

import pytest

from repro.bench.runner import config_for_scale
from repro.lab.clock import BackoffPolicy, FakeClock
from repro.lab.farm import Coordinator, Worker, board_path, run_local
from repro.lab.lease import LeaseBoard
from repro.lab.net.client import HttpLeaseClient
from repro.lab.net.server import LeaseServer
from repro.lab.net.transport import (
    TransportError,
    lease_from_wire,
    lease_to_wire,
)
from repro.lab.spec import bench_spec
from repro.lab.store import ExportSource, ResultStore, StoreError
from repro.util.stats import Stats

from flaky_proxy import FlakyProxy, scripted_plan, seeded_plan

CONFIG = config_for_scale("smoke")

#: Instant client-side retry pacing (slept through a FakeClock anyway).
FAST = BackoffPolicy(base_s=0.01, cap_s=0.05)


def make_specs(count=4, operations=40):
    cells = [("wb", "array"), ("star", "array"),
             ("wb", "hash"), ("star", "hash")]
    return [
        bench_spec(CONFIG, scheme, workload, operations, seed=7)
        for scheme, workload in cells[:count]
    ]


def export_text(store):
    return json.dumps(store.export(), sort_keys=True)


def serial_export(tmp_path, specs):
    store = ResultStore(tmp_path / "serial")
    run_local(store, specs)
    return export_text(store)


def start_server(tmp_path, clock=None, stats=None):
    """A LeaseServer over a fresh board + authoritative store."""
    stats = stats or Stats(enabled=True)
    board = LeaseBoard(board_path(tmp_path / "farm"),
                       clock=clock or FakeClock(), cross_thread=True)
    store = ResultStore(tmp_path / "auth", stats=stats,
                        cross_thread=True)
    server = LeaseServer(board, store, stats=stats).start()
    return server, board, store, stats


def client_for(server_or_url, retries=5):
    url = getattr(server_or_url, "url", server_or_url)
    return HttpLeaseClient(url, clock=FakeClock(), retries=retries,
                           backoff=FAST, stats=Stats(enabled=True))


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_lease_round_trips(self):
        from repro.lab.lease import Lease

        spec = make_specs(1)[0]
        lease = Lease(spec=spec, fence=3, deadline=12.5, stolen=True,
                      attempts=2)
        wire = lease_to_wire(lease)
        json.dumps(wire)  # must be JSON-ready as-is
        back = lease_from_wire(wire)
        assert back == lease
        assert back.spec_hash == spec.spec_hash


# ----------------------------------------------------------------------
# verbs over the wire
# ----------------------------------------------------------------------
class TestHttpVerbs:
    def test_seed_claim_complete_lifecycle(self, tmp_path):
        specs = make_specs(3)
        server, board, _store, _stats = start_server(tmp_path)
        try:
            client = client_for(server)
            assert client.seed(specs) == 3
            assert client.seed(specs) == 0  # idempotent, like local
            leases = client.claim("w1", lease_s=60.0, limit=3)
            hashes = [lease.spec_hash for lease in leases]
            assert hashes == sorted(hashes)  # board order survives
            for lease in leases:
                assert client.renew("w1", lease.spec_hash,
                                    lease.fence, 60.0)
                assert client.complete("w1", lease.spec_hash,
                                       lease.fence)
            assert client.finished()
            assert client.counts()["done"] == 3
            assert client.failures() == []
        finally:
            server.shutdown()
            board.close()

    def test_duplicate_complete_is_a_fenced_noop(self, tmp_path):
        server, board, _store, stats = start_server(tmp_path)
        try:
            client = client_for(server)
            client.seed(make_specs(1))
            (lease,) = client.claim("w1", lease_s=60.0)
            assert client.complete("w1", lease.spec_hash, lease.fence)
            # a retried delivery of the same complete: acknowledged,
            # not re-applied, and counted as a duplicate
            assert client.complete("w1", lease.spec_hash, lease.fence)
            assert stats.get("lab.net.duplicates") == 1
            assert board.counts()["done"] == 1
        finally:
            server.shutdown()
            board.close()

    def test_zombie_fence_is_rejected_over_the_wire(self, tmp_path):
        clock = FakeClock()
        server, board, _store, stats = start_server(tmp_path,
                                                    clock=clock)
        try:
            zombie = client_for(server)
            thief = client_for(server)
            zombie.seed(make_specs(1))
            (held,) = zombie.claim("zombie", lease_s=5.0)
            clock.advance(6.0)  # the zombie misses its deadline
            (stolen,) = thief.claim("thief", lease_s=60.0)
            assert stolen.stolen and stolen.fence == held.fence + 1
            # the zombie comes back: every verb under the old fence
            # is rejected exactly as it would be against a local board
            assert not zombie.renew("zombie", held.spec_hash,
                                    held.fence, 60.0)
            assert not zombie.complete("zombie", held.spec_hash,
                                       held.fence)
            assert zombie.fail("zombie", held.spec_hash, held.fence,
                               "late") == "stale"
            assert stats.get("lab.net.rejects") == 3
            # the thief's fence still works
            assert thief.complete("thief", stolen.spec_hash,
                                  stolen.fence)
        finally:
            server.shutdown()
            board.close()

    def test_fail_over_the_wire_follows_the_boards_schedule(
            self, tmp_path):
        """The fail verb carries no policy: the board requeues after
        0.5 s, then 1.0 s, and fails the cell on its third failure."""
        clock = FakeClock()
        server, board, _store, _stats = start_server(tmp_path,
                                                     clock=clock)
        try:
            client = client_for(server)
            client.seed(make_specs(1))
            for delay in (0.5, 1.0):
                (lease,) = client.claim("w1", lease_s=60.0)
                outcome = client.fail("w1", lease.spec_hash,
                                      lease.fence, "boom")
                assert outcome == "requeued"
                row = board.lease_row(lease.spec_hash)
                assert row["state"] == "pending"
                # requeued under the board's delay: not claimable yet
                clock.advance(delay - 0.25)
                assert client.claim("w2", lease_s=60.0) == []
                clock.advance(0.25)
            (lease,) = client.claim("w1", lease_s=60.0)
            assert client.fail("w1", lease.spec_hash, lease.fence,
                               "boom") == "failed"
            (failure,) = client.failures()
            assert failure["attempts"] == 3
        finally:
            server.shutdown()
            board.close()

    def test_claim_hardening_surfaces_as_transport_error(
            self, tmp_path):
        server, board, _store, _stats = start_server(tmp_path)
        try:
            client = client_for(server, retries=3)
            client.seed(make_specs(1))
            # 4xx rejections fail fast: no retry spent on them
            with pytest.raises(TransportError, match="lease_s"):
                client.claim("w1", lease_s=0.0)
            with pytest.raises(TransportError, match="batch"):
                client.claim("w1", lease_s=60.0, limit=0)
            assert client.stats.get("lab.net.requests") <= 3
        finally:
            server.shutdown()
            board.close()

    def test_unknown_verb_and_unreachable_coordinator(self, tmp_path):
        server, board, _store, _stats = start_server(tmp_path)
        url = server.url
        try:
            client = client_for(server)
            with pytest.raises(TransportError, match="unknown verb"):
                client._verb("explode", {})
        finally:
            server.shutdown()
            board.close()
        dead = client_for(url, retries=1)
        with pytest.raises(TransportError, match="after 2 attempts"):
            dead.finished()
        assert dead.stats.get("lab.net.retries") == 1
        assert dead.stats.get("lab.net.errors") == 1


# ----------------------------------------------------------------------
# result shipping
# ----------------------------------------------------------------------
class TestUpload:
    def _computed_entries(self, tmp_path, specs):
        local = ResultStore(tmp_path / "local")
        run_local(local, specs)
        return local.export(), local

    def test_upload_lands_in_the_authoritative_store(self, tmp_path):
        specs = make_specs(2)
        entries, local = self._computed_entries(tmp_path, specs)
        server, board, store, stats = start_server(tmp_path)
        try:
            client = client_for(server)
            assert client.upload_results(entries) == 2
            # ingested through import_from: exports stay identical
            assert export_text(store) == export_text(local)
            # re-shipping (a retried upload) imports nothing new
            assert client.upload_results(entries) == 0
            assert export_text(store) == export_text(local)
            assert stats.get("lab.net.upload_bytes") > 0
            assert client.stats.get("lab.net.upload_bytes") > 0
        finally:
            server.shutdown()
            board.close()

    def test_corrupted_upload_is_rejected_wholesale(self, tmp_path):
        specs = make_specs(2)
        entries, _local = self._computed_entries(tmp_path, specs)
        entries[0]["spec_hash"] = "0" * len(entries[0]["spec_hash"])
        server, board, store, _stats = start_server(tmp_path)
        try:
            client = client_for(server, retries=0)
            with pytest.raises(TransportError, match="hash"):
                client.upload_results(entries)
            assert len(store) == 0  # nothing landed under a bad key
        finally:
            server.shutdown()
            board.close()

    def test_export_source_validates_entries(self, tmp_path):
        specs = make_specs(1)
        entries, _local = self._computed_entries(tmp_path, specs)
        source = ExportSource(entries)
        assert source.hashes() == [specs[0].spec_hash]
        with pytest.raises(StoreError, match="hash"):
            ExportSource([dict(entries[0], spec_hash="beef")])
        with pytest.raises(StoreError, match="missing"):
            ExportSource([{"spec": {}}])
        with pytest.raises(StoreError, match="malformed"):
            ExportSource(["not-a-dict"])


# ----------------------------------------------------------------------
# a full farm over HTTP (no shared filesystem)
# ----------------------------------------------------------------------
class TestHttpFarm:
    def _coordinator(self, tmp_path, stats):
        store = ResultStore(tmp_path / "auth", stats=stats)
        return Coordinator(store, tmp_path / "farm",
                           clock=FakeClock(), stats=stats), store

    def test_http_campaign_matches_serial(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        stats = Stats(enabled=True)
        coordinator, store = self._coordinator(tmp_path, stats)
        coordinator.prepare(specs, name="http")
        server, board, _sstore, _ = start_server(tmp_path, stats=stats)
        try:
            # the worker's dir is NOT the farm dir: store and
            # telemetry are private, only HTTP is shared
            workdir = tmp_path / "remote-host" / "w1"
            wstats = Stats(enabled=True)
            summary = Worker(workdir, "w1", clock=FakeClock(),
                             stats=wstats,
                             coordinator=server.url,
                             net_backoff=FAST).run()
            assert summary["done"] == len(specs)
            assert (workdir / "workers" / "w1" / "store").is_dir()
            report = coordinator.run(specs, name="http",
                                     max_wall_s=60)
            assert report.ok
            assert export_text(store) == reference
            assert wstats.get("lab.farm.results_shipped") == len(specs)
        finally:
            server.shutdown()
            board.close()
            coordinator.close()

    def test_sigkilled_worker_is_stolen_over_the_wire(self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        stats = Stats(enabled=True)
        board_clock = FakeClock()
        coordinator, store = self._coordinator(tmp_path, stats)
        coordinator.prepare(specs, name="churn")
        server, board, _sstore, _ = start_server(
            tmp_path, clock=board_clock, stats=stats)
        try:
            # the victim claims over HTTP, then "dies" (never renews,
            # never completes — exactly what SIGKILL leaves behind)
            victim = client_for(server)
            grabbed = victim.claim("victim", lease_s=5.0, limit=2)
            assert len(grabbed) == 2
            board_clock.advance(6.0)  # deadlines pass on the board
            summary = Worker(tmp_path / "survivor", "survivor",
                             clock=FakeClock(),
                             coordinator=server.url,
                             net_backoff=FAST).run()
            assert summary["stolen"] >= 2
            assert summary["done"] == len(specs)
            report = coordinator.run(specs, name="churn",
                                     max_wall_s=60)
            assert report.ok
            assert export_text(store) == reference
        finally:
            server.shutdown()
            board.close()
            coordinator.close()

    def test_failing_cell_runs_on_the_boards_schedule(self, tmp_path):
        """A cell that errors on every execution, reported through the
        HTTP fail verb, runs three times on the board's schedule and
        the campaign reports it failed."""
        from test_lab_scheduler import FakeRunner, assert_board_retry_schedule

        specs = make_specs(1)
        stats = Stats(enabled=True)
        clock = FakeClock()  # board deadlines and worker idle sleeps
        coordinator, _store = self._coordinator(tmp_path, stats)
        coordinator.prepare(specs, name="failing")
        server, board, _sstore, _ = start_server(tmp_path, clock=clock,
                                                 stats=stats)
        try:
            runner = FakeRunner(
                {specs[0].spec_hash: [("error", "boom")] * 9})
            summary = Worker(tmp_path / "w1", "w1", clock=clock,
                             coordinator=server.url, net_backoff=FAST,
                             runner=runner).run()
            assert summary["failed"] == 1 and summary["done"] == 0
            assert_board_retry_schedule(runner.handles)
            report = coordinator.run(specs, name="failing",
                                     max_wall_s=60)
            assert report.failed == 1
            assert report.failures[0]["error"] == "boom"
        finally:
            server.shutdown()
            board.close()
            coordinator.close()

    def test_worker_without_coordinator_raises_transport_error(
            self, tmp_path):
        worker = Worker(tmp_path / "w", "w1", clock=FakeClock(),
                        coordinator="http://127.0.0.1:9",  # discard
                        net_retries=0, net_backoff=FAST,
                        wait_s=0.5, telemetry=False)
        with pytest.raises(TransportError, match="coordinator"):
            worker.run()


# ----------------------------------------------------------------------
# the flaky network
# ----------------------------------------------------------------------
class TestFlakyNetwork:
    def test_dropped_response_turns_into_absorbed_duplicate(
            self, tmp_path):
        """Request sequence for a 1-cell campaign is deterministic:
        ping, claim, upload, complete. Dropping the complete's
        *response* forces a client retry the board must absorb as a
        fenced duplicate."""
        specs = make_specs(1)
        reference = serial_export(tmp_path, specs)
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "auth", stats=stats)
        coordinator = Coordinator(store, tmp_path / "farm",
                                  clock=FakeClock(), stats=stats)
        coordinator.prepare(specs, name="flaky")
        server, board, _sstore, _ = start_server(tmp_path, stats=stats)
        proxy = FlakyProxy(
            server.url,
            scripted_plan([None, None, None, "drop_response"]),
            clock=FakeClock(),
        ).start()
        try:
            summary = Worker(tmp_path / "w", "w1", clock=FakeClock(),
                             coordinator=proxy.url,
                             net_backoff=FAST).run()
            assert summary["done"] == 1
            assert proxy.injected == {"drop_response": 1}
            # the retried complete was absorbed, not double-applied
            assert stats.get("lab.net.duplicates") == 1
            assert board.counts()["done"] == 1
            report = coordinator.run(specs, name="flaky",
                                     max_wall_s=60)
            assert report.ok
            assert export_text(store) == reference
        finally:
            proxy.shutdown()
            server.shutdown()
            board.close()
            coordinator.close()

    def test_seeded_fault_storm_still_converges_byte_identical(
            self, tmp_path):
        specs = make_specs()
        reference = serial_export(tmp_path, specs)
        stats = Stats(enabled=True)
        store = ResultStore(tmp_path / "auth", stats=stats)
        coordinator = Coordinator(store, tmp_path / "farm",
                                  clock=FakeClock(), stats=stats)
        coordinator.prepare(specs, name="storm")
        # the worker and the server board share one fake clock: a
        # claim whose response the network ate leaves its cells
        # leased, and only the worker's own idle backoff (which
        # advances this clock) lets those leases expire for re-claim
        shared_clock = FakeClock()
        server, board, _sstore, _ = start_server(
            tmp_path, clock=shared_clock, stats=stats)
        plan = seeded_plan(1303, {
            "drop_request": 0.08,
            "drop_response": 0.08,
            "duplicate": 0.05,
            "truncate": 0.05,
        })
        proxy = FlakyProxy(server.url, plan,
                           clock=FakeClock()).start()
        worker_stats = Stats(enabled=True)
        try:
            summary = Worker(tmp_path / "w", "w1",
                             clock=shared_clock,
                             stats=worker_stats,
                             coordinator=proxy.url,
                             net_retries=8, net_backoff=FAST).run()
            assert summary["done"] == len(specs)
            assert sum(proxy.injected.values()) > 0  # storm happened
            assert worker_stats.get("lab.net.retries") > 0
            report = coordinator.run(specs, name="storm",
                                     max_wall_s=60)
            assert report.ok
            # every cell done exactly once on the board; replays were
            # absorbed (duplicates) or rejected (stale fences), never
            # double-applied
            assert board.counts()["done"] == len(specs)
            assert export_text(store) == reference
        finally:
            proxy.shutdown()
            server.shutdown()
            board.close()
            coordinator.close()

    def test_scripted_plan_and_seeded_plan_are_deterministic(self):
        plan = scripted_plan(["delay", None])
        assert [plan(i, "/x") for i in range(3)] == [
            "delay", None, None]
        first = seeded_plan(7, {"drop_request": 0.5})
        second = seeded_plan(7, {"drop_request": 0.5})
        draws = [(first(i, "/x"), second(i, "/x")) for i in range(32)]
        assert all(mine == twin for mine, twin in draws)
        with pytest.raises(ValueError, match="unknown fault"):
            seeded_plan(7, {"gremlins": 1.0})


# ----------------------------------------------------------------------
# lab.net metric hygiene
# ----------------------------------------------------------------------
class TestNetMetricsCatalogued:
    def test_every_emitted_net_metric_is_catalogued(self, tmp_path):
        from repro.obs import catalog

        specs = make_specs(1)
        stats = Stats(enabled=True)
        server, board, _store, _ = start_server(tmp_path, stats=stats)
        try:
            client = HttpLeaseClient(server.url, clock=FakeClock(),
                                     stats=stats, backoff=FAST)
            client.seed(specs)
            (lease,) = client.claim("w1", lease_s=60.0)
            client.complete("w1", lease.spec_hash, lease.fence)
            client.complete("w1", lease.spec_hash, lease.fence)
        finally:
            server.shutdown()
            board.close()
        emitted = [name for name, _ in stats.registry.counters()
                   if name.startswith("lab.net.")]
        assert emitted  # the path above actually exercised the plane
        for name in emitted:
            assert catalog.lookup(name) == "counter", name
