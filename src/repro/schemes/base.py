"""The persistence-scheme interface.

The secure memory controller implements the mechanism every evaluated
scheme shares: counter-mode encryption, the lazy SGX integrity tree, the
metadata cache and its eviction cascade. A :class:`PersistenceScheme`
customizes what *extra* persistence work happens around those events and
how (whether) the security metadata are recovered after a crash.

Hooks and the events that fire them:

========================  ====================================================
hook                      fired when
========================  ====================================================
``on_dirty_transition``   a cached metadata line flips clean<->dirty
``on_parent_modified``    a parent counter increments (data write or child
                          eviction) — the modification STAR coalesces and
                          Anubis shadows
``on_data_persist``       a user-data line (+ MAC side-band) was written
``on_metadata_persist``   a metadata line was written to NVM
``after_data_write``      a data write completed (strict persistence flushes
                          the whole branch here)
``on_cache_install`` /    metadata cache slot management (Anubis' shadow
``on_cache_evict``        table mirrors cache slots)
``on_crash``              power fails: flush whatever the scheme keeps in ADR
========================  ====================================================

Telemetry: every hook runs with the machine's
:class:`~repro.util.stats.Stats` at hand (``self.controller.stats``),
whose registry also carries histograms, spans and the structured event
log — see :mod:`repro.obs` and ``docs/observability.md`` for the naming
conventions a scheme should follow (prefix scheme-private metrics with
the scheme name, e.g. ``anubis.st_writes``). During :meth:`recover`,
use ``machine.nvm.stats`` so recovery telemetry lands in the separate
recovery namespace the machine reports under
``RunResult.extras["telemetry"]["recovery"]``.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from repro.errors import RecoveryError
from repro.tree.geometry import NodeId
from repro.tree.node import CachedNode, DataLineImage, NodeImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.controller import SecureMemoryController


@dataclass
class RecoveryReport:
    """Outcome of one post-crash recovery run."""

    scheme: str
    stale_lines: int = 0
    restored_lines: int = 0
    nvm_reads: int = 0
    nvm_writes: int = 0
    verified: bool = True
    recovery_time_ns: float = 0.0
    restored: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    """meta_index -> restored counter tuple (test oracle)."""

    ra_lines_cleared: int = 0
    """Non-zero recovery-area index lines zeroed after verification
    (STAR): counted NVM writes on the recovery critical path."""

    st_restored_lines: int = 0
    """Lines reinstated from a shadow table (Anubis ST; Phoenix uses it
    for tree nodes only)."""

    probed_blocks: int = 0
    """Counter blocks examined by Osiris-style probing (Phoenix)."""

    probed_stale_lines: int = 0
    """Probed counter blocks found stale (persisted NVM copy behind the
    probed value) — kept separate from ST-recovered ``stale_lines`` so
    the two recovery mechanisms are not conflated."""

    @property
    def recovery_time_s(self) -> float:
        return self.recovery_time_ns / 1e9

    @property
    def line_accesses(self) -> int:
        return self.nvm_reads + self.nvm_writes


class PersistenceScheme(ABC):
    """Base class: every hook defaults to 'do nothing extra'."""

    name: str = "abstract"
    supports_sit_recovery: bool = False

    def __init__(self) -> None:
        self.controller: Optional["SecureMemoryController"] = None

    def attach(self, controller: "SecureMemoryController") -> None:
        """Bind the scheme to its controller (called once at build)."""
        self.controller = controller

    # ------------------------------------------------------------------
    # runtime hooks (all optional)
    # ------------------------------------------------------------------
    def on_dirty_transition(self, meta_index: int,
                            became_dirty: bool) -> None:
        """A cached metadata line changed dirty state."""

    def on_parent_modified(self, parent: Optional[NodeId],
                           node: CachedNode, slot: int) -> None:
        """A parent counter was incremented (``parent is None`` = root)."""

    def on_data_persist(self, address: int, image: DataLineImage) -> None:
        """A user-data line reached NVM."""

    def on_metadata_persist(self, node: NodeId, image: NodeImage) -> None:
        """A metadata line reached NVM."""

    def after_data_write(self, address: int, counter_block: NodeId) -> None:
        """A data write completed (post-encryption, post-NVM-write)."""

    def on_cache_install(self, meta_index: int) -> None:
        """A metadata line became resident in the metadata cache."""

    def on_cache_evict(self, meta_index: int) -> None:
        """A metadata line left the metadata cache."""

    def on_crash(self) -> None:
        """Power failed: perform battery-backed flushes."""

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, machine) -> RecoveryReport:
        """Restore stale metadata after a crash.

        ``machine`` is the crashed :class:`~repro.sim.machine.Machine`;
        schemes read its NVM and on-chip registers. Schemes that cannot
        recover SIT metadata raise :class:`RecoveryError`.
        """
        raise RecoveryError(
            "scheme %r does not support SIT recovery" % self.name
        )


