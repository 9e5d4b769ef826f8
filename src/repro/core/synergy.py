"""Counter-MAC synergization (Section III-B) — the heart of STAR.

Persisting a node is the only event that modifies its parent: exactly one
parent counter increments. STAR rides the 10 spare bits of the persisted
line's 64-bit MAC field to carry the 10 LSBs of that parent counter, so
the parent's modification is persisted *atomically with the child* and
costs zero extra memory writes.

After a crash the stale parent still holds its old counters in NVM (the
"MSBs"); combining them with the LSBs found in each child line
reconstructs the exact pre-crash counters, provided no counter drifted
2^10 or more increments from its persisted value — which the controller
prevents with a forced flush.
"""

from __future__ import annotations

from repro.config import LSB_BITS
from repro.util.bitfield import mask

LSB_MASK = mask(LSB_BITS)
LSB_SPAN = 1 << LSB_BITS
FLUSH_THRESHOLD = LSB_SPAN - 1
"""Drift at which the controller force-flushes a counter's node, so no
counter ever drifts a full LSB span from its persisted value."""


def counter_lsbs(counter: int) -> int:
    """The low ``LSB_BITS`` bits of a counter (what a child line carries)."""
    return counter & LSB_MASK


def reconstruct_counter(stale_counter: int, lsbs: int) -> int:
    """Rebuild a live counter from its stale NVM value and fresh LSBs.

    The live counter is the smallest value >= ``stale_counter`` whose low
    bits equal ``lsbs``. This is exact whenever
    ``live - stale < 2**LSB_BITS``, the invariant the forced flush
    maintains (Section III-B).

    >>> reconstruct_counter(0x400, 0x001)
    1025
    >>> reconstruct_counter(0x7FF, 0x000)   # LSB wrap-around
    2048
    """
    if stale_counter < 0:
        raise ValueError("counters are non-negative")
    if not 0 <= lsbs <= LSB_MASK:
        raise ValueError("LSBs out of range: %d" % lsbs)
    candidate = (stale_counter & ~LSB_MASK) | lsbs
    if candidate < stale_counter:
        candidate += LSB_SPAN
    return candidate


def reconstruct_counter_observed(stale_counter: int, lsbs: int,
                                 stats=None) -> int:
    """:func:`reconstruct_counter` plus telemetry.

    When ``stats`` (a :class:`~repro.util.stats.Stats`) is given,
    records the recovered drift (``live - stale``) in the
    ``synergy.reconstruct_drift`` histogram and counts LSB wrap-arounds
    (``synergy.lsb_wraps``) — the distribution the forced-flush
    threshold bounds below ``2**LSB_BITS``.
    """
    live = reconstruct_counter(stale_counter, lsbs)
    if stats is not None:
        stats.add("synergy.reconstructions")
        stats.observe("synergy.reconstruct_drift", live - stale_counter)
        if (stale_counter & LSB_MASK) > lsbs:
            stats.add("synergy.lsb_wraps")
    return live
