"""Memory-reference traces.

Workloads emit a stream of :class:`Op` records — line-granular loads,
stores and persist barriers, with the number of retired instructions
since the previous record. The machine replays the stream through the
CPU cache hierarchy and the secure memory controller.

Persistent stores model clwb semantics (the line is written through to
the memory controller); scratch stores stay dirty in the hierarchy and
reach memory only via LLC write-backs, like any cached store.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class OpKind(enum.Enum):
    """The three kinds of trace records."""

    READ = "read"
    WRITE = "write"
    PERSIST = "persist"


@dataclass(frozen=True)
class Op:
    """One trace record (addresses are 64B line numbers)."""

    kind: OpKind
    addr: int = 0
    instructions: int = 0
    persistent: bool = True

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError("line address must be non-negative")
        if self.instructions < 0:
            raise ValueError("instruction gap must be non-negative")


def interleave_traces(traces, chunk: int = 4,
                      seed: int = 0) -> Iterator[Op]:
    """Merge several threads' traces into one memory-order stream.

    The paper runs every benchmark with 8 threads; the memory system
    sees their references interleaved. This helper emits ``chunk``-sized
    bursts from each live trace in a seeded random order until all are
    exhausted — enough to reproduce the inter-thread locality disruption
    without simulating true concurrency.

    Note: threads must not share persistent lines (each workload
    instance owns its own heap), so interleaving never reorders
    conflicting accesses.
    """
    import random

    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    rng = random.Random(seed)
    iterators = [iter(trace) for trace in traces]
    while iterators:
        source = rng.choice(iterators)
        emitted = 0
        while emitted < chunk:
            try:
                yield next(source)
            except StopIteration:
                iterators.remove(source)
                break
            emitted += 1
