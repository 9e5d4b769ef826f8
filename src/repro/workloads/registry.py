"""Workload registry: the paper's 5 micro- + 2 macro-benchmarks, and
:class:`TraceSpec`, the one constructor of every trace the tools,
experiments, fuzzer and lab replay."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Type

from repro.config import require_int
from repro.errors import ConfigError
from repro.workloads.array import ArrayWorkload
from repro.workloads.base import Workload
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.trace import Op, interleave_traces
from repro.workloads.ycsb import YcsbWorkload

MICRO_WORKLOADS: List[str] = ["array", "btree", "hash", "queue", "rbtree"]
MACRO_WORKLOADS: List[str] = ["tpcc", "ycsb"]
ALL_WORKLOADS: List[str] = MICRO_WORKLOADS + MACRO_WORKLOADS

WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    "array": ArrayWorkload,
    "btree": BTreeWorkload,
    "hash": HashTableWorkload,
    "queue": QueueWorkload,
    "rbtree": RBTreeWorkload,
    "tpcc": TpccWorkload,
    "ycsb": YcsbWorkload,
}

def make_workload(name: str, num_data_lines: int,
                  operations: int = 2000, seed: int = 42,
                  **kwargs) -> Workload:
    """Instantiate a registered workload by name."""
    try:
        cls = WORKLOAD_CLASSES[name]
    except KeyError:
        raise ValueError(
            "unknown workload %r (choose from %s)"
            % (name, ", ".join(sorted(WORKLOAD_CLASSES)))
        ) from None
    return cls(num_data_lines, operations=operations, seed=seed, **kwargs)


def check_trace_fields(workload: object, operations: object,
                       seed: object) -> None:
    """The checks a :class:`TraceSpec` makes on the fields a lab spec
    shares with it; any bad value is a :class:`ConfigError`."""
    if not isinstance(workload, str) or workload not in WORKLOAD_CLASSES:
        raise ConfigError("unknown workload %r (choose from %s)"
                          % (workload, ", ".join(sorted(WORKLOAD_CLASSES))))
    require_int("operations", operations, 1)
    require_int("seed", seed)


@dataclass(frozen=True)
class TraceSpec:
    """One workload trace, checked when it is built.

    ``threads`` > 1 runs the benchmark as the paper does (§IV-A): the
    ``data_lines`` address space is split into one partition per thread,
    each holding an independent instance of the workload — instance
    ``t`` seeded ``seed + t`` and shifted by ``t * partition`` — and the
    instances' traces are interleaved in seeded random bursts of four
    ops. ``operations`` counts per thread.
    """

    workload: str
    data_lines: int
    operations: int
    seed: int = 42
    threads: int = 1

    def __post_init__(self) -> None:
        check_trace_fields(self.workload, self.operations, self.seed)
        require_int("data_lines", self.data_lines, 1)
        require_int("threads", self.threads, 1)
        partition = self.data_lines // self.threads
        if self.threads > 1 and partition < 64:
            raise ConfigError(
                "%d data lines leave %d per thread for %d threads "
                "(need at least 64)"
                % (self.data_lines, partition, self.threads)
            )

    def ops(self) -> Iterator[Op]:
        """The trace. Every workload instance is built before the first
        op is pulled, so a layout that does not fit its lines raises
        :class:`~repro.errors.AllocationError` here, not mid-run (the
        trees still allocate nodes as they grow)."""
        partition = self.data_lines // self.threads
        instances = [
            make_workload(self.workload, partition,
                          operations=self.operations,
                          seed=self.seed + thread)
            for thread in range(self.threads)
        ]
        if self.threads == 1:
            return instances[0].ops()
        return interleave_traces(
            [_shifted(instance.ops(), thread * partition)
             for thread, instance in enumerate(instances)],
            chunk=4, seed=self.seed,
        )


def _shifted(ops: Iterator[Op], base: int) -> Iterator[Op]:
    for op in ops:
        yield Op(op.kind, op.addr + base, op.instructions, op.persistent)
