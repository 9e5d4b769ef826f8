"""Workloads: persistent micro-benchmarks + WHISPER-style macros."""

from repro.workloads.alloc import PersistentHeap
from repro.workloads.array import ArrayWorkload
from repro.workloads.base import Workload
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload
from repro.workloads.capture import load_trace, save_trace
from repro.workloads.registry import (
    ALL_WORKLOADS,
    MACRO_WORKLOADS,
    MICRO_WORKLOADS,
    WORKLOAD_CLASSES,
    TraceSpec,
    make_workload,
)
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.trace import Op, OpKind, interleave_traces
from repro.workloads.ycsb import YcsbWorkload, ZipfianSampler

__all__ = [
    "ALL_WORKLOADS",
    "ArrayWorkload",
    "BTreeWorkload",
    "HashTableWorkload",
    "MACRO_WORKLOADS",
    "MICRO_WORKLOADS",
    "Op",
    "OpKind",
    "PersistentHeap",
    "QueueWorkload",
    "RBTreeWorkload",
    "TpccWorkload",
    "TraceSpec",
    "WORKLOAD_CLASSES",
    "Workload",
    "YcsbWorkload",
    "ZipfianSampler",
    "interleave_traces",
    "load_trace",
    "make_workload",
    "save_trace",
]
