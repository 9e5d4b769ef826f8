"""Memory substrate: NVM device, caches, ADR, write queue, layout."""

from repro.mem.adr import AdrRegion
from repro.mem.cache import CacheLine, EvictionDeadlock, SetAssociativeCache
from repro.mem.hierarchy import CacheHierarchy, MemoryEvent
from repro.mem.layout import MemoryLayout, index_layer_counts
from repro.mem.nvm import NVM
from repro.mem.wearlevel import StartGapRemapper, WearLevelingNVM
from repro.mem.writequeue import WritePendingQueue

__all__ = [
    "AdrRegion",
    "CacheHierarchy",
    "CacheLine",
    "EvictionDeadlock",
    "MemoryEvent",
    "MemoryLayout",
    "NVM",
    "SetAssociativeCache",
    "StartGapRemapper",
    "WearLevelingNVM",
    "WritePendingQueue",
    "index_layer_counts",
]
