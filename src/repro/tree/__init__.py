"""Integrity trees: SIT geometry/authentication and Merkle helpers."""

from repro.tree.geometry import NodeId, TreeGeometry
from repro.tree.merkle import fold_level, merkle_root
from repro.tree.node import (
    CachedNode,
    DataLineImage,
    NodeImage,
    pack_mac_field,
    unpack_mac_field,
)
from repro.tree.sit import SITAuthenticator

__all__ = [
    "CachedNode",
    "DataLineImage",
    "NodeId",
    "NodeImage",
    "SITAuthenticator",
    "TreeGeometry",
    "fold_level",
    "merkle_root",
    "pack_mac_field",
    "unpack_mac_field",
]
