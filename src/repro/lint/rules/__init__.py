"""The STAR00x rule set.

Each module holds one rule class; :func:`default_rules` builds the
registry the CLI and CI run with.
"""

from typing import List

from repro.lint.engine import Rule
from repro.lint.rules.atomic_publish import AtomicPublishRule
from repro.lint.rules.determinism import NondeterminismRule
from repro.lint.rules.fencing import LeaseFencingRule
from repro.lint.rules.hotpath import HotPathRosterRule
from repro.lint.rules.metrics import MetricCatalogRule
from repro.lint.rules.nvm_access import UncountedNvmAccessRule
from repro.lint.rules.widths import BitWidthOverflowRule

__all__ = [
    "AtomicPublishRule",
    "BitWidthOverflowRule",
    "HotPathRosterRule",
    "LeaseFencingRule",
    "MetricCatalogRule",
    "NondeterminismRule",
    "UncountedNvmAccessRule",
    "default_rules",
]


def default_rules() -> List[Rule]:
    return [
        UncountedNvmAccessRule(),
        BitWidthOverflowRule(),
        NondeterminismRule(),
        MetricCatalogRule(),
        HotPathRosterRule(),
        LeaseFencingRule(),
        AtomicPublishRule(),
    ]
