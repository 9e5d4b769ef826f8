"""Persistence schemes: the paper's four evaluated schemes plus Phoenix.

Every scheme is a :class:`PersistenceScheme` on the one secure memory
controller, so each runs through the fuzz oracle, the sanitizers and
the traffic audits:

* :class:`WriteBackScheme` — the WB baseline; no recovery.
* :class:`StrictPersistenceScheme` — eager branch write-through.
* :class:`AnubisScheme` — shadow-table, 2x writes.
* :class:`~repro.core.star.StarScheme` — the paper's contribution.
* :class:`PhoenixScheme` — concurrent work (Section II-E): Osiris-style
  counter probing for counter blocks, a shadow table for tree nodes.

Osiris and Triad-NVM themselves cannot recover an SGX integrity tree
(Section II-E), so the paper does not evaluate them; DESIGN.md's
"Argued, not tested" section records why.
"""

from repro.core.star import StarScheme
from repro.schemes.anubis import AnubisScheme, ShadowEntry
from repro.schemes.base import PersistenceScheme, RecoveryReport
from repro.schemes.phoenix import PhoenixScheme
from repro.schemes.strict import StrictPersistenceScheme
from repro.schemes.writeback import WriteBackScheme

SIT_SCHEMES = {
    "wb": WriteBackScheme,
    "strict": StrictPersistenceScheme,
    "anubis": AnubisScheme,
    "star": StarScheme,
    "phoenix": PhoenixScheme,
}
"""Name -> class for the paper's four evaluated schemes plus the
Phoenix concurrent-work baseline (Section II-E)."""


def make_scheme(name: str) -> PersistenceScheme:
    """Instantiate one of the paper's evaluated schemes by name."""
    try:
        return SIT_SCHEMES[name]()
    except KeyError:
        raise ValueError(
            "unknown scheme %r (choose from %s)"
            % (name, ", ".join(sorted(SIT_SCHEMES)))
        ) from None


__all__ = [
    "AnubisScheme",
    "PersistenceScheme",
    "PhoenixScheme",
    "RecoveryReport",
    "SIT_SCHEMES",
    "ShadowEntry",
    "StarScheme",
    "StrictPersistenceScheme",
    "WriteBackScheme",
    "make_scheme",
]
