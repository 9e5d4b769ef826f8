"""The paper's bit-width budgets, as one queryable table.

Section III-B packs three quantities into fixed hardware fields:

* 56-bit encryption counters (eight per SIT node, Table I),
* a 64-bit MAC field per line, split into a 54-bit MAC (the truncation
  Morphable Counters showed is safe) and
* the 10 spare bits, which STAR reuses for the parent counter's LSBs
  (counter-MAC synergization).

Everything that validates a field against its budget — the frozen image
dataclasses, the runtime sanitizers (``repro.sim.sanitize``) and the
STAR002 lint rule (``repro.lint.rules.widths``) — goes through this
table, so a budget change is one edit.
"""

from __future__ import annotations

from repro.config import COUNTER_BITS, LSB_BITS, MAC_BITS, MAC_FIELD_BITS

FIELD_WIDTHS = {
    # field-name -> bit budget. Keys are the *attribute / keyword names*
    # used across the codebase, which is what both the sanitizer and the
    # static STAR002 rule key on.
    "counter": COUNTER_BITS,
    "counters": COUNTER_BITS,
    "parent_counter": COUNTER_BITS,
    "mac": MAC_BITS,
    "mac_field": MAC_FIELD_BITS,
    "lsbs": LSB_BITS,
}


def limit(field: str) -> int:
    """Exclusive upper bound for ``field`` (``2 ** width``).

    Raises ``KeyError`` for names not in the table — callers decide
    whether an unknown field is an error or simply unbudgeted.
    """
    return 1 << FIELD_WIDTHS[field]


def fits(field: str, value: int) -> bool:
    """Whether ``value`` fits the declared width of ``field``."""
    return 0 <= value < limit(field)


def check(field: str, value: int) -> None:
    """Raise ``ValueError`` when ``value`` overflows ``field``."""
    if not fits(field, value):
        raise ValueError(
            "%s=%d overflows its %d-bit budget"
            % (field, value, FIELD_WIDTHS[field])
        )
