"""Trace capture and replay.

Workloads are deterministic generators, but research workflows often
want the *same byte-identical trace* across machines, schemes and
library versions — e.g. to archive the exact input of a published
number. This module serializes traces to a line-oriented text format
(one op per line, ``#`` comments allowed)::

    # kind addr instructions [persistent]
    R 4096 120
    W 4097 85 p
    W 4098 85 s
    P 0 10

``R``/``W``/``P`` are read/write/persist; writes carry ``p``
(persistent, clwb-style) or ``s`` (scratch). Files ending in ``.gz``
are transparently compressed.

Malformed input raises :class:`~repro.errors.TraceFormatError` (a
``ValueError`` subclass) carrying the line number and source file, so
replay tools — and the fuzzer's corpus loader — can report exactly
which trace line is broken instead of surfacing a bare unpacking error.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.errors import TraceFormatError
from repro.workloads.trace import Op, OpKind

_KIND_TO_CODE = {
    OpKind.READ: "R",
    OpKind.WRITE: "W",
    OpKind.PERSIST: "P",
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def format_op(op: Op) -> str:
    """One op as one trace-file line."""
    code = _KIND_TO_CODE[op.kind]
    line = "%s %d %d" % (code, op.addr, op.instructions)
    if op.kind is OpKind.WRITE:
        line += " p" if op.persistent else " s"
    return line


def _int_field(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise TraceFormatError(
            "%s is not an integer: %r" % (what, text)
        ) from None
    if value < 0:
        raise TraceFormatError("%s must be non-negative: %r" % (what, text))
    return value


def parse_op(line: str) -> Op:
    """Inverse of :func:`format_op`; raises :class:`TraceFormatError`."""
    parts = line.split()
    if not 3 <= len(parts) <= 4:
        raise TraceFormatError("malformed trace line: %r" % line)
    code = parts[0].upper()
    if code not in _CODE_TO_KIND:
        raise TraceFormatError("unknown op code %r" % parts[0])
    kind = _CODE_TO_KIND[code]
    addr = _int_field(parts[1], "address")
    instructions = _int_field(parts[2], "instruction gap")
    persistent = True
    if kind is OpKind.WRITE:
        if len(parts) == 4:
            flag = parts[3].lower()
            if flag not in ("p", "s"):
                raise TraceFormatError("bad write flag %r" % parts[3])
            persistent = flag == "p"
    elif len(parts) == 4:
        raise TraceFormatError("only writes carry a persistence flag")
    return Op(kind, addr, instructions, persistent)


def save_trace(ops: Iterable[Op], path: PathLike,
               header: str = "") -> int:
    """Write a trace file; returns the number of ops written.

    The ops stream into a scratch directory next to ``path`` and the
    file moves into place only once the last op is written, so an
    exception from ``ops`` (a workload running out of address space)
    leaves no partial file. (Same file name, so the same compression
    and the same name in a gzip header.)
    """
    path = Path(path)
    count = 0
    with tempfile.TemporaryDirectory(prefix=".tmp-",
                                     dir=path.parent) as scratch:
        tmp = Path(scratch) / path.name
        with _open(tmp, "w") as handle:
            if header:
                for line in header.splitlines():
                    handle.write("# %s\n" % line)
            for op in ops:
                handle.write(format_op(op) + "\n")
                count += 1
        os.replace(tmp, path)
    return count


def load_trace(path: PathLike) -> Iterator[Op]:
    """Stream ops back from a trace file."""
    with _open(path, "r") as handle:
        yield from read_trace(handle, source=str(path))


def read_trace(handle: io.TextIOBase, source: str = "") -> Iterator[Op]:
    """Parse ops from an open text stream.

    Parse failures re-raise as :class:`TraceFormatError` annotated with
    the 1-based line number (and ``source``, when given).
    """
    for number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield parse_op(line)
        except TraceFormatError as exc:
            raise TraceFormatError(
                str(exc), line_number=number, source=source
            ) from None
