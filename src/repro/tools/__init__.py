"""Command-line tools: ``star-run``, ``star-stats`` and ``star-trace``.

(The evaluation-reproduction CLI ``star-bench`` lives in
:mod:`repro.bench.cli`; ``star-stats`` pretty-prints a run's telemetry
— metrics, histograms, span tree, event log — from :mod:`repro.obs`.)
The argument and path checks below are shared by the ``star-*`` CLIs.
"""

import argparse
import os
import sys
from typing import Callable, Optional, Union


def int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` for integers no smaller than ``minimum``.

    A size or count out of range fails at parse time with a usage
    message (exit 2) instead of a traceback deep in the simulator.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid int value: %r" % text
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (minimum, value)
            )
        return value

    return parse


def path_error(prog: str, path: str,
               reason: Union[str, Exception]) -> int:
    """Report an unusable input or output path as one stderr line,
    ``PROG: PATH: reason``; returns the usage-error exit status 2.

    Tools call this before doing any work, so a typo in a path is told
    apart from a failed run (exit 1) without a traceback.
    """
    if isinstance(reason, OSError) and reason.strerror:
        reason = reason.strerror
    text = str(reason)
    head, sep, rest = text.partition(": ")
    if sep and head and path.startswith(head):
        text = rest  # the message already names the path
    print("%s: %s: %s" % (prog, path, text), file=sys.stderr)
    return 2


def output_error(prog: str, *paths: Optional[str]) -> int:
    """:func:`path_error` for the first output path that cannot be
    written (a missing directory, or a directory itself), else 0.
    ``None`` stands for an output option left unset."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            return path_error(prog, path,
                              "no such directory: %s" % directory)
        if os.path.isdir(path):
            return path_error(prog, path, "is a directory")
    return 0
