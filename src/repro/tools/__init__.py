"""Command-line tools: ``star-run``, ``star-stats`` and ``star-trace``.

(The evaluation-reproduction CLI ``star-bench`` lives in
:mod:`repro.bench.cli`; ``star-stats`` pretty-prints a run's telemetry
— metrics, histograms, span tree, event log — from :mod:`repro.obs`.)
"""

import argparse
from typing import Callable


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
