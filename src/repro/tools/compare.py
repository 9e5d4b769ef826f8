"""``star-compare``: diff two ``star-bench --json`` result dumps.

Reproduction hygiene: before accepting a change that touches the
simulator, rerun the suite and compare against the archived baseline::

    star-bench --json before.json
    ...change...
    star-bench --json after.json
    star-compare before.json after.json --tolerance 0.02

Either side may also be a *lab store root* (see ``star-lab``): a
directory argument is opened as a :class:`repro.lab.store.ResultStore`
and every stored cell becomes one pseudo-experiment of flattened
metric/value rows, so two campaigns — or a campaign before/after a
simulator change — diff with the same machinery::

    star-compare .starlab-before .starlab-after
    star-compare .starlab@1f0c .starlab-other@1f0c   # spec-hash prefix

Exit status 0 means every shared numeric cell agrees within the
relative tolerance; 1 lists the drifted cells. New/removed experiments
or rows are reported but are not failures by themselves (use
``--strict`` to make them so). An input that is missing or is not a
result dump exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.tools import path_error


def _flatten(payload: dict, prefix: str = "") -> Dict[str, object]:
    """Nested payload dicts as dotted scalar keys (lists skipped)."""
    flat: Dict[str, object] = {}
    for key in sorted(payload):
        value = payload[key]
        name = "%s.%s" % (prefix, key) if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        elif isinstance(value, (int, float, str, bool)):
            flat[name] = value
    return flat


def _split_lab_ref(path: str) -> Optional[Tuple[str, str]]:
    """``(root, hash_prefix)`` if *path* names a lab store, else None."""
    root, _, prefix = path.partition("@")
    if os.path.isdir(root):
        return root, prefix
    return None


def load_lab_results(root: str, prefix: str = "") -> Dict[str, dict]:
    """Lab store cells as one pseudo-experiment per stored spec."""
    from repro.lab.store import ResultStore

    store = ResultStore.existing(root)
    results: Dict[str, dict] = {}
    for record in store.records(prefix):
        spec = record.spec
        name = "%s:%s/%s@%s #%s" % (
            spec.get("kind", "?"), spec.get("scheme", "?"),
            spec.get("workload", "?"), spec.get("seed", "?"),
            record.spec_hash[:12],
        )
        flat = _flatten(record.payload)
        results[name] = {
            "experiment": name,
            "columns": ["metric", "value"],
            "rows": [
                {"metric": metric, "value": value}
                for metric, value in sorted(flat.items())
            ],
        }
    return results


def load_results(path: str) -> Dict[str, dict]:
    lab_ref = _split_lab_ref(path)
    if lab_ref is not None:
        return load_lab_results(*lab_ref)
    with open(path) as handle:
        payload = json.load(handle)
    if not _is_result_dump(payload):
        raise ValueError("not a star-bench --json dump (a list of "
                         "experiment tables)")
    return {entry["experiment"]: entry for entry in payload}


def _is_result_dump(payload: object) -> bool:
    if not isinstance(payload, list):
        return False
    for entry in payload:
        if not (isinstance(entry, dict) and "experiment" in entry):
            return False
        rows = entry.get("rows", [])
        if not (isinstance(entry.get("columns", []), list)
                and isinstance(rows, list)
                and all(isinstance(row, dict) for row in rows)):
            return False
    return True


def _row_key(row: dict, columns: List[str]) -> str:
    return str(row.get(columns[0], "?")) if columns else "?"


def _numeric(value) -> Optional[float]:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare_results(before: Dict[str, dict], after: Dict[str, dict],
                    tolerance: float) -> Tuple[List[str], List[str]]:
    """Returns (drifts, structural notes)."""
    drifts: List[str] = []
    notes: List[str] = []
    for name in sorted(set(before) | set(after)):
        if name not in before:
            notes.append("experiment %s only in the new results" % name)
            continue
        if name not in after:
            notes.append("experiment %s disappeared" % name)
            continue
        old, new = before[name], after[name]
        columns = old.get("columns", [])
        old_rows = {
            _row_key(row, columns): row for row in old.get("rows", [])
        }
        new_rows = {
            _row_key(row, columns): row for row in new.get("rows", [])
        }
        for key in sorted(set(old_rows) | set(new_rows)):
            if key not in old_rows or key not in new_rows:
                notes.append("%s: row %r only on one side" % (name, key))
                continue
            for column in columns:
                old_value = _numeric(old_rows[key].get(column))
                new_value = _numeric(new_rows[key].get(column))
                if old_value is None or new_value is None:
                    continue
                scale = max(abs(old_value), abs(new_value), 1e-12)
                if abs(new_value - old_value) / scale > tolerance:
                    drifts.append(
                        "%s [%s] %s: %.6g -> %.6g"
                        % (name, key, column, old_value, new_value)
                    )
    return drifts, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="star-compare",
        description="Diff two star-bench --json result dumps or "
                    "star-lab store roots (PATH or PATH@HASHPREFIX).",
    )
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative tolerance (default 2%%)")
    parser.add_argument("--strict", action="store_true",
                        help="structural differences also fail")
    args = parser.parse_args(argv)

    path = args.before
    try:
        before = load_results(path)
        path = args.after
        after = load_results(path)
    except (ReproError, OSError, ValueError) as exc:
        return path_error("star-compare", path, exc)
    drifts, notes = compare_results(before, after, args.tolerance)
    for note in notes:
        print("note:", note)
    for drift in drifts:
        print("DRIFT:", drift)
    if not drifts and not (args.strict and notes):
        print("results agree within %.1f%% tolerance"
              % (args.tolerance * 100))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
