"""Correctness checks on the files a cell writes.

A cell run at its default seed must reproduce the digests recorded in
`reference.json`; a cell at any other seed must satisfy the row invariants
below. Both look only at the written CSV and JSON summary, so they check
what a user of `fedtruth run` would get.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List

TIMING_COLUMN = "agg_time_s"
TIMING_SUMMARY_KEY = "mean_aggregation_time_s"
WEIGHT_SUM_TOLERANCE = 1e-9


def masked_csv(data: bytes) -> bytes:
    """The CSV bytes with every field of the timing column emptied.

    No field the simulator writes contains a comma or a quote, so splitting
    lines on commas keeps every other byte as written.
    """
    lines = data.splitlines(keepends=True)
    column = lines[0].rstrip(b"\r\n").split(b",").index(
        TIMING_COLUMN.encode())
    out = [lines[0]]
    for line in lines[1:]:
        body = line.rstrip(b"\r\n")
        fields = body.split(b",")
        fields[column] = b""
        out.append(b",".join(fields) + line[len(body):])
    return b"".join(out)


def digests(csv_path: Path, summary_path: Path) -> Dict[str, str]:
    """SHA-256 of the masked CSV and of the summary without its timing."""
    summary = json.loads(summary_path.read_text())
    summary.pop(TIMING_SUMMARY_KEY, None)
    return {
        "csv": hashlib.sha256(masked_csv(csv_path.read_bytes())).hexdigest(),
        "summary": hashlib.sha256(
            json.dumps(summary, sort_keys=True).encode()).hexdigest(),
    }


def compare(got: Dict[str, str], expected: Dict[str, str],
            against: str) -> List[str]:
    return [f"{key} digest {got[key][:12]} differs from the {against} "
            f"({expected.get(key, 'missing')[:12]})"
            for key in ("csv", "summary") if got[key] != expected.get(key)]


def _number(text: str) -> float:
    """The field as a float; NaN when it does not parse."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _unit_interval(text: str) -> bool:
    return 0.0 <= _number(text) <= 1.0


def check_invariants(csv_path: Path, summary_path: Path, rounds: int,
                     iteration_cap: int) -> List[str]:
    """Row invariants that hold for any seed."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    if [r["round"] for r in rows] != [str(t) for t in range(rounds)]:
        problems.append(f"expected rounds 0..{rounds - 1}, got {len(rows)} "
                        "rows")
    for row in rows:
        where = f"round {row['round']}"
        if not _unit_interval(row["main_acc"]):
            problems.append(f"{where}: main_acc {row['main_acc']!r}")
        if row["backdoor_acc"] and not _unit_interval(row["backdoor_acc"]):
            problems.append(f"{where}: backdoor_acc {row['backdoor_acc']!r}")
        if row["iters"] and not 1 <= _number(row["iters"]) <= iteration_cap:
            problems.append(f"{where}: iters {row['iters']} outside "
                            f"[1, {iteration_cap}]")
        weights = [row[k] for k in row if k.startswith("weight_c")]
        if any(weights):
            values = [_number(w) for w in weights]
            total = math.fsum(values)
            if not all(math.isfinite(v) for v in values) \
                    or abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                problems.append(f"{where}: weights sum to {total!r}")
    summary = json.loads(summary_path.read_text())
    if rows and (summary.get("rounds") != len(rows)
                 or repr(summary.get("final_main_accuracy"))
                 != rows[-1]["main_acc"]):
        problems.append("summary does not match the last CSV row")
    return problems
