"""Result export: JSON and CSV serialization of experiment outputs.

Benchmarks print human-readable artifacts; downstream analysis (plotting
the figures with real tooling, regression-tracking the reproduction)
wants machine-readable ones.  These helpers serialize the common result
shapes — dict-rows, labelled series, comparison reports — with stable
key ordering so exports diff cleanly across runs.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.report import ComparisonReport
from repro.analysis.series import LabelledSeries


def rows_to_json(rows: Sequence[Mapping[str, object]], indent: int = 2) -> str:
    """Serialize dict-rows as a JSON array (stable key order per row)."""
    normalized = [dict(row) for row in rows]
    return json.dumps(normalized, indent=indent, sort_keys=True)


def rows_to_csv(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Serialize dict-rows as CSV.

    ``columns`` fixes the column order; when omitted, the union of keys
    in first-seen order is used.  Missing cells serialize as empty.
    With explicit ``columns`` and no rows the header row alone is
    returned — the caller named a column contract, so the CSV honors
    it; only the fully-unspecified empty case serializes as ``""``.
    """
    if not rows and columns is None:
        return ""
    if columns is None:
        seen: Dict[str, None] = {}
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns),
                            extrasaction="ignore", restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(dict(row))
    return buffer.getvalue()


def series_to_json(series: Sequence[LabelledSeries], indent: int = 2) -> str:
    """Serialize curves as ``{label: [values...]}``.

    Labels must be unique: the mapping has one slot per label, so a
    duplicate would silently overwrite an earlier curve.  Raises
    ``ValueError`` naming the duplicates instead.
    """
    payload: Dict[str, Sequence[float]] = {}
    duplicates = []
    for curve in series:
        if curve.label in payload:
            duplicates.append(curve.label)
        payload[curve.label] = curve.values
    if duplicates:
        raise ValueError(
            f"duplicate series label(s) {sorted(set(duplicates))}: each "
            f"curve needs a unique label (the JSON form is one entry "
            f"per label)"
        )
    return json.dumps(payload, indent=indent, sort_keys=True)


def series_to_csv(series: Sequence[LabelledSeries]) -> str:
    """Serialize curves as columns: index, then one column per label.

    Shorter curves pad with empty cells.
    """
    if not series:
        return ""
    length = max(len(curve.values) for curve in series)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["index"] + [curve.label for curve in series])
    for index in range(length):
        row: List[object] = [index]
        for curve in series:
            row.append(
                curve.values[index] if index < len(curve.values) else ""
            )
        writer.writerow(row)
    return buffer.getvalue()


def report_to_json(report: ComparisonReport, indent: int = 2) -> str:
    """Serialize a paper-vs-measured report."""
    payload = {
        "experiment": report.experiment,
        "all_shapes_hold": report.all_shapes_hold,
        "comparisons": [c.as_row() for c in report.comparisons],
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def load_rows(text: str) -> List[Dict[str, object]]:
    """Inverse of :func:`rows_to_json`."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("expected a JSON array of row objects")
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError("every row must be a JSON object")
    return rows


# ---------------------------------------------------------------------------
# multi-seed sweeps (repro sweep / SweepResult)
# ---------------------------------------------------------------------------

_SWEEP_KEYS = (
    "scenario", "kind", "seeds", "timing", "mean", "per_seed", "variance",
)


def sweep_to_payload(sweep) -> Dict[str, object]:
    """A :class:`~repro.simulation.sweep.SweepResult` as a JSON-ready dict.

    Carries the per-seed results, the mean, the across-seed variance,
    the wall-clock timing of the run, the persistent-cache hit/miss
    accounting, and the :class:`repro.api.SweepSpec` payload that
    described the work — everything downstream regression tracking
    needs to compare a sweep against an earlier one and to re-submit
    the exact same job.
    """
    return {
        "scenario": sweep.scenario,
        # The job description (scenario/seeds/smoke/overrides); None on
        # results rebuilt from pre-spec artifacts.
        "spec": sweep.spec,
        "kind": sweep.kind,
        "seeds": list(sweep.seeds),
        "timing": {
            "wall_seconds": sweep.timing.wall_seconds,
            "seeds": sweep.timing.seeds,
            "workers": sweep.timing.workers,
            "backend": sweep.timing.backend,
            "chunk_size": sweep.timing.chunk_size,
        },
        "cache": {
            "enabled": sweep.cache_enabled,
            "hits": sweep.cache_hits,
            "misses": sweep.cache_misses,
            "errors": sweep.cache_errors,
        },
        # Work-queue accounting; all zero for the process pool.
        "distributed": {
            "tasks": sweep.tasks_total,
            "steals": sweep.steals,
            "requeues": sweep.requeues,
        },
        # Structured failure records of seeds that exhausted their
        # retry budget (empty on healthy sweeps); the seeds/per_seed
        # arrays cover only the seeds that succeeded.
        "failed_seeds": list(sweep.failed_seeds),
        # Per-seed compute wall times (seconds; telemetry for the cost
        # estimator) — a possibly-partial map, absent entirely in
        # pre-telemetry artifacts.
        "seed_runtimes": {
            str(seed): runtime
            for seed, runtime in sorted(sweep.seed_runtimes.items())
        },
        "mean": sweep.mean.to_payload(),
        "per_seed": [r.to_payload() for r in sweep.per_seed],
        "variance": (
            dict(sweep.variance) if isinstance(sweep.variance, Mapping)
            else list(sweep.variance)
        ),
    }


def sweep_to_json(sweep, indent: int = 2) -> str:
    """Serialize a sweep result; inverse of :func:`load_sweep`."""
    return json.dumps(sweep_to_payload(sweep), indent=indent, sort_keys=True)


def load_sweep(text: str) -> Dict[str, object]:
    """Parse and validate a sweep export written by :func:`sweep_to_json`.

    Returns the payload dict (the same shape :func:`sweep_to_payload`
    produces), so ``load_sweep(sweep_to_json(s)) == sweep_to_payload(s)``
    round-trips exactly — JSON float serialization is lossless.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    missing = [key for key in _SWEEP_KEYS if key not in payload]
    if missing:
        raise ValueError(f"sweep export missing keys: {missing}")
    if payload["kind"] not in ("rates", "series"):
        raise ValueError(f"bad sweep kind: {payload['kind']!r}")
    timing = payload["timing"]
    if not isinstance(timing, dict) or "wall_seconds" not in timing:
        raise ValueError("sweep timing must carry wall_seconds")
    # Exports written before the result cache existed have no cache
    # block; default it so old artifacts stay comparable.  Likewise the
    # error count and the distributed block, which arrived later.
    cache = payload.setdefault(
        "cache", {"enabled": False, "hits": 0, "misses": 0}
    )
    if not isinstance(cache, dict) or not {"hits", "misses"} <= set(cache):
        raise ValueError("sweep cache block must carry hits/misses")
    cache.setdefault("errors", 0)
    distributed = payload.setdefault(
        "distributed", {"tasks": 0, "steals": 0, "requeues": 0}
    )
    if not isinstance(distributed, dict) or not (
        {"tasks", "steals", "requeues"} <= set(distributed)
    ):
        raise ValueError(
            "sweep distributed block must carry tasks/steals/requeues"
        )
    # Exports written before the job API carry no spec payload; default
    # it so pre-spec artifacts stay loadable and comparable.
    spec = payload.setdefault("spec", None)
    if spec is not None and not isinstance(spec, dict):
        raise ValueError("sweep spec block must be an object or null")
    # Exports written before the fault-tolerance layer carry no failure
    # records; default to the healthy empty list.
    failed = payload.setdefault("failed_seeds", [])
    if not isinstance(failed, list):
        raise ValueError("sweep failed_seeds must be a JSON array")
    # Exports written before runtime telemetry carry no seed_runtimes
    # map; default to empty (the estimator falls back to priors).
    runtimes = payload.setdefault("seed_runtimes", {})
    if not isinstance(runtimes, dict):
        raise ValueError("sweep seed_runtimes must be a JSON object")
    if not isinstance(payload["per_seed"], list) or not isinstance(
        payload["seeds"], list
    ):
        raise ValueError("per_seed and seeds must be JSON arrays")
    if len(payload["per_seed"]) != len(payload["seeds"]):
        raise ValueError("per_seed results do not match the seed list")
    return payload
