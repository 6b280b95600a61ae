"""Metric arithmetic of the benchmark: percentiles, summaries, CPU and RSS.

Everything here is pure bookkeeping with no dependency on the program
under test, so the benchmark's own tests can pin it down exactly.
"""

from __future__ import annotations

import math
import os
import re
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

# Names and units as BENCHMARK.json allows them.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer would make it the single slowest sample in disguise.
TAIL_BEYOND = 10


def valid_name(name: str) -> bool:
    """A metric or workload name: a letter or digit first, then at most
    63 more letters, digits, ``_``, ``.`` or ``-``."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


def percentile_index(count: int, pct: float) -> int:
    """Zero-based nearest-rank index of the ``pct`` percentile."""
    if count < 1:
        raise ValueError("need at least one sample")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return max(0, math.ceil(pct / 100.0 * count) - 1)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie above the percentile."""
    return count - 1 - percentile_index(count, pct)


def min_samples(pct: float, beyond: int = TAIL_BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above ``pct``."""
    count = 1
    while samples_beyond(count, pct) < beyond:
        count += 1
    return count


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    return ordered[percentile_index(len(ordered), pct)]


@dataclass(frozen=True)
class Summary:
    """One metric's samples reduced to what the benchmark prints."""

    value: float
    median: float
    q1: float
    q3: float
    count: int

    def line(self, name: str, unit: str) -> str:
        return (
            f"{name:<22} {self.value:>12.4f} {unit:<8} "
            f"median {self.median:.4f}  q1 {self.q1:.4f}  "
            f"q3 {self.q3:.4f}  n={self.count}"
        )


def summarize(values: Sequence[float], value: Optional[float] = None) -> Summary:
    """Median and quartiles of ``values``; ``value`` defaults to the median.

    Quartiles follow ``statistics.quantiles(values, n=4)``; with fewer
    than two samples both quartiles are the lone sample.
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one sample")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return Summary(
        value=median if value is None else float(value),
        median=median, q1=q1, q3=q3, count=len(values),
    )


def tail_summary(
    values: Sequence[float], pct: float, beyond: int = TAIL_BEYOND,
) -> Summary:
    """The ``pct`` percentile of ``values``, refusing too few samples.

    Raises ``ValueError`` unless at least ``beyond`` samples lie above
    the percentile, so a run that measured too little fails loudly
    instead of reporting its slowest sample as a p90.
    """
    values = list(values)
    if not values or samples_beyond(len(values), pct) < beyond:
        raise ValueError(
            f"p{pct:g} needs {min_samples(pct, beyond)} samples "
            f"({beyond} beyond it), got {len(values)}"
        )
    return summarize(values, value=percentile(values, pct))


def error_rate(attempted: int, failed: int) -> float:
    """Failed, refused or wrong operations over attempted operations."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


# ---------------------------------------------------------------------------
# CPU and memory of this process and everything it started
# ---------------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def _usage_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def live_cpu_seconds(pid: int) -> float:
    """CPU of a running process plus the children it already reaped.

    Read from ``/proc/<pid>/stat`` (utime, stime, cutime, cstime), so a
    long-lived child such as a server is accounted for while it still
    runs, together with the workers it spawned and joined.
    """
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name is parenthesised and may hold spaces.
    fields = text[text.rindex(")") + 2:].split()
    utime, stime, cutime, cstime = (int(fields[i]) for i in range(11, 15))
    return (utime + stime + cutime + cstime) / _TICKS


def _rusage_cpu() -> float:
    return (
        _usage_seconds(resource.getrusage(resource.RUSAGE_SELF))
        + _usage_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
    )


class CpuMeter:
    """CPU seconds spent by this process and all its descendants.

    ``RUSAGE_CHILDREN`` covers every descendant that has been reaped,
    including grandchildren reaped by a reaped child.  Descendants still
    running at a reading (``live`` pids) are read from ``/proc``; a pid
    that was live at the start and reaped by the end is covered by
    ``RUSAGE_CHILDREN`` at the end, so its start reading is subtracted.
    """

    def __init__(self, live: Iterable[int] = ()) -> None:
        self._start_live = {pid: live_cpu_seconds(pid) for pid in live}
        self._start = _rusage_cpu()

    def elapsed(self, live: Iterable[int] = ()) -> float:
        """CPU seconds since construction; ``live`` are still running."""
        live = list(live)
        total = _rusage_cpu() - self._start
        for pid in live:
            total += live_cpu_seconds(pid) - self._start_live.get(pid, 0.0)
        for pid, start in self._start_live.items():
            if pid not in live:
                total -= start
        return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped
    descendant, in MiB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def metric_json(summaries: Dict[str, Summary], units: Dict[str, str]) -> dict:
    """``{"name": {"value": v, "unit": u}}`` for the result line."""
    return {
        name: {"value": summaries[name].value, "unit": units[name]}
        for name in summaries
    }
