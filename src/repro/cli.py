"""Command-line runner: regenerate any of the paper's artifacts.

Usage::

    python -m repro table1
    python -m repro fig7 --network facebook --seed 2
    python -m repro fig15 --json results.json
    python -m repro sweep fig7-mutuality --seeds 8 --workers 4 --json out.json
    python -m repro sweep --all-scenarios --seeds 8 --smoke
    python -m repro sweep fig15-environment --distributed --queue-dir /mnt/q
    python -m repro campaign manifest.json --out-dir exports
    python -m repro serve 127.0.0.1:8765 --workers 4
    python -m repro serve :8765 --distributed --queue-dir /mnt/q
    python -m repro worker /mnt/q --drain
    python -m repro queue status /mnt/q
    python -m repro queue requeue /mnt/q --seed 3
    python -m repro cache stats
    python -m repro sweep --list
    python -m repro list

Each artifact subcommand runs its experiment through the scenario
registry (:mod:`repro.simulation.registry`), the same specs and native
results the benches assert on, prints the table or ASCII chart, and
optionally writes a machine-readable JSON export; ``--seed`` seeds both
the generated network and the simulation.  ``sweep`` runs any
registered scenario once per seed — fanned out in seed batches over a
worker pool when ``--workers`` exceeds one, replaying seeds already
present in the persistent result cache, bit-identical to a cold
sequential run either way — and reports the seed-averaged result, the
across-seed variance, the wall-clock timing and the cache hit/miss
counts.  ``sweep --all-scenarios`` and ``campaign`` run many sweeps as
one campaign through the job API (:mod:`repro.api`), ``queue status``
reports a work queue's pending/leased/done state, lease ages, steal
history and quarantined seeds, and ``queue requeue`` releases
quarantined seeds for another round of attempts.  ``serve`` exposes
the whole job API over HTTP (:mod:`repro.service`): POST a spec or
manifest, poll the job id, fetch the export — same engine, same
bit-identical results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, Dict, List, Optional

from repro.analysis.ascii_chart import ascii_chart
from repro.analysis.export import rows_to_json, series_to_json
from repro.analysis.series import LabelledSeries
from repro.analysis.tables import render_table
from repro.simulation.distributed import DEFAULT_LEASE_TTL
from repro.socialnet.datasets import NETWORK_PROFILES

_NETWORKS = tuple(NETWORK_PROFILES)
# The Fig. 7 reverse-evaluation thresholds and the Figs. 9-11
# characteristic counts K, one registry run per value.
_THRESHOLDS = (0.0, 0.3, 0.6)
_CHARACTERISTIC_COUNTS = (4, 5, 6, 7)


def _networks_for(args: argparse.Namespace) -> List[str]:
    if args.network == "all":
        return list(_NETWORKS)
    return [args.network]


def _run_network(args: argparse.Namespace, scenario: str, network: str,
                 **overrides: object):
    """The native result of one registry run on ``network``; ``--seed``
    seeds both the generated network and the simulation."""
    from repro.simulation import registry

    return registry.get(scenario).run_full(
        args.seed, network=network, graph_seed=args.seed, **overrides
    )


def _emit(args: argparse.Namespace, text: str, payload: str) -> None:
    print(text)
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(payload + "\n")
        print(f"\n[json written to {args.json}]")


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.simulation import registry

    # Table 1 has no simulation: the seed drives the network generator.
    spec = registry.get("table1-connectivity")
    rows = [
        spec.run_full(args.seed, network=name).as_row()
        for name in _networks_for(args)
    ]
    _emit(args, render_table(rows, title="Table 1"), rows_to_json(rows))
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    rows = []
    for name in _networks_for(args):
        for theta in _THRESHOLDS:
            result = _run_network(args, "fig7-mutuality", name,
                                  threshold=theta)
            rows.append({
                "network": name,
                "theta": result.threshold,
                **result.rates.as_row(),
            })
    _emit(args, render_table(rows, title="Fig. 7 rates"), rows_to_json(rows))
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    rows = []
    for name in _networks_for(args):
        for count in _CHARACTERISTIC_COUNTS:
            # All three methods on one simulation per (network, K).
            results = _run_network(args, "fig12-overhead", name,
                                   num_characteristics=count)
            rows.extend(result.as_row() for result in results.values())
    _emit(
        args,
        render_table(rows, title="Figs. 9-11 transitivity sweep"),
        rows_to_json(rows),
    )
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = []
    for name in _networks_for(args):
        # All three methods on one property-based simulation per network.
        results = _run_network(args, "fig12-overhead", name,
                               property_based_tasks=True)
        rows.extend(result.as_row() for result in results.values())
    _emit(args, render_table(rows, title="Table 2"), rows_to_json(rows))
    return 0


def cmd_fig13(args: argparse.Namespace) -> int:
    curves = []
    for name in _networks_for(args):
        first, second = (
            _run_network(args, "fig13-delegation", name,
                         iterations=args.iterations, strategy=strategy)
            for strategy in ("first", "second")
        )
        curves.append(LabelledSeries(
            f"{name} (second strategy)", second.series.smoothed(50)
        ))
        curves.append(LabelledSeries(
            f"{name} (first strategy)", first.series.smoothed(50)
        ))
    _emit(
        args,
        ascii_chart(curves, title="Fig. 13 net profit"),
        series_to_json(curves),
    )
    return 0


def cmd_fig15(args: argparse.Namespace) -> int:
    from repro.simulation import registry
    from repro.simulation.config import EnvironmentConfig

    result = registry.get("fig15-environment").run_full(
        args.seed, runs=args.runs
    )
    curves = [
        LabelledSeries(series.label, series.values)
        for series in result.curves().values()
    ]
    errors = result.tracking_errors(EnvironmentConfig().actual_success_rate)
    text = ascii_chart(curves, title="Fig. 15 tracking") + (
        f"\nMAE: proposed {errors['proposed']:.3f}, "
        f"traditional {errors['traditional']:.3f}"
    )
    _emit(args, text, series_to_json(curves))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from repro.simulation import registry

    result = registry.get("fig8-inference").run_full(args.seed)
    curves = [
        LabelledSeries("With Proposed Model", result.with_model),
        LabelledSeries("Without Proposed Model", result.without_model),
    ]
    _emit(
        args,
        ascii_chart(curves, title="Fig. 8 % honest selected"),
        series_to_json(curves),
    )
    return 0


def cmd_fig14(args: argparse.Namespace) -> int:
    from repro.simulation import registry

    result = registry.get("fig14-activetime").run_full(args.seed)
    curves = [
        LabelledSeries("Without Proposed Model", result.without_model),
        LabelledSeries("With Proposed Model", result.with_model),
    ]
    _emit(
        args,
        ascii_chart(curves, title="Fig. 14 active time (ms)"),
        series_to_json(curves),
    )
    return 0


def cmd_fig16(args: argparse.Namespace) -> int:
    from repro.simulation import registry

    result = registry.get("fig16-light").run_full(args.seed)
    curves = [
        LabelledSeries("With Proposed Model", result.with_model),
        LabelledSeries("Without Proposed Model", result.without_model),
    ]
    _emit(
        args,
        ascii_chart(curves, title="Fig. 16 net profit"),
        series_to_json(curves),
    )
    return 0


def _profile_from_sweep_args(args: argparse.Namespace):
    """The :class:`ExecutionProfile` the ``sweep``/``serve`` flags describe.

    The profile validates itself, so a contradictory combination (e.g.
    ``--no-cache`` with ``--cache-dir``) raises ``ValueError`` here
    exactly as it would in a manifest or over HTTP.
    """
    from repro.api import ExecutionProfile

    return ExecutionProfile(
        workers=args.workers,
        backend="distributed" if args.distributed else "process",
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        queue_dir=args.queue_dir,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        on_error=args.on_error,
    )


def _sweep_text(sweep, profile, distributed: bool,
                queue_dir: Optional[str]) -> str:
    """The human-readable summary of one completed sweep."""
    lines = [f"sweep: {sweep.scenario} ({sweep.kind})"]
    if sweep.kind == "rates":
        for metric, value in sweep.mean.as_row().items():
            lines.append(
                f"  {metric:<12} mean {value:.4f}  "
                f"variance {sweep.variance[_RATE_KEYS[metric]]:.6f}"
            )
        lines.append(f"  total requests: {sweep.mean.total_requests}")
    else:
        values = sweep.mean.values
        lines.append(f"  series '{sweep.mean.label}': {len(values)} points")
        lines.append(
            f"  mean of means {sum(values) / len(values):.4f}, "
            f"max pointwise variance "
            f"{max(sweep.variance) if sweep.variance else 0.0:.6f}"
        )
    timing = sweep.timing
    lines.append(
        f"  {timing.seeds} seeds x {timing.workers} workers "
        f"({timing.backend}, chunks of {timing.chunk_size}): "
        f"{timing.wall_seconds:.2f}s "
        f"({timing.seeds_per_second():.1f} seeds/s)"
    )
    if sweep.cache_enabled:
        errors = (
            f", {sweep.cache_errors} error(s)" if sweep.cache_errors else ""
        )
        lines.append(
            f"  cache: {sweep.cache_hits} hit(s), "
            f"{sweep.cache_misses} miss(es){errors} "
            f"[{profile.resolved_cache_dir()}]"
        )
    if distributed:
        lines.append(
            f"  queue: {sweep.tasks_total} task(s), "
            f"{sweep.steals} steal(s), {sweep.requeues} requeue(s)"
            + (f" [{queue_dir}]" if queue_dir else "")
        )
    failed = sweep.failed_seeds
    if failed:
        lines.append(f"  failed: {len(failed)} seed(s) quarantined")
        for record in failed:
            lines.append(
                f"    seed {record.get('seed')}: "
                f"{record.get('error_type')} after "
                f"{record.get('attempts')} attempt(s): "
                f"{record.get('message')}"
            )
    return "\n".join(lines)


def _campaign_text(result, profile) -> str:
    """Per-sweep summary lines for a completed campaign."""
    lines = [f"campaign: {len(result.sweeps)} sweep(s)"]
    for label, sweep in zip(result.labels, result.sweeps):
        timing = sweep.timing
        cache = (
            f", cache {sweep.cache_hits}h/{sweep.cache_misses}m"
            if sweep.cache_enabled else ""
        )
        queue = (
            f", queue {sweep.tasks_total} task(s) {sweep.steals} steal(s)"
            if sweep.tasks_total else ""
        )
        failed = sweep.failed_seeds
        poison = f", {len(failed)} seed(s) failed" if failed else ""
        lines.append(
            f"  {label:<28} {sweep.kind:<6} {timing.seeds} seed(s) "
            f"{timing.wall_seconds:.2f}s ({timing.backend})"
            f"{cache}{queue}{poison}"
        )
    total = sum(sweep.timing.wall_seconds for sweep in result.sweeps)
    lines.append(f"  total wall clock: {total:.2f}s")
    return "\n".join(lines)


def _campaign_payload(result) -> str:
    from repro.analysis.export import sweep_to_payload

    payload = {
        label: sweep_to_payload(sweep)
        for label, sweep in zip(result.labels, result.sweeps)
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.export import sweep_to_json
    from repro.api import CampaignResult, SweepSpec, campaign_labels
    from repro.simulation import registry
    from repro.simulation.sweep import (
        SweepFailureError,
        execute_campaign,
        execute_sweep,
        seed_range,
    )

    if args.list or (args.scenario is None and not args.all_scenarios):
        print("registered scenarios:")
        for spec in registry.specs():
            print(f"  {spec.name:<22} {spec.description}")
        return 0

    if args.all_scenarios and args.scenario is not None:
        print("error: give a scenario or --all-scenarios, not both",
              file=sys.stderr)
        return 2

    if not args.distributed:
        for flag, value in (("--queue-dir", args.queue_dir),
                            ("--lease-ttl", args.lease_ttl)):
            if value is not None:
                print(f"error: {flag} requires --distributed",
                      file=sys.stderr)
                return 2

    try:
        profile = _profile_from_sweep_args(args)
        seeds = seed_range(args.seeds, first=args.first_seed)
        # The engine runs on the main thread (not through a Client
        # handle) so Ctrl-C aborts the pool instead of letting a
        # background thread finish the sweep at interpreter shutdown.
        if args.all_scenarios:
            specs = tuple(
                SweepSpec(name, seeds, smoke=args.smoke)
                for name in registry.names()
            )
            result = CampaignResult(
                specs=specs,
                labels=campaign_labels(specs),
                sweeps=tuple(execute_campaign(specs, profile)),
            )
            _emit(args, _campaign_text(result, profile),
                  _campaign_payload(result))
            return 0
        spec = SweepSpec(args.scenario, seeds, smoke=args.smoke)
        sweep = execute_sweep(spec, profile)
    except SweepFailureError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2

    _emit(args, _sweep_text(sweep, profile, args.distributed,
                            args.queue_dir),
          sweep_to_json(sweep))
    return 0


def _campaign_profile_overrides(args: argparse.Namespace, profile):
    """Apply ``repro campaign``'s execution flags over the manifest's
    profile.

    The manifest describes the campaign's default machinery; the flags
    let one invocation rent a different fleet (more workers, a shared
    queue dir) without editing the file.
    ``dataclasses.replace`` re-runs the profile's validation, so a
    contradictory combination fails exactly like it would in a
    manifest.
    """
    updates: Dict[str, object] = {}
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.distributed:
        updates["backend"] = "distributed"
    if args.queue_dir is not None:
        updates["queue_dir"] = args.queue_dir
    return dataclasses.replace(profile, **updates) if updates else profile


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a manifest of sweeps as one campaign; collect the exports."""
    from repro.api import (
        CampaignResult,
        ExecutionProfile,
        load_campaign_manifest,
    )
    from repro.simulation.sweep import execute_campaign

    try:
        text = open(args.manifest).read()
    except OSError as error:
        print(f"error: cannot read {args.manifest}: {error}",
              file=sys.stderr)
        return 2
    try:
        manifest = load_campaign_manifest(text)
        profile = manifest.profile or ExecutionProfile()
        profile = _campaign_profile_overrides(args, profile)
        # Main-thread execution (see cmd_sweep) so Ctrl-C aborts.
        result = CampaignResult(
            specs=manifest.specs,
            labels=manifest.labels,
            sweeps=tuple(execute_campaign(manifest.specs, profile)),
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2

    text_out = _campaign_text(result, profile)
    if manifest.name:
        text_out = f"campaign '{manifest.name}'\n" + text_out
    if args.out_dir:
        paths = result.write_exports(args.out_dir)
        text_out += (
            f"\n  exports: {len(paths)} file(s) under {args.out_dir}"
        )
    _emit(args, text_out, _campaign_payload(result))
    return 0


def cmd_queue(args: argparse.Namespace) -> int:
    """Work-queue observability plus quarantine maintenance."""
    from repro.simulation.distributed import queue_path_error, queue_status

    error = queue_path_error(args.queue_dir)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.action == "requeue":
        from repro.simulation.distributed import requeue_quarantined

        released = requeue_quarantined(args.queue_dir, seed=args.seed)
        total = sum(len(seeds) for seeds in released.values())
        lines = [
            f"queue: {args.queue_dir} — requeued {total} "
            f"quarantined seed(s)"
        ]
        for sweep_id, seeds in sorted(released.items()):
            lines.append(
                f"  {sweep_id}: seed(s) "
                f"{', '.join(str(seed) for seed in seeds)}"
            )
        if args.seed is not None and total == 0:
            lines.append(f"  seed {args.seed} is not quarantined")
        payload = json.dumps(released, indent=2, sort_keys=True)
        _emit(args, "\n".join(lines), payload)
        return 0

    statuses = queue_status(args.queue_dir)
    if not statuses:
        text = f"no sweeps under {args.queue_dir}"
        payload = json.dumps({"sweeps": []}, indent=2)
        _emit(args, text, payload)
        return 0
    lines = [f"queue: {args.queue_dir} ({len(statuses)} sweep(s))"]
    for status in statuses:
        state = "complete" if status.complete else "in progress"
        lines.append(
            f"  {status.sweep_id} [{status.scenario}] {state}: "
            f"{status.done}/{status.tasks} done, {status.pending} "
            f"pending, {len(status.leased)} leased"
        )
        if status.est_seconds_per_seed is not None:
            lines.append(
                f"    cost: ~{status.est_seconds_per_seed:.3f}s/seed, "
                f"~{status.est_remaining_seconds:.2f}s remaining"
            )
        for lease in status.leased:
            lines.append(
                f"    {lease.task_id} held by {lease.owner} "
                f"for {lease.age_seconds:.1f}s"
            )
        if status.steals or status.repairs:
            stolen = ", ".join(status.steal_events)
            lines.append(
                f"    history: {status.steals} steal(s)"
                + (f" [{stolen}]" if stolen else "")
                + f", {status.repairs} repair(s), "
                  f"{status.requeues} requeue(s)"
            )
        if status.quarantined:
            lines.append(
                f"    quarantine: {len(status.quarantined)} seed(s)"
            )
            for record in status.quarantined:
                lines.append(
                    f"      seed {record.seed} ({record.task_id}): "
                    f"{record.error_type} after {record.attempts} "
                    f"attempt(s): {record.message}"
                )
        if not status.version_match:
            lines.append(
                "    version skew: written by other code; workers on "
                "this version will skip it"
            )
    remaining = [
        status.est_remaining_seconds for status in statuses
        if status.est_remaining_seconds is not None
    ]
    if remaining:
        lines.append(
            f"  estimated remaining: ~{sum(remaining):.2f}s "
            f"across {len(remaining)} costed sweep(s)"
        )
    payload = json.dumps(
        {"sweeps": [status.to_payload() for status in statuses]},
        indent=2, sort_keys=True,
    )
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Long-running worker daemon draining a shared sweep queue dir."""
    from repro.fsproto import owner_id
    from repro.simulation.cache import default_cache_dir
    from repro.simulation.distributed import queue_path_error, worker_loop

    for flag, value in (("--lease-ttl", args.lease_ttl),
                        ("--poll", args.poll)):
        if not (math.isfinite(value) and value > 0):
            print(f"error: {flag} must be finite and positive, got {value}",
                  file=sys.stderr)
            return 2
    if args.max_tasks is not None and args.max_tasks < 1:
        print(f"error: --max-tasks must be at least 1, got {args.max_tasks}",
              file=sys.stderr)
        return 2
    error = queue_path_error(args.queue_dir)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or str(default_cache_dir())
    owner = args.worker_id or owner_id()
    mode = "drain" if args.drain else "daemon"
    stop = None
    if args.stop_file is not None:
        from pathlib import Path as _Path

        stop = _Path(args.stop_file).exists
    print(f"worker {owner} ({mode}) serving {args.queue_dir}")
    try:
        stats = worker_loop(
            args.queue_dir,
            cache_dir,
            owner=owner,
            poll=args.poll,
            lease_ttl=args.lease_ttl,
            drain=args.drain,
            max_tasks=args.max_tasks,
            stop=stop,
            _daemon=True,
        )
    except KeyboardInterrupt:
        print(f"worker {owner} interrupted")
        return 0
    print(
        f"worker {owner} done: {stats.tasks_done} task(s), "
        f"{stats.seeds_run} seed(s), {stats.cache_hits} hit(s), "
        f"{stats.cache_misses} miss(es), {stats.steals} steal(s), "
        f"{stats.repairs} repair(s), {stats.seed_failures} seed "
        f"failure(s), {stats.quarantined} quarantined"
    )
    return 0


def _parse_serve_addr(addr: str) -> tuple:
    """``HOST:PORT``, ``:PORT`` or bare ``PORT`` → ``(host, port)``.

    The host defaults to loopback; port 0 binds an ephemeral port
    (the server prints the real one).
    """
    host, sep, port_text = addr.rpartition(":")
    if not sep:
        host, port_text = "", addr
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid serve address {addr!r}: expected HOST:PORT "
            f"(e.g. 127.0.0.1:8765)"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"serve port must be 0-65535, got {port}")
    return host, port


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the job API over HTTP until interrupted."""
    from repro.service import JobServer

    try:
        host, port = _parse_serve_addr(args.addr)
        profile = _profile_from_sweep_args(args)
    except ValueError as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        server = JobServer(
            profile=profile, host=host, port=port,
            parallel_jobs=args.parallel_jobs, verbose=args.verbose,
            state_dir=args.state_dir,
        )
    except OSError as error:
        print(f"error: cannot bind {host}:{port}: {error}",
              file=sys.stderr)
        return 1
    bound_host, bound_port = server.address
    notes = []
    if profile.queue_dir:
        notes.append(f"queue dir {profile.queue_dir}")
    if args.state_dir:
        recovered = len(server.table.jobs())
        notes.append(
            f"state dir {args.state_dir}, {recovered} job(s) recovered"
        )
    queue_note = f" ({'; '.join(notes)})" if notes else ""
    print(f"serving http://{bound_host}:{bound_port}{queue_note}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("server interrupted")
    finally:
        server.close()
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Cache maintenance: size/version census and stale-version pruning."""
    import json as _json

    from repro.simulation.cache import (
        cache_usage,
        default_cache_dir,
        prune_stale,
    )

    root = args.cache_dir or str(default_cache_dir())
    if args.action == "stats":
        usage = cache_usage(root)
        lines = [
            f"cache: {usage.root}",
            f"  entries: {usage.entries} "
            f"({usage.total_bytes / 1024:.1f} KiB)",
            f"  current code version: {usage.current_version} "
            f"({usage.current_entries} entry/ies)",
            f"  stale entries: {usage.stale_entries}",
        ]
        for version, count in sorted(usage.versions.items()):
            marker = " (current)" if version == usage.current_version else ""
            lines.append(f"    {version}: {count}{marker}")
        payload = {
            "root": str(usage.root),
            "entries": usage.entries,
            "total_bytes": usage.total_bytes,
            "versions": usage.versions,
            "current_version": usage.current_version,
        }
    else:  # prune
        report = prune_stale(root, dry_run=args.dry_run)
        tag = " [dry run]" if report.dry_run else ""
        lines = [
            f"cache: {report.root}",
            f"  pruned {report.removed} stale entry/ies "
            f"({report.freed_bytes / 1024:.1f} KiB), kept "
            f"{report.kept}{tag}",
        ]
        payload = {
            "root": str(report.root),
            "examined": report.examined,
            "removed": report.removed,
            "freed_bytes": report.freed_bytes,
            "kept": report.kept,
            "dry_run": report.dry_run,
        }
    _emit(args, "\n".join(lines),
          _json.dumps(payload, indent=2, sort_keys=True))
    return 0


_RATE_KEYS = {
    "success": "success_rate",
    "unavailable": "unavailable_rate",
    "abuse": "abuse_rate",
}


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig9": cmd_fig9,
    "fig13": cmd_fig13,
    "fig14": cmd_fig14,
    "fig15": cmd_fig15,
    "fig16": cmd_fig16,
}


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    """The execution flags ``sweep`` and ``serve`` share; they feed
    :func:`_profile_from_sweep_args`."""
    parser.add_argument("--workers", type=int, default=1,
                        help="pool size, or with --distributed the local "
                             "worker daemons (0 = rely on external "
                             "`repro worker` daemons); 1 = sequential "
                             "(default)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps); "
                             "cached seeds are replayed, only missing "
                             "seeds are computed")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely (no reads, "
                             "no writes)")
    parser.add_argument("--distributed", action="store_true",
                        help="run over the shared-directory work queue "
                             "instead of an in-process pool")
    parser.add_argument("--queue-dir", metavar="DIR", default=None,
                        help="shared work-queue directory for "
                             "--distributed (default: a private temp "
                             "dir); point `repro worker` daemons at the "
                             "same path to join")
    parser.add_argument("--lease-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="heartbeat age after which a worker's task "
                             "lease may be stolen (default 30; must "
                             "exceed the slowest single-seed runtime)")
    parser.add_argument("--max-attempts", type=int, default=None,
                        metavar="N",
                        help="times a failing seed is retried (with "
                             "exponential backoff) before it is "
                             "quarantined (default 3)")
    parser.add_argument("--on-error", choices=("raise", "collect"),
                        default=None,
                        help="'raise' fails the sweep on the first "
                             "exhausted seed; 'collect' quarantines it, "
                             "finishes the rest and reports it under "
                             "failed_seeds (default: raise for pools, "
                             "collect for --distributed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of 'Clarifying Trust "
                    "in Social Internet of Things'.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available artifacts")
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, help=f"regenerate {name}")
        sub.add_argument(
            "--network", choices=_NETWORKS + ("all",), default="all",
            help="which network(s) to run on (where applicable)",
        )
        sub.add_argument("--seed", type=int, default=1,
                         help="simulation seed")
        sub.add_argument("--json", metavar="PATH", default=None,
                         help="also write a JSON export to PATH")
        if name == "fig13":
            sub.add_argument("--iterations", type=int, default=1500,
                             help="update iterations (paper: 3000)")
        if name == "fig15":
            sub.add_argument("--runs", type=int, default=100,
                             help="independent runs to average")

    sweep = subparsers.add_parser(
        "sweep",
        help="run a registered scenario over many seeds: chunked "
             "parallel fan-out plus a persistent result cache, "
             "bit-identical to a cold sequential run",
    )
    sweep.add_argument("scenario", nargs="?", default=None,
                       help="registered scenario name (see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list registered scenarios and exit")
    sweep.add_argument("--all-scenarios", action="store_true",
                       help="sweep every registered scenario as one "
                            "campaign (shared queue/fleet under "
                            "--distributed) instead of naming one")
    sweep.add_argument("--seeds", type=int, default=8,
                       help="number of seeds to run (default 8)")
    sweep.add_argument("--first-seed", type=int, default=1,
                       help="first seed of the range (default 1)")
    _add_profile_flags(sweep)
    sweep.add_argument("--smoke", action="store_true",
                       help="use the scenario's scaled-down smoke "
                            "parameters (CI-sized)")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="also write the sweep export to PATH")

    serve = subparsers.add_parser(
        "serve",
        help="serve the job API over HTTP: POST SweepSpec/manifest "
             "payloads, poll job status, fetch exports, cancel — one "
             "shared execution fleet behind the endpoint",
    )
    serve.add_argument("addr", metavar="ADDR",
                       help="bind address as HOST:PORT, :PORT or PORT "
                            "(port 0 picks an ephemeral port and "
                            "prints it)")
    serve.add_argument("--state-dir", metavar="DIR", default=None,
                       help="journal every job to DIR and recover the "
                            "job table from it on startup (restart-"
                            "durable; multiple servers sharing DIR "
                            "dispatch each job exactly once)")
    serve.add_argument("--parallel-jobs", type=int, default=None,
                       metavar="N",
                       help="jobs in flight at once; submissions beyond "
                            "this wait as 'queued' (default: the local "
                            "fleet size max(workers, 1) with "
                            "--distributed, whose jobs share the "
                            "resident fleet; 1 for pools)")
    _add_profile_flags(serve)
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    worker = subparsers.add_parser(
        "worker",
        help="long-running worker daemon: claim and execute seed-chunk "
             "tasks from a shared sweep queue directory",
    )
    worker.add_argument("queue_dir", metavar="QUEUE_DIR",
                        help="the shared work-queue directory to serve")
    worker.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persistent result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/sweeps)")
    worker.add_argument("--no-cache", action="store_true",
                        help="do not read or write the result cache; "
                             "results still reach the done markers")
    worker.add_argument("--drain", action="store_true",
                        help="exit once nothing is claimable instead of "
                             "polling forever")
    worker.add_argument("--poll", type=float, default=0.5,
                        metavar="SECONDS",
                        help="idle poll interval (default 0.5)")
    worker.add_argument("--lease-ttl", type=float,
                        default=DEFAULT_LEASE_TTL, metavar="SECONDS",
                        help="age after which another worker's lease "
                             "counts as dead and is stolen (default "
                             f"{DEFAULT_LEASE_TTL:g})")
    worker.add_argument("--max-tasks", type=int, default=None, metavar="N",
                        help="exit after completing N tasks")
    worker.add_argument("--worker-id", default=None, metavar="ID",
                        help="lease owner id (default: host:pid:token)")
    worker.add_argument("--stop-file", metavar="PATH", default=None,
                        help="exit gracefully (after the current task) "
                             "once PATH exists")

    cache = subparsers.add_parser(
        "cache",
        help="sweep result cache maintenance: stats and "
             "prune-by-code-version",
    )
    cache.add_argument("action", choices=("stats", "prune"),
                       help="'stats' reports size and per-code-version "
                            "entry counts; 'prune' removes entries from "
                            "other code versions")
    cache.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="cache location (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro/sweeps)")
    cache.add_argument("--dry-run", action="store_true",
                       help="report what prune would remove without "
                            "deleting anything")
    cache.add_argument("--json", metavar="PATH", default=None,
                       help="also write the report as JSON to PATH")

    campaign = subparsers.add_parser(
        "campaign",
        help="run a manifest of sweeps as one campaign and collect "
             "per-scenario exports (JSON manifest: sweeps[] of "
             "SweepSpec payloads + optional profile)",
    )
    campaign.add_argument("manifest", metavar="MANIFEST",
                          help="path to the campaign manifest JSON")
    campaign.add_argument("--out-dir", metavar="DIR", default=None,
                          help="write one standard sweep export per "
                               "sweep (<label>.json) under DIR")
    campaign.add_argument("--workers", type=int, default=None,
                          help="override the manifest profile's worker "
                               "count")
    campaign.add_argument("--distributed", action="store_true",
                          help="override the manifest profile to the "
                               "shared-work-queue backend")
    campaign.add_argument("--queue-dir", metavar="DIR", default=None,
                          help="override the manifest profile's queue "
                               "directory")
    campaign.add_argument("--json", metavar="PATH", default=None,
                          help="also write the combined "
                               "{label: sweep export} object to PATH")

    queue = subparsers.add_parser(
        "queue",
        help="work-queue observability (read-only)",
    )
    queue.add_argument("action", choices=("status", "requeue"),
                       help="'status' reports pending/leased/done per "
                            "sweep, lease owners and ages, the "
                            "steal/requeue history and quarantined "
                            "seeds; 'requeue' releases quarantined "
                            "seeds for a fresh round of attempts")
    queue.add_argument("queue_dir", metavar="QUEUE_DIR",
                       help="the shared work-queue directory to inspect")
    queue.add_argument("--seed", type=int, default=None, metavar="N",
                       help="requeue only this seed (default: every "
                            "quarantined seed)")
    queue.add_argument("--json", metavar="PATH", default=None,
                       help="also write the status report as JSON to PATH")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        print("available artifacts:")
        for name in sorted(_COMMANDS):
            print(f"  {name}")
        print("  sweep (multi-seed runner; `repro sweep --list`)")
        print("  campaign (manifest of sweeps over one worker fleet)")
        print("  serve (HTTP job service over the client API)")
        print("  worker (distributed sweep worker daemon)")
        print("  queue (work-queue status)")
        print("  cache (result cache stats / prune)")
        return 0
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "queue":
        return cmd_queue(args)
    if args.command == "cache":
        return cmd_cache(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
