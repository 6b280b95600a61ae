"""The job descriptions of the public API: what to run, how to run it.

A sweep is described by two frozen, validated, JSON-serializable
values, keeping *what* runs apart from *how* it runs:

* :class:`SweepSpec` — the work item: one scenario, one seed list, one
  set of parameter overrides.  Hashable, order-normalized, and stable
  across a JSON round trip, so a spec can be a cache key, a queue
  manifest entry, or a line in a campaign file and always mean the same
  sweep.
* :class:`ExecutionProfile` — the machinery: workers, backend, chunk
  size, cache and work-queue settings.  Two sweeps with the same spec
  and different profiles produce bit-identical results (that is the
  equivalence suite's contract); the profile only changes how fast and
  where.

Both validate on construction via :func:`validate_execution`, the one
shared validator also used by the CLI, so contradictory option
combinations (``no_cache`` with an explicit
``cache_dir``, queue settings without the distributed backend, a
distributed run that nobody could ever execute) fail loudly at build
time instead of being silently reinterpreted mid-run.

:func:`load_campaign_manifest` parses the ``repro campaign`` file
format: a JSON object with a ``sweeps`` array (one spec payload each)
and an optional ``profile`` block.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

# NOTE: repro.simulation is imported lazily inside the functions that
# need it.  repro.simulation.sweep imports this module (its engine runs
# off SweepSpec/ExecutionProfile), so a module-level import here would
# be circular through repro.simulation.__init__.

Overrides = Tuple[Tuple[str, object], ...]

EXECUTION_BACKENDS = ("process", "distributed")
ON_ERROR_MODES = ("raise", "collect")


def validate_execution(
    workers: int = 1,
    backend: str = "process",
    chunk_size: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    queue_dir: Optional[Union[str, Path]] = None,
    lease_ttl: Optional[float] = None,
    max_attempts: Optional[int] = None,
    on_error: Optional[str] = None,
) -> None:
    """Reject contradictory or out-of-range execution options.

    The one validator behind :class:`ExecutionProfile` and the
    ``repro`` CLI, so every surface rejects the same combinations with
    the same messages:

    * a backend outside :data:`EXECUTION_BACKENDS`;
    * ``workers < 1`` for the process pool, ``workers < 0`` for the
      distributed backend;
    * ``chunk_size < 1``, ``max_attempts < 1``, or a ``lease_ttl`` that
      is not finite and positive (``json.loads`` reads a ``NaN``
      literal, and a NaN TTL would never let a dead lease be stolen);
    * an ``on_error`` outside :data:`ON_ERROR_MODES`;
    * ``queue_dir``/``lease_ttl`` with a non-distributed backend;
    * ``no_cache`` together with an explicit ``cache_dir`` (the old
      surfaces silently let ``no_cache`` win);
    * ``backend="distributed"`` with ``workers=0`` and no ``queue_dir``
      — no local daemons are spawned and no external ``repro worker``
      can ever join a private temp dir, so nobody but the coordinator
      could compute anything.
    """
    if backend not in EXECUTION_BACKENDS:
        raise ValueError(
            f"backend must be one of {EXECUTION_BACKENDS}, got {backend!r}"
        )
    # Type checks first, as ValueError: a manifest with "workers": "4"
    # must fail cleanly, not with a TypeError from a comparison below.
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if chunk_size is not None and (
        not isinstance(chunk_size, int) or isinstance(chunk_size, bool)
    ):
        raise ValueError(
            f"chunk_size must be an integer, got {chunk_size!r}"
        )
    if lease_ttl is not None and (
        isinstance(lease_ttl, bool)
        or not isinstance(lease_ttl, (int, float))
    ):
        raise ValueError(
            f"lease_ttl must be a number, got {lease_ttl!r}"
        )
    if not isinstance(no_cache, bool):
        raise ValueError(f"no_cache must be a boolean, got {no_cache!r}")
    if backend == "distributed":
        if workers < 0:
            raise ValueError(
                "workers must be >= 0 for the distributed backend"
            )
        if workers == 0 and queue_dir is None:
            raise ValueError(
                "distributed execution with workers=0 needs an explicit "
                "queue_dir: no local daemons are spawned and external "
                "`repro worker` daemons cannot join a private temp dir"
            )
    else:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_dir is not None or lease_ttl is not None:
            raise ValueError(
                "queue_dir/lease_ttl require backend='distributed'"
            )
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if lease_ttl is not None and not (
        math.isfinite(lease_ttl) and lease_ttl > 0
    ):
        raise ValueError(
            f"lease_ttl must be finite and positive, got {lease_ttl!r}"
        )
    if no_cache and cache_dir is not None:
        raise ValueError(
            "no_cache conflicts with an explicit cache_dir: drop one "
            "(no_cache disables all cache reads and writes)"
        )
    if max_attempts is not None:
        if not isinstance(max_attempts, int) or isinstance(
            max_attempts, bool
        ):
            raise ValueError(
                f"max_attempts must be an integer, got {max_attempts!r}"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
    if on_error is not None and on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )


def _normalized_overrides(overrides: object) -> Overrides:
    """Overrides as the canonical sorted tuple of hashable pairs.

    Accepts a mapping or an iterable of ``(name, value)`` pairs in any
    order; container values normalize exactly like scenario params do
    (list -> tuple, set -> sorted tuple), so a spec that took the JSON
    round trip compares equal to the one that was serialized.
    """
    from repro.simulation import registry

    if overrides is None:
        return ()
    pairs = (
        overrides.items() if isinstance(overrides, Mapping) else overrides
    )
    try:
        normalized = tuple(sorted(
            (str(name), registry.hashable_value(value))
            for name, value in pairs
        ))
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"overrides must be a mapping of parameter name to value: "
            f"{error}"
        ) from None
    names = [name for name, _ in normalized]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate override names: {sorted(names)}")
    return normalized


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, fully described: scenario, seeds, parameter overrides.

    Frozen and hashable; validated on construction (the scenario must be
    registered, the seeds non-empty integers, every override a known
    parameter of the scenario).  ``smoke=True`` applies the scenario's
    scaled-down smoke parameters before the overrides (the
    ``repro sweep --smoke`` scale).

    The JSON form (:meth:`to_payload` / :meth:`from_payload`) is stable:
    ``SweepSpec.from_json(spec.to_json()) == spec`` for every valid
    spec, which is what lets campaign manifests, queue manifests and
    sweep exports all carry the same description of the work.
    """

    scenario: str
    seeds: Tuple[int, ...]
    smoke: bool = False
    overrides: Overrides = ()

    def __init__(
        self,
        scenario: str,
        seeds: Sequence[int],
        smoke: bool = False,
        overrides: object = None,
    ) -> None:
        object.__setattr__(self, "scenario", str(scenario))
        if isinstance(seeds, (str, bytes)):
            # Iterating a string would silently turn "12" into (1, 2).
            raise ValueError("seeds must be a sequence of integers")
        try:
            seed_tuple = tuple(int(seed) for seed in seeds)
        except (TypeError, ValueError):
            raise ValueError("seeds must be a sequence of integers") from None
        object.__setattr__(self, "seeds", seed_tuple)
        object.__setattr__(self, "smoke", bool(smoke))
        object.__setattr__(
            self, "overrides", _normalized_overrides(overrides)
        )
        self._validate()

    def _validate(self) -> None:
        from repro.simulation import registry

        if not self.seeds:
            raise ValueError("need at least one seed")
        spec = registry.get(self.scenario)  # KeyError names the known set
        # Unknown override names fail here with the scenario's own
        # message; values are the caller's business (they surface at
        # run time exactly like direct ScenarioSpec.run overrides).
        spec.params(smoke=self.smoke, **dict(self.overrides))

    # -- registry plumbing ---------------------------------------------
    def registry_spec(self):
        """The registered :class:`~repro.simulation.registry.ScenarioSpec`
        this spec runs."""
        from repro.simulation import registry

        return registry.get(self.scenario)

    def params_key(self) -> Tuple[Tuple[str, object], ...]:
        """The effective parameters (defaults + smoke + overrides) as
        the sorted tuple every cache key and task file is derived from."""
        return self.registry_spec().params_key(
            smoke=self.smoke, **dict(self.overrides)
        )

    @property
    def kind(self) -> str:
        """``"rates"`` or ``"series"`` — the scenario's result shape."""
        return self.registry_spec().kind

    # -- serialization -------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-ready dict; inverse of :meth:`from_payload`."""
        return {
            "scenario": self.scenario,
            "seeds": list(self.seeds),
            "smoke": self.smoke,
            "overrides": {name: value for name, value in self.overrides},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SweepSpec":
        """Rebuild (and re-validate) a spec from its JSON form."""
        if not isinstance(payload, Mapping):
            raise ValueError("sweep spec payload must be a JSON object")
        unknown = set(payload) - {"scenario", "seeds", "smoke", "overrides"}
        if unknown:
            raise ValueError(
                f"unknown sweep spec field(s): {sorted(unknown)}"
            )
        if "scenario" not in payload or "seeds" not in payload:
            raise ValueError("sweep spec payload needs scenario and seeds")
        return cls(
            scenario=payload["scenario"],
            seeds=payload["seeds"],
            smoke=payload.get("smoke", False),
            overrides=payload.get("overrides") or {},
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_payload(json.loads(text))


@dataclass(frozen=True)
class ExecutionProfile:
    """How sweeps execute: pool, cache and work-queue settings.

    Result-neutral by contract — every profile produces bit-identical
    results for the same :class:`SweepSpec` (the equivalence suite
    asserts it).  Validated on construction by
    :func:`validate_execution`: contradictory combinations are errors.

    Cache semantics: ``no_cache=True`` disables the persistent result
    cache entirely;
    otherwise ``cache_dir`` names it, defaulting to
    ``$REPRO_CACHE_DIR`` / the XDG cache home when ``None``.
    """

    workers: int = 1
    backend: str = "process"
    chunk_size: Optional[int] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    queue_dir: Optional[str] = None
    lease_ttl: Optional[float] = None
    # Fault tolerance: the per-seed retry budget before a raising seed
    # is quarantined (None = DEFAULT_MAX_ATTEMPTS), and what a finished
    # sweep does about quarantined seeds — "raise" (SweepFailureError,
    # the process pool's historical raise-fast behavior) or "collect"
    # (report them in SweepResult.failed_seeds, the distributed
    # default: one poison seed must not wedge a fleet).  None resolves
    # per backend; see resolved_on_error().
    max_attempts: Optional[int] = None
    on_error: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("cache_dir", "queue_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                object.__setattr__(self, name, str(value))
        validate_execution(
            workers=self.workers,
            backend=self.backend,
            chunk_size=self.chunk_size,
            cache_dir=self.cache_dir,
            no_cache=self.no_cache,
            queue_dir=self.queue_dir,
            lease_ttl=self.lease_ttl,
            max_attempts=self.max_attempts,
            on_error=self.on_error,
        )

    @classmethod
    def _field_defaults(cls) -> Dict[str, object]:
        """``{field name: default}`` from the one field declaration —
        the single source for the payload round trip."""
        return {
            spec.name: spec.default for spec in dataclasses.fields(cls)
        }

    @property
    def distributed(self) -> bool:
        return self.backend == "distributed"

    def resolved_cache_dir(self) -> Optional[Path]:
        """The cache location this profile means (``None`` = disabled)."""
        from repro.simulation.cache import default_cache_dir

        if self.no_cache:
            return None
        if self.cache_dir is not None:
            return Path(self.cache_dir).expanduser()
        return default_cache_dir()

    def resolved_max_attempts(self) -> int:
        """The per-seed retry budget this profile means."""
        from repro.simulation.faults import DEFAULT_MAX_ATTEMPTS

        if self.max_attempts is not None:
            return self.max_attempts
        return DEFAULT_MAX_ATTEMPTS

    def resolved_on_error(self) -> str:
        """What happens to seeds that exhaust their retry budget.

        An explicit ``on_error`` wins.  Otherwise the backend decides:
        the distributed backend collects (a poison seed is quarantined
        and reported in ``failed_seeds`` — it must never wedge a
        fleet), while the process pool keeps its historical
        raise-fast behavior (the first seed exception propagates).
        """
        if self.on_error is not None:
            return self.on_error
        return "collect" if self.distributed else "raise"

    # -- serialization (campaign manifests) ----------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            name: getattr(self, name) for name in self._field_defaults()
        }

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, object]
    ) -> "ExecutionProfile":
        if not isinstance(payload, Mapping):
            raise ValueError("execution profile must be a JSON object")
        known = set(cls._field_defaults())
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown execution profile field(s): {sorted(unknown)}"
            )
        return cls(**{key: payload[key] for key in known if key in payload})


# ---------------------------------------------------------------------------
# campaign manifests (`repro campaign <manifest.json>`)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignManifest:
    """A parsed campaign file: the sweeps to run and how to run them."""

    specs: Tuple[SweepSpec, ...]
    profile: Optional[ExecutionProfile] = None
    name: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        return campaign_labels(self.specs)


def campaign_labels(specs: Sequence[SweepSpec]) -> Tuple[str, ...]:
    """One unique, filesystem-safe label per spec (scenario name,
    ``#2``/``#3``-suffixed on repeats), in submission order."""
    counts: Dict[str, int] = {}
    labels: List[str] = []
    for spec in specs:
        seen = counts.get(spec.scenario, 0) + 1
        counts[spec.scenario] = seen
        labels.append(
            spec.scenario if seen == 1 else f"{spec.scenario}#{seen}"
        )
    return tuple(labels)


def _spec_from_manifest_entry(entry: object, index: int) -> SweepSpec:
    if not isinstance(entry, Mapping):
        raise ValueError(f"sweeps[{index}] must be a JSON object")
    if "scenario" not in entry:
        raise ValueError(f"sweeps[{index}] needs a scenario name")
    entry = dict(entry)
    if "seeds" in entry and (
        "seed_count" in entry or "first_seed" in entry
    ):
        raise ValueError(
            f"sweeps[{index}]: give either seeds or "
            f"seed_count/first_seed, not both"
        )
    if "seeds" not in entry:
        count = entry.pop("seed_count", None)
        first = entry.pop("first_seed", 1)
        if count is None:
            raise ValueError(
                f"sweeps[{index}] needs seeds or seed_count"
            )
        from repro.simulation.sweep import seed_range

        entry["seeds"] = seed_range(int(count), first=int(first))
    try:
        return SweepSpec.from_payload(entry)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        raise ValueError(f"sweeps[{index}]: {message}") from None


def load_campaign_manifest(text: str) -> CampaignManifest:
    """Parse and validate a ``repro campaign`` manifest.

    Format::

        {
          "name": "nightly-regression",          # optional
          "profile": {"workers": 4, ...},        # optional ExecutionProfile
          "sweeps": [
            {"scenario": "fig7-mutuality", "seeds": [1, 2, 3],
             "smoke": true, "overrides": {"threshold": 0.4}},
            {"scenario": "fig15-environment", "seed_count": 8}
          ]
        }

    Every entry is a :class:`SweepSpec` payload; ``seed_count`` (with
    optional ``first_seed``) is accepted as shorthand for the canonical
    ``first..first+N-1`` seed range.
    """
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise ValueError(f"campaign manifest is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ValueError("campaign manifest must be a JSON object")
    unknown = set(payload) - {"name", "profile", "sweeps"}
    if unknown:
        raise ValueError(
            f"unknown campaign manifest field(s): {sorted(unknown)}"
        )
    sweeps = payload.get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        raise ValueError(
            "campaign manifest needs a non-empty 'sweeps' array"
        )
    specs = tuple(
        _spec_from_manifest_entry(entry, index)
        for index, entry in enumerate(sweeps)
    )
    profile = None
    if payload.get("profile") is not None:
        profile = ExecutionProfile.from_payload(payload["profile"])
    return CampaignManifest(
        specs=specs,
        profile=profile,
        name=str(payload.get("name", "")),
    )
