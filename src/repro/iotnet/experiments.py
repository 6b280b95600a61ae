"""The three hardware experiments of the paper, on the simulated testbed.

* :class:`InferenceExperiment` — Fig. 8 (Section 5.4): inferential
  transfer of trust lets trustors recognize dishonest devices on a task
  they never delegated before.
* :class:`ActiveTimeExperiment` — Fig. 14 (Section 5.6): evaluating cost
  alongside gain exposes the fragment-packet attack that inflates
  interaction time.
* :class:`LightingExperiment` — Fig. 16 (Section 5.7): the dynamic-
  environment factor distinguishes normal devices performing poorly in
  the dark from malicious devices that only look good in the light.

Every experiment exchanges real frames over the simulated Z-Stack and
radio, and trustors report their selections to the coordinator, which
aggregates the published metric exactly as the paper's host computer did.

Selection logic runs sequentially (it draws from the experiment's own
RNG); only the frame exchanges are batched per round and flushed
through a :class:`~repro.iotnet.aio.SyncExchangeEngine`, which never
touches the experiment RNG, so deferring the flush is result-neutral
by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.inference import CharacteristicInferrer
from repro.core.task import Task
from repro.core.update import forget
from repro.iotnet.aio import ExchangeRequest, SyncExchangeEngine
from repro.iotnet.messages import FrameKind
from repro.iotnet.network import ExperimentalNetwork
from repro.iotnet.sensors import LightEnvironment, OpticalSensor


def _spawn(seed: int, *scope) -> random.Random:
    return random.Random(repr((seed,) + scope))


# ---------------------------------------------------------------------------
# Fig. 8 — inferential transfer of trust
# ---------------------------------------------------------------------------

@dataclass
class InferenceExperimentResult:
    """Percentage of trustors selecting honest trustees, per experiment."""

    with_model: List[float]
    without_model: List[float]

    def mean_with(self) -> float:
        return sum(self.with_model) / len(self.with_model)

    def mean_without(self) -> float:
        return sum(self.without_model) / len(self.without_model)


class InferenceExperiment:
    """Fig. 8: choose trustees for a two-characteristic task.

    Every trustor has previously delegated two single-characteristic
    tasks to each trustee of its group.  Dishonest trustees performed
    maliciously on one particular characteristic; honest trustees did
    well on both.  The requested task combines both characteristics.

    With the proposed model the trustworthiness of the new task is
    inferred with Eq. 4 from the per-characteristic history, so dishonest
    devices rank below honest ones.  Without the model the new task
    carries no history and the trustor picks blindly.
    """

    TASK_A = Task("previous-gps", characteristics=("gps",))
    TASK_B = Task("previous-image", characteristics=("image",))
    NEW_TASK = Task("traffic-monitoring", characteristics=("gps", "image"))
    BAD_CHARACTERISTIC = "image"

    def __init__(
        self,
        network: Optional[ExperimentalNetwork] = None,
        runs: int = 50,
        honest_trust: float = 0.9,
        malicious_trust: float = 0.25,
        estimate_noise: float = 0.35,
        seed: int = 0,
    ) -> None:
        self.network = network if network is not None else ExperimentalNetwork(seed=seed)
        self.runs = runs
        self.honest_trust = honest_trust
        self.malicious_trust = malicious_trust
        self.estimate_noise = estimate_noise
        self.seed = seed
        self.engine = SyncExchangeEngine(self.network.device)
        self.inferrer = CharacteristicInferrer()

    def _experience(
        self, honest: bool, rng: random.Random
    ) -> List[Tuple[Task, float]]:
        """(task, trust) history of one trustee, with per-run noise."""
        def noisy(base: float) -> float:
            return min(1.0, max(0.0, base + rng.uniform(
                -self.estimate_noise, self.estimate_noise
            )))

        trust_a = noisy(self.honest_trust)
        trust_b = noisy(
            self.honest_trust if honest else self.malicious_trust
        )
        return [(self.TASK_A, trust_a), (self.TASK_B, trust_b)]

    def run(self) -> InferenceExperimentResult:
        """Run all experiments; returns the two Fig. 8 series."""
        with_model: List[float] = []
        without_model: List[float] = []
        coordinator = self.network.coordinator

        for run_index in range(self.runs):
            rng = _spawn(self.seed, "inference", run_index)
            honest_with = 0
            honest_without = 0
            total = 0
            report_requests: List[ExchangeRequest] = []
            for group in self.network.groups:
                trustees = group.trustees
                histories = {
                    trustee.device_id: self._experience(
                        group.is_honest(trustee.device_id), rng
                    )
                    for trustee in trustees
                }
                for trustor in group.trustors:
                    total += 1
                    # With the proposed model: infer Eq. 4 per candidate.
                    scores = {
                        trustee.device_id: self.inferrer.infer(
                            self.NEW_TASK, histories[trustee.device_id]
                        ).value
                        for trustee in trustees
                    }
                    chosen_with = max(scores, key=lambda d: scores[d])
                    if self.network.is_honest_trustee(chosen_with):
                        honest_with += 1

                    # Without: a brand-new task has no usable history.
                    chosen_without = rng.choice(trustees).device_id
                    if self.network.is_honest_trustee(chosen_without):
                        honest_without += 1

                    # The trustor reports its selection to the coordinator
                    # (exercising the stack + radio as the hardware did).
                    report_requests.append(ExchangeRequest(
                        source=trustor.device_id,
                        destination=coordinator.device_id,
                        payload=f"{trustor.device_id}:selected={chosen_with}",
                        kind=FrameKind.REPORT,
                    ))
            self.engine.run_exchanges(report_requests)
            coordinator.receive_reports()
            with_model.append(100.0 * honest_with / total)
            without_model.append(100.0 * honest_without / total)
        return InferenceExperimentResult(with_model, without_model)


# ---------------------------------------------------------------------------
# Fig. 14 — active time under the fragment-packet attack
# ---------------------------------------------------------------------------

@dataclass
class ActiveTimeResult:
    """Average trustor active time (ms) per experiment index."""

    with_model: List[float]
    without_model: List[float]

    def tail_mean(self, series: List[float], count: int = 10) -> float:
        tail = series[-count:]
        return sum(tail) / len(tail)


class ActiveTimeExperiment:
    """Fig. 14: dishonest trustees fragment responses to inflate cost.

    Honest trustees answer a request with a normally-fragmented response;
    dishonest trustees split the same payload into tiny fragments, so the
    trustor's radio/stack stays active far longer.  Trustors selecting on
    gain alone keep preferring the dishonest devices (which offer a
    nominally higher gain); trustors evaluating gain *and* cost fold the
    measured active time into the expected cost (Eq. 22) and abandon the
    attackers within a few tasks.
    """

    def __init__(
        self,
        network: Optional[ExperimentalNetwork] = None,
        tasks_per_trustor: int = 50,
        payload_bytes: int = 400,
        honest_fragment_size: int = 64,
        attack_fragment_size: int = 4,
        honest_gain: float = 0.9,
        dishonest_gain: float = 1.0,
        cost_scale_ms: float = 600.0,
        beta_cost: float = 0.95,
        seed: int = 0,
    ) -> None:
        self.network = network if network is not None else ExperimentalNetwork(seed=seed)
        self.tasks_per_trustor = tasks_per_trustor
        self.payload = "x" * payload_bytes
        self.honest_fragment_size = honest_fragment_size
        self.attack_fragment_size = attack_fragment_size
        self.honest_gain = honest_gain
        self.dishonest_gain = dishonest_gain
        self.cost_scale_ms = cost_scale_ms
        self.beta_cost = beta_cost
        self.seed = seed
        self.engine = SyncExchangeEngine(self.network.device)

    def _fragment_size(self, trustee) -> int:
        return (
            self.honest_fragment_size
            if self.network.is_honest_trustee(trustee.device_id)
            else self.attack_fragment_size
        )

    def _run_policy(self, use_cost: bool) -> List[float]:
        """Average trustor active time per task index under one policy.

        Selections run first (they draw from the experiment RNG, which
        the engine never touches; no trustor appears twice in a round, so
        no selection reads a cost its own round wrote), then the round's
        request/response exchanges flush through the engine.  Each
        interaction's active time is the trustor accumulator *after*
        its response commit minus the value *before* its request commit
        — exactly the float the interleaved oracle computes.
        """
        gain_of = {
            trustee.device_id: (
                self.honest_gain
                if self.network.is_honest_trustee(trustee.device_id)
                else self.dishonest_gain
            )
            for trustee in self.network.trustees
        }
        expected_cost: Dict[Tuple[str, str], float] = {}
        series: List[float] = []

        for task_index in range(self.tasks_per_trustor):
            rng = _spawn(self.seed, "active-time", use_cost, task_index)
            planned: List[Tuple[object, object]] = []
            for group in self.network.groups:
                for trustor in group.trustors:
                    def score(trustee) -> float:
                        gain = gain_of[trustee.device_id]
                        if not use_cost:
                            return gain
                        cost = expected_cost.get(
                            (trustor.device_id, trustee.device_id), 0.0
                        )
                        return gain - cost

                    best_score = max(score(t) for t in group.trustees)
                    top = [
                        t for t in group.trustees
                        if score(t) >= best_score - 1e-9
                    ]
                    planned.append((trustor, rng.choice(top)))

            requests: List[ExchangeRequest] = []
            for trustor, trustee in planned:
                requests.append(ExchangeRequest(
                    source=trustor.device_id,
                    destination=trustee.device_id,
                    payload="request",
                    kind=FrameKind.REQUEST,
                ))
                requests.append(ExchangeRequest(
                    source=trustee.device_id,
                    destination=trustor.device_id,
                    payload=self.payload,
                    max_fragment_size=self._fragment_size(trustee),
                    kind=FrameKind.RESPONSE,
                ))
            reports = self.engine.run_exchanges(requests)

            active_samples: List[float] = []
            for index, (trustor, trustee) in enumerate(planned):
                request_report = reports[2 * index]
                response_report = reports[2 * index + 1]
                active_ms = (
                    response_report.receiver_total_after_ms
                    - request_report.sender_total_before_ms
                )
                active_samples.append(active_ms)
                key = (trustor.device_id, trustee.device_id)
                observed = active_ms / self.cost_scale_ms
                expected_cost[key] = forget(
                    expected_cost.get(key, 0.0), observed, self.beta_cost
                )
            series.append(sum(active_samples) / len(active_samples))
        return series

    def run(self) -> ActiveTimeResult:
        """Run both policies; returns the two Fig. 14 series."""
        self.network.reset_active_times()
        without = self._run_policy(use_cost=False)
        self.network.reset_active_times()
        with_model = self._run_policy(use_cost=True)
        return ActiveTimeResult(with_model=with_model, without_model=without)


# ---------------------------------------------------------------------------
# Fig. 16 — dynamic environment with optical sensors
# ---------------------------------------------------------------------------

@dataclass
class LightingResult:
    """Total realized net profit per experiment index, plus phase labels."""

    with_model: List[float]
    without_model: List[float]
    labels: List[str]

    def final_phase_mean(self, series: List[float]) -> float:
        """Mean profit over the final LIGHT phase."""
        indices = [i for i, label in enumerate(self.labels) if label == "LIGHT"]
        # final phase = trailing run of LIGHT labels
        tail: List[int] = []
        for index in reversed(indices):
            if tail and index != tail[-1] - 1:
                break
            tail.append(index)
        values = [series[i] for i in tail]
        return sum(values) / len(values)


class LightingExperiment:
    """Fig. 16: normal devices in the dark vs malicious late joiners.

    Normal trustees serve the whole schedule but their optical-sensor
    tasks degrade with ambient light.  Malicious trustees refuse requests
    until the final light period, then serve with intermittently bad
    quality — better than a normal device in the dark, worse than one in
    the light.

    Without the environment factor, the dark period destroys the normal
    devices' success-rate estimates, so trustors defect to the malicious
    devices when the light returns.  With the r(·) de-bias of Eq. 29 the
    estimates stay near the devices' intrinsic competence and the normal
    devices win the final light period.
    """

    def __init__(
        self,
        network: Optional[ExperimentalNetwork] = None,
        schedule: Optional[LightEnvironment] = None,
        sensor: OpticalSensor = OpticalSensor(),
        normal_competence: float = 0.9,
        malicious_competence: float = 0.6,
        gain_units: float = 100.0,
        damage_units: float = 30.0,
        cost_units: float = 10.0,
        beta: float = 0.85,
        seed: int = 0,
    ) -> None:
        self.network = network if network is not None else ExperimentalNetwork(seed=seed)
        self.schedule = schedule if schedule is not None else LightEnvironment()
        self.sensor = sensor
        self.normal_competence = normal_competence
        self.malicious_competence = malicious_competence
        self.gain_units = gain_units
        self.damage_units = damage_units
        self.cost_units = cost_units
        self.beta = beta
        self.seed = seed
        self.engine = SyncExchangeEngine(self.network.device)

    def _malicious_available(self, experiment_index: int) -> bool:
        """Malicious devices only accept during the final LIGHT phase."""
        labels = self.schedule.labels()
        final_start = len(labels)
        for index in range(len(labels) - 1, -1, -1):
            if labels[index] == "LIGHT":
                final_start = index
            else:
                break
        return experiment_index >= final_start

    def _success_probability(self, honest: bool, lux: float) -> float:
        if honest:
            return self.normal_competence * self.sensor.performance(lux)
        return self.malicious_competence

    def _run_policy(self, use_environment: bool) -> List[float]:
        expected_success: Dict[Tuple[str, str], float] = {}
        series: List[float] = []
        coordinator = self.network.coordinator

        for experiment_index in range(self.schedule.total_experiments):
            rng = _spawn(self.seed, "lighting", use_environment,
                         experiment_index)
            lux = self.schedule.lux_at(experiment_index)
            env_indicator = self.sensor.environment_indicator(lux)
            malicious_open = self._malicious_available(experiment_index)
            profit = 0.0
            report_requests: List[ExchangeRequest] = []

            for group in self.network.groups:
                available = [
                    t for t in group.trustees
                    if self.network.is_honest_trustee(t.device_id)
                    or malicious_open
                ]
                for trustor in group.trustors:
                    def estimate(trustee) -> float:
                        return expected_success.get(
                            (trustor.device_id, trustee.device_id), 1.0
                        )

                    best = max(estimate(t) for t in available)
                    top = [
                        t for t in available if estimate(t) >= best - 1e-9
                    ]
                    trustee = rng.choice(top)
                    honest = self.network.is_honest_trustee(trustee.device_id)

                    success = rng.random() < self._success_probability(
                        honest, lux
                    )
                    profit += (
                        (self.gain_units if success else -self.damage_units)
                        - self.cost_units
                    )

                    observed = 1.0 if success else 0.0
                    if use_environment:
                        # Eq. 29: de-bias by the environment indicator.  A
                        # single de-biased observation may exceed 1; the
                        # estimate is kept unclamped internally (it is a
                        # ranking score whose *expectation* is the
                        # intrinsic competence) — clamping each blend
                        # would truncate the upward spikes and bias the
                        # estimate far below the true competence.
                        observed = observed / env_indicator
                    key = (trustor.device_id, trustee.device_id)
                    expected_success[key] = forget(
                        expected_success.get(key, 1.0), observed, self.beta
                    )
                    # The trustor reports its selection over the radio,
                    # as the paper's host-computer log collection did.
                    report_requests.append(ExchangeRequest(
                        source=trustor.device_id,
                        destination=coordinator.device_id,
                        payload=(
                            f"{trustor.device_id}:"
                            f"selected={trustee.device_id}"
                        ),
                        kind=FrameKind.REPORT,
                    ))
            self.engine.run_exchanges(report_requests)
            coordinator.receive_reports()
            series.append(profit)
        return series

    def run(self) -> LightingResult:
        """Run both policies; returns the two Fig. 16 series."""
        return LightingResult(
            with_model=self._run_policy(use_environment=True),
            without_model=self._run_policy(use_environment=False),
            labels=self.schedule.labels(),
        )
