"""HTTP-level tests for the ``repro serve`` JSON API."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Client, ExecutionProfile, SweepSpec
from repro.service import JobServer
from repro.simulation import registry
from repro.simulation.distributed import WorkQueue
from repro.simulation.sweep import execute_sweep

SPEC = SweepSpec("fig7-mutuality", seeds=[1], smoke=True)


def _raw(server, method, path, payload=None, body=None):
    """One raw request; returns (status, parsed body) without raising."""
    data = body
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"{server.url}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait_done(server, job_id, timeout=60.0):
    record = server.table.get(job_id)
    assert record is not None and record.wait(timeout)
    return record


@pytest.fixture(scope="module")
def server():
    with JobServer(profile=ExecutionProfile(no_cache=True)) as srv:
        yield srv


class TestSubmitSweep:
    def test_bare_spec_payload(self, server):
        status, body = _raw(
            server, "POST", "/v1/sweeps", SPEC.to_payload()
        )
        assert status == 201
        assert body["kind"] == "sweep"
        assert body["state"] in ("queued", "running")
        assert body["spec"] == SPEC.to_payload()
        record = _wait_done(server, body["id"])
        assert record.state() == "done"

    def test_spec_with_profile_envelope(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "spec": SPEC.to_payload(),
            "profile": {"workers": 1, "no_cache": True},
        })
        assert status == 201
        _wait_done(server, body["id"])

    def test_result_matches_inprocess_engine(self, server):
        status, body = _raw(
            server, "POST", "/v1/sweeps", SPEC.to_payload()
        )
        record = _wait_done(server, body["id"])
        status, result = _raw(
            server, "GET", f"/v1/jobs/{body['id']}/result"
        )
        assert status == 200
        oracle = execute_sweep(SPEC, ExecutionProfile(no_cache=True))
        from repro.analysis.export import sweep_to_payload

        expected = sweep_to_payload(oracle)
        for volatile in ("timing", "seed_runtimes"):
            expected.pop(volatile)
            result.pop(volatile)
        assert result == expected


class TestValidation:
    def test_unknown_scenario_is_400_with_registry_message(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "scenario": "fig99-nope", "seeds": [1],
        })
        assert status == 400
        message = body["error"]["message"]
        assert "unknown scenario 'fig99-nope'" in message
        assert "fig7-mutuality" in message  # names the known set

    def test_unknown_override_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "scenario": "fig7-mutuality", "seeds": [1],
            "overrides": {"bogus_param": 1},
        })
        assert status == 400
        assert "bogus" in body["error"]["message"]

    @pytest.mark.parametrize(
        "profile, message",
        [({"workers": 0}, "workers"),
         ({"workers": 2, "backend": "thread"}, "backend must be one of"),
         ({"workers": 1, "backend": "distributed",
           "lease_ttl": float("nan")}, "lease_ttl")],
        ids=["zero-workers", "removed-thread-backend", "nan-lease-ttl"],
    )
    def test_bad_profile_is_400(self, server, profile, message):
        # json.dumps writes NaN as a bare literal, which json.loads
        # reads back: the server must still reject it.
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "spec": SPEC.to_payload(), "profile": profile,
        })
        assert status == 400
        assert message in body["error"]["message"]

    @pytest.mark.parametrize(
        "field",
        ["autoscale", "min_workers", "max_workers", "schedule", "compute",
         "chunk_size"],
    )
    def test_removed_fleet_sizing_field_is_400(self, server, field):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "spec": SPEC.to_payload(),
            "profile": {"workers": 2, "backend": "distributed", field: 1},
        })
        assert status == 400
        assert "unknown execution profile field" in body["error"]["message"]
        assert field in body["error"]["message"]

    def test_conflicting_profile_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "spec": SPEC.to_payload(),
            "profile": {"no_cache": True, "cache_dir": "/tmp/x"},
        })
        assert status == 400
        assert "no_cache" in body["error"]["message"]

    def test_invalid_json_body_is_400(self, server):
        status, body = _raw(
            server, "POST", "/v1/sweeps", body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_empty_body_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", body=b"")
        assert status == 400

    def test_non_object_body_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", payload=[1, 2])
        assert status == 400

    def test_unknown_envelope_field_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/sweeps", {
            "spec": SPEC.to_payload(), "sched": "asap",
        })
        assert status == 400
        assert "sched" in body["error"]["message"]

    def test_bad_manifest_is_400(self, server):
        status, body = _raw(server, "POST", "/v1/campaigns", {
            "sweeps": [],
        })
        assert status == 400
        assert "sweeps" in body["error"]["message"]


class TestJobEndpoints:
    def test_unknown_job_is_404(self, server):
        for path in ("/v1/jobs/job-424242",
                     "/v1/jobs/job-424242/result"):
            status, body = _raw(server, "GET", path)
            assert status == 404
            assert "job-424242" in body["error"]["message"]
        status, _ = _raw(server, "DELETE", "/v1/jobs/job-424242")
        assert status == 404

    def test_unknown_path_is_404(self, server):
        status, body = _raw(server, "GET", "/v2/jobs")
        assert status == 404
        status, body = _raw(server, "GET", "/v1/sweeps")
        assert status == 404

    def test_jobs_listing(self, server):
        _, body = _raw(server, "POST", "/v1/sweeps", SPEC.to_payload())
        _wait_done(server, body["id"])
        status, listing = _raw(server, "GET", "/v1/jobs")
        assert status == 200
        ids = [job["id"] for job in listing["jobs"]]
        assert body["id"] in ids
        assert ids == sorted(ids)

    def test_health_counts_jobs(self, server):
        status, body = _raw(server, "GET", "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert isinstance(body["jobs"], dict)

    def test_campaign_submit_and_result(self, server):
        manifest = {
            "name": "pair",
            "sweeps": [
                SPEC.to_payload(),
                {"scenario": "fig7-mutuality", "seed_count": 1,
                 "first_seed": 2, "smoke": True},
            ],
        }
        status, body = _raw(server, "POST", "/v1/campaigns", manifest)
        assert status == 201
        assert body["kind"] == "campaign"
        assert body["labels"] == ["fig7-mutuality", "fig7-mutuality#2"]
        assert body["name"] == "pair"
        _wait_done(server, body["id"])
        status, result = _raw(
            server, "GET", f"/v1/jobs/{body['id']}/result"
        )
        assert status == 200
        assert sorted(result) == ["fig7-mutuality", "fig7-mutuality#2"]
        assert result["fig7-mutuality#2"]["seeds"] == [2]


class TestResultStates:
    def test_result_before_done_is_409(self):
        """A queued job's result is a 409 naming the state."""
        gate = threading.Event()

        class _Handle:
            def result(self):
                gate.wait(10.0)
                raise RuntimeError("never resolves in this test")

            def cancel(self):
                return False

        class _Client:
            profile = ExecutionProfile()

            def submit(self, spec, profile=None):
                return _Handle()

        with JobServer(client=_Client()) as srv:
            _, blocker = _raw(
                srv, "POST", "/v1/sweeps", SPEC.to_payload()
            )
            _, queued = _raw(
                srv, "POST", "/v1/sweeps", SPEC.to_payload()
            )
            status, body = _raw(
                srv, "GET", f"/v1/jobs/{queued['id']}/result"
            )
            assert status == 409
            assert body["error"]["state"] == "queued"
            assert "still queued" in body["error"]["message"]
            gate.set()

    def test_cancelled_result_is_409_and_delete_is_honest(self):
        gate = threading.Event()
        started = []

        class _Handle:
            def result(self):
                started.append(True)
                gate.wait(10.0)
                return execute_sweep(
                    SPEC, ExecutionProfile(no_cache=True)
                )

            def cancel(self):
                return False

        class _Client:
            profile = ExecutionProfile()

            def submit(self, spec, profile=None):
                return _Handle()

        with JobServer(client=_Client()) as srv:
            _, blocker = _raw(
                srv, "POST", "/v1/sweeps", SPEC.to_payload()
            )
            _, victim = _raw(
                srv, "POST", "/v1/sweeps", SPEC.to_payload()
            )
            status, body = _raw(
                srv, "DELETE", f"/v1/jobs/{victim['id']}"
            )
            assert status == 200
            assert body == {
                "cancelled": True, "id": victim["id"],
                "state": "cancelled",
            }
            status, body = _raw(
                srv, "GET", f"/v1/jobs/{victim['id']}/result"
            )
            assert status == 409
            assert body["error"]["state"] == "cancelled"
            gate.set()
            _wait_done(srv, blocker["id"])
            # The victim never executed.
            assert len(started) == 1
            # Cancelling a finished job spares nothing.
            status, body = _raw(
                srv, "DELETE", f"/v1/jobs/{blocker['id']}"
            )
            assert status == 200
            assert body["cancelled"] is False

    def test_runtime_failure_is_500_with_error_body(self):
        with JobServer(profile=ExecutionProfile(no_cache=True)) as srv:
            spec = SweepSpec(
                "fig7-mutuality", seeds=[1], smoke=True,
                overrides={"threshold": "not-a-number"},
            )
            _, body = _raw(
                srv, "POST", "/v1/sweeps", spec.to_payload()
            )
            record = _wait_done(srv, body["id"])
            assert record.state() == "failed"
            status, job = _raw(srv, "GET", f"/v1/jobs/{body['id']}")
            assert status == 200
            assert job["state"] == "failed"
            assert job["error"]["message"]
            status, result = _raw(
                srv, "GET", f"/v1/jobs/{body['id']}/result"
            )
            assert status == 500
            assert result["error"]["state"] == "failed"

    def test_quarantined_seeds_ride_in_the_status_body(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKER_FAULT", "raise:2")
        profile = ExecutionProfile(
            no_cache=True, max_attempts=1, on_error="collect"
        )
        with JobServer(profile=profile) as srv:
            spec = SweepSpec("fig7-mutuality", seeds=[1, 2], smoke=True)
            _, body = _raw(
                srv, "POST", "/v1/sweeps", spec.to_payload()
            )
            record = _wait_done(srv, body["id"])
            assert record.state() == "done"
            _, job = _raw(srv, "GET", f"/v1/jobs/{body['id']}")
            assert [f["seed"] for f in job["failed_seeds"]] == [2]
            assert job["failed_seeds"][0]["error_type"] == (
                "InjectedFaultError"
            )
            _, result = _raw(
                srv, "GET", f"/v1/jobs/{body['id']}/result"
            )
            assert result["seeds"] == [1]
            assert [f["seed"] for f in result["failed_seeds"]] == [2]


class TestQueueEndpoint:
    def test_no_queue_dir_is_409(self, server):
        status, body = _raw(server, "GET", "/v1/queue")
        assert status == 409
        assert "queue_dir" in body["error"]["message"]

    def test_explicit_dir_reports_staged_queue(self, server, tmp_path):
        spec = registry.get("fig7-mutuality")
        WorkQueue.create(
            tmp_path / "q", "fig7-mutuality",
            spec.params_key(smoke=True), [1, 2], [[1], [2]],
        )
        status, body = _raw(
            server, "GET", f"/v1/queue?dir={tmp_path / 'q'}"
        )
        assert status == 200
        assert body["queue_dir"] == str(tmp_path / "q")
        assert len(body["sweeps"]) == 1
        assert body["sweeps"][0]["pending"] == 2

    def test_missing_explicit_dir_is_400(self, server, tmp_path):
        """Satellite: a bad ``?dir=`` is a structured 400 with the
        CLI's message shape, not a traceback 500."""
        status, body = _raw(
            server, "GET", f"/v1/queue?dir={tmp_path / 'nope'}"
        )
        assert status == 400
        assert "does not exist" in body["error"]["message"]
        assert str(tmp_path / "nope") in body["error"]["message"]

    def test_file_as_explicit_dir_is_400(self, server, tmp_path):
        target = tmp_path / "queue.txt"
        target.write_text("not a directory")
        status, body = _raw(server, "GET", f"/v1/queue?dir={target}")
        assert status == 400
        assert "is not a directory" in body["error"]["message"]

    def test_profile_queue_dir_is_the_default(self, tmp_path):
        profile = ExecutionProfile(
            backend="distributed", workers=1,
            queue_dir=str(tmp_path / "q"), no_cache=True,
        )
        with JobServer(profile=profile) as srv:
            status, body = _raw(srv, "GET", "/v1/queue")
            assert status == 200
            assert body["queue_dir"] == str(tmp_path / "q")
            assert body["sweeps"] == []


def _gated_server(**kwargs):
    """A server whose single job parks until the returned gate opens."""
    gate = threading.Event()

    class _Handle:
        def result(self):
            gate.wait(30.0)
            return execute_sweep(SPEC, ExecutionProfile(no_cache=True))

        def cancel(self):
            return False

    class _Client:
        profile = ExecutionProfile()

        def submit(self, spec, profile=None):
            return _Handle()

    return gate, JobServer(client=_Client(), **kwargs)


class TestLongPoll:
    def test_wait_zero_answers_immediately(self):
        gate, server = _gated_server()
        with server:
            _, body = _raw(server, "POST", "/v1/sweeps", SPEC.to_payload())
            started = time.monotonic()
            status, job = _raw(
                server, "GET", f"/v1/jobs/{body['id']}?wait=0"
            )
            elapsed = time.monotonic() - started
            assert status == 200
            assert job["state"] in ("queued", "running")
            assert elapsed < 1.0
            gate.set()

    def test_invalid_wait_is_400(self, server):
        _, body = _raw(server, "POST", "/v1/sweeps", SPEC.to_payload())
        job_id = body["id"]
        for raw, fragment in (
            ("abc", "number of seconds"),
            ("-1", "finite number"),
            ("nan", "finite number"),
            ("inf", "finite number"),
        ):
            status, error = _raw(
                server, "GET", f"/v1/jobs/{job_id}?wait={raw}"
            )
            assert status == 400, raw
            assert fragment in error["error"]["message"], raw
        _wait_done(server, job_id)

    def test_wait_above_the_cap_is_clamped(self):
        gate, server = _gated_server(max_poll_wait=0.2)
        with server:
            _, body = _raw(server, "POST", "/v1/sweeps", SPEC.to_payload())
            started = time.monotonic()
            status, job = _raw(
                server, "GET", f"/v1/jobs/{body['id']}?wait=30"
            )
            elapsed = time.monotonic() - started
            assert status == 200
            assert job["state"] in ("queued", "running")
            # The server parked ~max_poll_wait, nowhere near 30s.
            assert 0.1 <= elapsed < 5.0
            gate.set()

    def test_long_poll_returns_early_when_the_job_finishes(self):
        gate, server = _gated_server()
        with server:
            _, body = _raw(server, "POST", "/v1/sweeps", SPEC.to_payload())
            opener = threading.Timer(0.2, gate.set)
            opener.start()
            try:
                started = time.monotonic()
                status, job = _raw(
                    server, "GET", f"/v1/jobs/{body['id']}?wait=20"
                )
                elapsed = time.monotonic() - started
                assert status == 200
                assert job["state"] == "done"
                # Parked past the finish moment, answered well before
                # the requested 20s window elapsed.
                assert elapsed < 10.0
            finally:
                opener.cancel()


class TestRestartRecoveryOverHTTP:
    def test_restart_round_trip_is_bit_identical(self, tmp_path):
        """The tentpole acceptance: submit over HTTP, kill the server,
        restart on the same ``--state-dir``, and fetch the recovered
        result — identical to the in-process oracle."""
        state = tmp_path / "state"
        with JobServer(
            profile=ExecutionProfile(no_cache=True), state_dir=state
        ) as first:
            _, body = _raw(first, "POST", "/v1/sweeps", SPEC.to_payload())
            job_id = body["id"]
            _wait_done(first, job_id)

        with JobServer(
            profile=ExecutionProfile(no_cache=True), state_dir=state
        ) as second:
            status, listing = _raw(second, "GET", "/v1/jobs")
            assert status == 200
            assert [job["id"] for job in listing["jobs"]] == [job_id]
            assert listing["jobs"][0]["state"] == "done"
            status, result = _raw(
                second, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            oracle = execute_sweep(SPEC, ExecutionProfile(no_cache=True))
            from repro.analysis.export import sweep_to_payload

            expected = sweep_to_payload(oracle)
            for volatile in ("timing", "seed_runtimes"):
                expected.pop(volatile)
                result.pop(volatile)
            assert result == expected
            # Health names the state dir; id allocation resumed past
            # the recovered job.
            _, health = _raw(second, "GET", "/v1/health")
            assert health["state_dir"] == str(state)
            _, fresh = _raw(second, "POST", "/v1/sweeps", SPEC.to_payload())
            assert fresh["id"] == "job-000002"
            _wait_done(second, fresh["id"])
