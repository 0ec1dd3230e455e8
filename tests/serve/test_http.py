"""HTTP contract tests against a workers=0 server (nothing executes).

With zero workers every submitted job stays ``queued``, so these tests
exercise the full HTTP surface — routing, status codes, validation errors,
cancel-while-queued, the 409 result gate — without ever paying for a solve
subprocess.  The end-to-end behaviour with real workers lives in
``test_service.py``.
"""

import pytest

from repro.serve import ServeClient, ServeThread, ServiceError


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with ServeThread(str(tmp_path_factory.mktemp("serve")), workers=0) as app:
        yield ServeClient(port=app.port, timeout=30)


class TestEndpoints:
    def test_healthz(self, service):
        payload = service.healthz()
        assert payload["status"] == "ok"
        assert payload["workers"] == 0

    def test_stats_shape(self, service):
        payload = service.stats()
        assert set(payload) >= {"workers", "workers_busy", "queue_depth", "jobs",
                                "jobs_completed", "uptime"}
        assert payload["workers"] == 0

    def test_submit_returns_queued_record(self, service):
        record = service.submit(problem="zdt1", generations=3)
        assert record["state"] == "queued"
        assert record["spec"]["problem"] == "zdt1"
        assert service.job(record["id"])["state"] == "queued"

    def test_jobs_listing_is_in_submission_order(self, service):
        first = service.submit(problem="zdt1")
        second = service.submit(problem="schaffer")
        listed = [job["id"] for job in service.jobs()]
        assert listed.index(first["id"]) < listed.index(second["id"])

    def test_cancel_queued_job(self, service):
        record = service.submit(problem="zdt1")
        cancelled = service.cancel(record["id"])
        assert cancelled["state"] == "cancelled"
        # idempotent: a second cancel returns the same terminal record
        assert service.cancel(record["id"])["state"] == "cancelled"

    def test_result_is_409_until_done(self, service):
        record = service.submit(problem="zdt1")
        with pytest.raises(ServiceError) as excinfo:
            service.result(record["id"])
        assert excinfo.value.status == 409

    def test_events_replay_for_terminal_job_ends_immediately(self, service):
        record = service.submit(problem="zdt1")
        service.cancel(record["id"])
        events = list(service.stream(record["id"]))
        assert events[0]["type"] == "state"
        assert events[-1]["state"] == "cancelled"


class TestErrorMapping:
    def test_unknown_job_is_404(self, service):
        for call in (service.job, service.result, service.cancel):
            with pytest.raises(ServiceError) as excinfo:
                call("000999-nope")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_problem_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="no-such-problem")
        assert excinfo.value.status == 400

    def test_unknown_algorithm_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", algorithm="no-such-solver")
        assert excinfo.value.status == 400

    def test_unknown_spec_field_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", pop_size=10)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", "abc"),
            ("population", [1]),
            # Fields that used to be accepted and then fail in the runner, or
            # be truncated on the way in.
            ("max_evaluations", 0),
            ("max_evaluations", -5),
            ("population", 0),
            ("population", -3),
            ("population", 1),
            ("seed", -1),
            ("seed", 1.7),
            ("generations", True),
            ("telemetry", 2),
            ("wall_clock", float("nan")),
            ("wall_clock", float("inf")),
            ("hv_tolerance", float("nan")),
        ],
    )
    def test_uncoercible_spec_field_is_400(self, service, field, value):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", **{field: value})
        assert excinfo.value.status == 400
        assert field in str(excinfo.value)

    def test_invalid_robustness_trials_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="photosynthesis-robust?robustness_trials=0")
        assert excinfo.value.status == 400
        assert "global_trials" in str(excinfo.value)

    def test_unknown_violation_norm_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="geobacter?violation_norm=bogus")
        assert excinfo.value.status == 400
        assert "violation_norm" in str(excinfo.value)

    def test_non_finite_box_is_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="schaffer?bound=inf")
        assert excinfo.value.status == 400
        assert "non-finite bounds on x" in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec, limit",
        [
            ({"population": 10_002}, "MAX_POPULATION"),
            ({"algorithm": "pmo2", "population": 100, "generations": 50_000}, "MAX_BUDGET_ROWS"),
        ],
        ids=["population", "row-budget"],
    )
    def test_budget_above_the_cap_is_400(self, service, spec, limit):
        with pytest.raises(ServiceError) as excinfo:
            service.submit(problem="zdt1", **spec)
        assert excinfo.value.status == 400
        assert limit in str(excinfo.value)

    def test_string_boolean_is_stored_as_boolean(self, service):
        record = service.submit(problem="zdt1", telemetry="false")
        assert record["spec"]["telemetry"] is False
        assert service.job(record["id"])["spec"]["telemetry"] is False

    def test_invalid_json_body_is_400(self, service):
        import http.client

        connection = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            connection.request("POST", "/jobs", body=b"{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_stream_of_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            list(service.stream("000999-nope"))
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "content_length, status",
        [("abc", 400), ("-5", 400), (str((1 << 20) + 1), 413)],
    )
    def test_bad_content_length_is_refused(self, service, content_length, status):
        import socket

        head = "POST /jobs HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % content_length
        with socket.create_connection((service.host, service.port), timeout=10) as sock:
            sock.sendall(head.encode("latin-1"))
            status_line = sock.makefile("rb").readline().decode("latin-1")
        assert status_line.split()[1] == str(status)


class TestReadDeadline:
    @pytest.mark.parametrize("sent", [b"", b"GET /heal"], ids=["idle", "partial"])
    def test_unfinished_request_is_closed_at_the_deadline(self, service, monkeypatch, sent):
        import socket
        import time

        from repro.serve import http

        monkeypatch.setattr(http, "_READ_DEADLINE", 0.3)
        with socket.create_connection((service.host, service.port), timeout=10) as sock:
            sock.sendall(sent)
            assert service.healthz()["status"] == "ok"  # served meanwhile
            started = time.monotonic()
            assert sock.recv(1) == b""
        assert time.monotonic() - started < 5


class TestOversizedRequest:
    """A request line or header the parser will not hold earns 414 or 431."""

    @staticmethod
    def _status(service, head: bytes) -> int:
        import socket

        with socket.create_connection((service.host, service.port), timeout=10) as sock:
            sock.sendall(head)
            return int(sock.makefile("rb").readline().split()[1])

    def test_long_request_line_is_414(self, service):
        head = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        assert self._status(service, head) == 414

    def test_long_header_line_is_431(self, service):
        head = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
        assert self._status(service, head) == 431

    def test_too_many_headers_is_431(self, service):
        from repro.serve.http import _MAX_HEADERS

        headers = b"".join(b"X-%d: 1\r\n" % index for index in range(_MAX_HEADERS + 1))
        head = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        assert self._status(service, head) == 431

    def test_headers_up_to_the_cap_are_served(self, service):
        from repro.serve.http import _MAX_HEADERS

        headers = b"".join(b"X-%d: 1\r\n" % index for index in range(_MAX_HEADERS))
        head = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        assert self._status(service, head) == 200


class TestDurability:
    def test_submitted_jobs_survive_into_a_new_server(self, tmp_path):
        with ServeThread(str(tmp_path), workers=0) as app:
            client = ServeClient(port=app.port, timeout=30)
            record = client.submit(problem="zdt1", generations=3)
        with ServeThread(str(tmp_path), workers=0) as app:
            client = ServeClient(port=app.port, timeout=30)
            assert client.job(record["id"])["state"] == "queued"
            assert client.stats()["queue_depth"] == 1
