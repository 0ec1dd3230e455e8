"""Tests of :class:`repro.solve.SolveRequest`: one validation, one run path.

The same request backs ``repro solve`` and a served job, so the properties
here hold on both surfaces: arbitrary JSON never escapes as anything but a
:class:`ConfigurationError` (a 400, never a 500), a request survives its own
``job.json`` round trip, a spec stored before the termination fields existed
still loads and runs, and the CLI and the job runner produce the same front.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.exceptions import ConfigurationError
from repro.serve.runner import run_job
from repro.serve.store import JobStore
from repro.solve import SolveRequest
from repro.solve.request import MAX_BUDGET_ROWS, MAX_POPULATION, REQUEST_PARAMETERS

_FIELDS = [parameter.name for parameter in REQUEST_PARAMETERS]

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)

#: Payloads mixing schema fields with arbitrary keys, all with arbitrary values.
_PAYLOADS = st.dictionaries(
    st.sampled_from(_FIELDS) | st.text(max_size=8), _JSON, max_size=6
)


def _valid_requests():
    optional_int = st.none() | st.integers(min_value=1, max_value=10**6)
    return st.builds(
        SolveRequest,
        problem=st.sampled_from(["zdt1", "zdt1?n_var=5", "schaffer", "photosynthesis"]),
        algorithm=st.sampled_from(["nsga2", "moead", "pmo2"]),
        seed=st.integers(min_value=0, max_value=2**63),
        generations=st.integers(min_value=1, max_value=10**6),
        max_evaluations=optional_int,
        wall_clock=st.none() | st.floats(min_value=1e-3, max_value=1e6),
        hv_patience=optional_int,
        hv_tolerance=st.floats(min_value=0.0, max_value=1.0),
        population=st.none() | st.integers(min_value=2, max_value=500).map(lambda n: 2 * n),
        checkpoint_interval=st.integers(min_value=1, max_value=1000),
        telemetry=st.booleans(),
    )


class TestFromPayload:
    @settings(max_examples=300, deadline=None)
    @given(payload=_JSON | _PAYLOADS)
    def test_arbitrary_json_raises_only_configuration_errors(self, payload):
        try:
            SolveRequest.from_payload(payload)
        except ConfigurationError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(fields=st.dictionaries(st.sampled_from(_FIELDS[1:]), _JSON, max_size=5))
    def test_validate_raises_only_configuration_errors(self, fields):
        # The whole submit path: what passes construction is resolved too.
        try:
            SolveRequest.from_payload({"problem": "zdt1?n_var=4", **fields}).validate()
        except ConfigurationError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(request=_valid_requests())
    def test_as_dict_round_trips(self, request):
        assert SolveRequest.from_payload(request.as_dict()) == request
        stored = json.loads(json.dumps(request.as_dict()))
        assert SolveRequest.from_payload(stored) == request

    def test_namespace_reads_every_schema_field(self):
        import argparse

        values = {name: getattr(SolveRequest(problem="zdt1"), name) for name in _FIELDS}
        values.update(seed=5, hv_patience=3, extra_cli_setting="ignored")
        request = SolveRequest.from_namespace(argparse.Namespace(**values))
        assert request == SolveRequest(problem="zdt1", seed=5, hv_patience=3)


class TestValidate:
    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": -1},
            {"max_evaluations": 0},
            {"population": 1},
            {"population": 7},
            {"wall_clock": math.nan},
            {"wall_clock": -2.0},
            {"hv_patience": 0},
            {"hv_tolerance": math.inf},
            {"algorithm": "nsga3"},
            {"problem": "zdt99"},
            {"problem": "geobacter?violation_norm=bogus"},
            {"problem": "schaffer?bound=inf"},
        ],
    )
    def test_a_request_that_can_only_fail_is_refused(self, fields):
        with pytest.raises(ConfigurationError):
            SolveRequest(**{"problem": "zdt1", **fields}).validate()

    def test_every_termination_rule_is_composed(self):
        request = SolveRequest(
            problem="zdt1", max_evaluations=64, wall_clock=30.0, hv_patience=4
        )
        request.validate()
        assert repr(request.termination()) == (
            "(MaxGenerations(100) | MaxEvaluations(64) | WallClock(30.000)"
            " | HypervolumeStagnation(patience=4, tolerance=1e-06))"
        )


class TestBudgetCap:
    """Both limits admit their own value and refuse one step past it."""

    #: Islands per pmo2 run: the island count multiplies the row budget.
    ISLANDS = {"nsga2": 1, "moead": 1, "pmo2": 2}

    @staticmethod
    def _request(algorithm, **fields):
        return SolveRequest(problem="zdt1", algorithm=algorithm, **fields)

    @pytest.mark.parametrize("algorithm", sorted(ISLANDS))
    def test_population_at_the_limit_is_admitted(self, algorithm):
        self._request(algorithm, population=MAX_POPULATION, generations=1).validate()

    @pytest.mark.parametrize("algorithm", sorted(ISLANDS))
    def test_population_above_the_limit_is_refused(self, algorithm):
        request = self._request(algorithm, population=MAX_POPULATION + 2, generations=1)
        with pytest.raises(ConfigurationError, match="population 10002 is above .*MAX_POPULATION"):
            request.validate()

    @pytest.mark.parametrize("algorithm", sorted(ISLANDS))
    def test_row_budget_at_the_limit_is_admitted(self, algorithm):
        generations = MAX_BUDGET_ROWS // (1000 * self.ISLANDS[algorithm]) - 1
        self._request(algorithm, population=1000, generations=generations).validate()

    @pytest.mark.parametrize("algorithm", sorted(ISLANDS))
    def test_row_budget_one_generation_over_is_refused(self, algorithm):
        generations = MAX_BUDGET_ROWS // (1000 * self.ISLANDS[algorithm])
        request = self._request(algorithm, population=1000, generations=generations)
        rows = 1000 * (generations + 1) * self.ISLANDS[algorithm]
        with pytest.raises(ConfigurationError, match="row budget %d .*MAX_BUDGET_ROWS" % rows):
            request.validate()

    def test_islands_multiply_the_row_budget(self):
        fields = {"population": 1000, "generations": MAX_BUDGET_ROWS // 2000}
        self._request("nsga2", **fields).validate()
        with pytest.raises(ConfigurationError, match="MAX_BUDGET_ROWS"):
            self._request("pmo2", **fields).validate()

    @pytest.mark.parametrize("algorithm", sorted(ISLANDS))
    def test_every_default_request_is_admitted(self, algorithm):
        self._request(algorithm).validate()

    def test_the_serve_cache_job_is_admitted(self):
        SolveRequest(
            problem="photosynthesis", algorithm="nsga2", population=40, generations=20
        ).validate()


class TestStoredSpec:
    #: A ``job.json`` as the service wrote it before the request gained its
    #: ``wall_clock``, ``hv_patience`` and ``hv_tolerance`` fields.
    LEGACY_RECORD = {
        "format_version": 1,
        "id": "000001-a1b2c3",
        "sequence": 1,
        "spec": {
            "problem": "zdt1?n_var=4",
            "algorithm": "nsga2",
            "seed": 3,
            "generations": 3,
            "max_evaluations": None,
            "population": 8,
            "checkpoint_interval": 5,
            "telemetry": False,
        },
        "state": "queued",
        "created": "2026-01-01T00:00:00+00:00",
        "started": None,
        "finished": None,
        "generation": 0,
        "evaluations": 0,
        "error": None,
        "restarts": 0,
        "cancel_requested": False,
    }

    def test_eight_key_spec_loads_and_runs(self, tmp_path):
        job_dir = tmp_path / "jobs" / self.LEGACY_RECORD["id"]
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(json.dumps(self.LEGACY_RECORD), encoding="utf-8")
        record = JobStore(tmp_path).load(self.LEGACY_RECORD["id"])
        assert record.spec == SolveRequest(
            problem="zdt1?n_var=4", seed=3, generations=3, population=8, telemetry=False
        )
        assert run_job(job_dir) == 0
        manifest = json.loads((job_dir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"] == record.spec.as_dict()
        assert (job_dir / "front.json").is_file()


def test_cli_and_served_job_give_the_same_front(tmp_path, capsys):
    """A job accepts every termination the CLI does, and runs it the same way."""
    cli_front = tmp_path / "cli-front.json"
    code = main(
        ["solve", "zdt1", "--algorithm", "nsga2", "--population", "8", "--seed", "0",
         "--hv-patience", "3", "--quiet", "--front-json", str(cli_front)]
    )
    assert code == 0
    capsys.readouterr()
    store = JobStore(tmp_path / "serve")
    request = SolveRequest.from_payload(
        {"problem": "zdt1", "algorithm": "nsga2", "population": 8, "seed": 0,
         "hv_patience": 3, "telemetry": False}
    )
    request.validate()
    record = store.create(request)
    assert run_job(store.job_dir(record.id)) == 0
    served_front = store.job_dir(record.id) / "front.json"
    assert served_front.read_bytes() == cli_front.read_bytes()
