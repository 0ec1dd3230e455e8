"""Unit tests for the job state machine, specs and the durable store."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import (
    CANCELLED,
    CHECKPOINTED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    InvalidTransitionError,
    JobRecord,
    JobStore,
    UnknownJobError,
)
from repro.solve import SolveRequest


def _spec(**overrides):
    fields = {"problem": "zdt1", "generations": 4}
    fields.update(overrides)
    return SolveRequest(**fields)


class TestJobSpec:
    """A job's spec: the :class:`SolveRequest` of its submit payload."""

    def test_from_payload_round_trips(self):
        payload = {"problem": "zdt1?n_var=5", "algorithm": "moead", "seed": 3,
                   "generations": 7, "population": 20, "telemetry": False}
        spec = SolveRequest.from_payload(payload)
        assert spec.as_dict() == {
            "problem": "zdt1?n_var=5", "algorithm": "moead", "seed": 3,
            "generations": 7, "max_evaluations": None, "wall_clock": None,
            "hv_patience": None, "hv_tolerance": 1e-6, "population": 20,
            "checkpoint_interval": 5, "telemetry": False,
        }

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job field"):
            SolveRequest.from_payload({"problem": "zdt1", "pop_size": 10})

    def test_problem_is_required(self):
        with pytest.raises(ConfigurationError, match="'problem'"):
            SolveRequest.from_payload({"algorithm": "nsga2"})

    def test_string_boolean_is_parsed(self):
        spec = SolveRequest.from_payload({"problem": "zdt1", "telemetry": "false"})
        assert spec.telemetry is False

    @pytest.mark.parametrize(
        "field,value",
        [("seed", "abc"), ("population", [1]), ("generations", None), ("telemetry", "maybe")],
    )
    def test_uncoercible_fields_are_configuration_errors(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SolveRequest.from_payload({"problem": "zdt1", field: value})

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            SolveRequest.from_payload([1, 2, 3])

    @pytest.mark.parametrize("field,value", [("generations", 0), ("checkpoint_interval", 0)])
    def test_non_positive_budgets_are_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            SolveRequest.from_payload({"problem": "zdt1", field: value})

    def test_validate_rejects_unknown_problem_and_solver(self):
        with pytest.raises(Exception):
            _spec(problem="no-such-problem").validate()
        with pytest.raises(Exception):
            _spec(algorithm="no-such-solver").validate()

    def test_validate_accepts_spec_strings_with_transforms(self):
        _spec(problem="zdt1?n_var=6&delay=0.0").validate()

    def test_termination_composes_evaluation_cap(self):
        from repro.solve.termination import AnyOf, MaxGenerations

        assert isinstance(_spec().termination(), MaxGenerations)
        assert isinstance(_spec(max_evaluations=100).termination(), AnyOf)


class TestStateMachine:
    def test_normal_lifecycle(self):
        record = JobRecord(id="1-a", sequence=1, spec=_spec())
        record.transition(RUNNING)
        record.transition(CHECKPOINTED)
        record.transition(DONE)
        assert record.is_terminal
        assert record.started is not None and record.finished is not None

    def test_recovery_edge_keeps_original_start(self):
        record = JobRecord(id="1-a", sequence=1, spec=_spec())
        record.transition(RUNNING)
        started = record.started
        record.transition(QUEUED)
        record.transition(RUNNING)
        assert record.started == started

    @pytest.mark.parametrize("terminal", [DONE, FAILED, CANCELLED])
    def test_terminal_states_are_absorbing(self, terminal):
        record = JobRecord(id="1-a", sequence=1, spec=_spec(), state=RUNNING)
        record.transition(terminal)
        for state in JOB_STATES:
            with pytest.raises(InvalidTransitionError):
                record.transition(state)

    def test_queued_cannot_jump_to_done(self):
        record = JobRecord(id="1-a", sequence=1, spec=_spec())
        with pytest.raises(InvalidTransitionError, match="illegal job transition"):
            record.transition(DONE)

    def test_unknown_state_is_rejected(self):
        record = JobRecord(id="1-a", sequence=1, spec=_spec())
        with pytest.raises(InvalidTransitionError, match="unknown job state"):
            record.transition("paused")

    def test_record_round_trips_through_dict(self):
        record = JobRecord(id="7-zz", sequence=7, spec=_spec(), state=RUNNING,
                           generation=3, evaluations=42, restarts=1)
        clone = JobRecord.from_dict(json.loads(json.dumps(record.as_dict())))
        assert clone.as_dict() == record.as_dict()


class TestJobStore:
    def test_create_persists_a_queued_record(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        loaded = store.load(record.id)
        assert loaded.state == QUEUED
        assert loaded.as_dict() == record.as_dict()

    def test_ids_are_sequential_and_unique(self, tmp_path):
        store = JobStore(tmp_path)
        records = [store.create(_spec()) for _ in range(5)]
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert len({r.id for r in records}) == 5
        assert [r.id for r in store.list_records()] == [r.id for r in records]

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(UnknownJobError):
            JobStore(tmp_path).load("000099-beef")

    def test_read_events_skips_torn_trailing_line(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        store.events_path(record.id).write_text(
            '{"type": "generation", "generation": 1}\n{"type": "gen',
            encoding="utf-8",
        )
        assert store.read_events(record.id)[0] == [{"type": "generation", "generation": 1}]

    def test_read_events_from_an_offset_rereads_a_torn_line(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        path = store.events_path(record.id)
        assert store.read_events(record.id, 0) == ([], 0)
        first = '{"type": "generation", "generation": 1}\n'
        path.write_text(first + '{"type": "gen', encoding="utf-8")
        events, offset = store.read_events(record.id, 0)
        assert (events, offset) == ([{"type": "generation", "generation": 1}], len(first))
        assert store.read_events(record.id, offset) == ([], offset)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('eration", "generation": 2}\n')
        events, offset = store.read_events(record.id, offset)
        assert events == [{"type": "generation", "generation": 2}]
        assert offset == path.stat().st_size

    def test_recover_requeues_interrupted_jobs_in_order(self, tmp_path):
        store = JobStore(tmp_path)
        done = store.create(_spec())
        done.transition(RUNNING)
        done.transition(DONE)
        store.save(done)
        interrupted = store.create(_spec())
        interrupted.transition(RUNNING)
        store.save(interrupted)
        waiting = store.create(_spec())
        store.save(waiting)

        runnable = store.recover()
        assert [r.id for r in runnable] == [interrupted.id, waiting.id]
        revived = store.load(interrupted.id)
        assert revived.state == QUEUED
        assert revived.restarts == 1
        assert store.load(done.id).state == DONE

    def test_truncate_events_drops_post_checkpoint_rows(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        checkpoints = store.checkpoints_dir(record.id)
        checkpoints.mkdir()
        (checkpoints / "checkpoint-00000002.pkl").write_bytes(b"x")
        rows = [{"type": "generation", "generation": g} for g in (1, 2, 3)]
        store.events_path(record.id).write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        assert store.truncate_events(record.id) == 2
        assert [e["generation"] for e in store.read_events(record.id)[0]] == [1, 2]

    def test_truncate_without_checkpoint_clears_the_log(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        store.events_path(record.id).write_text(
            '{"type": "generation", "generation": 1}\n', encoding="utf-8"
        )
        assert store.truncate_events(record.id) is None
        assert store.read_events(record.id) == ([], 0)

    def test_latest_checkpoint_generation_ignores_foreign_files(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        checkpoints = store.checkpoints_dir(record.id)
        checkpoints.mkdir()
        (checkpoints / "checkpoint-00000004.pkl").write_bytes(b"x")
        (checkpoints / "checkpoint-junk.pkl").write_bytes(b"x")
        (checkpoints / "notes.txt").write_bytes(b"x")
        assert store.latest_checkpoint_generation(record.id) == 4

    def test_unrestorable_checkpoint_names_are_no_checkpoint(self, tmp_path):
        # The resumed run restores nothing from these names and starts from
        # generation 0, so the whole event log is stale.
        store = JobStore(tmp_path)
        record = store.create(_spec())
        checkpoints = store.checkpoints_dir(record.id)
        checkpoints.mkdir()
        for name in ("checkpoint-final.pkl", "checkpoint-7.pkl"):
            (checkpoints / name).write_bytes(b"x")
        store.events_path(record.id).write_text(
            '{"type": "generation", "generation": 1}\n', encoding="utf-8"
        )
        assert store.latest_checkpoint_generation(record.id) is None
        assert store.truncate_events(record.id) is None
        assert store.read_events(record.id) == ([], 0)


class TestServedCheckpoints:
    def test_a_cached_job_checkpoints_keys_not_the_evaluation_cache(self, tmp_path):
        """The served photosynthesis budget: population 40 x 20 generations."""
        from repro.runtime import CheckpointManager, cachekeys
        from repro.serve.runner import run_job

        store = JobStore(tmp_path / "data")
        record = store.create(_spec(problem="photosynthesis", algorithm="nsga2", seed=2011,
                                    population=40, generations=20))
        assert run_job(store.job_dir(record.id), cache_dir=str(tmp_path / "cache")) == 0
        manager = CheckpointManager(store.checkpoints_dir(record.id))
        last = manager.latest()
        assert last.name == "checkpoint-00000020.pkl"
        # 239.5 KB while the checkpoint pickled every (F row, G row) entry.
        assert last.stat().st_size <= 48_000
        engine, _ = manager.load(last)
        cache = engine.evaluator._cache
        # The restore refilled every distinct row the job evaluated.
        assert len(cache) == engine.evaluator.ledger.total_cache_misses > 40 * 20
        assert all(len(key) == cachekeys.STORE_KEY_SIZE for key in cache)


class TestEventTail:
    """The coordinator publishes each event-log line once, torn lines once complete."""

    def test_partial_line_is_published_once_it_is_complete(self, tmp_path):
        from repro.serve import Coordinator

        store = JobStore(tmp_path)
        coordinator = Coordinator(store, workers=0)
        record = store.create(_spec())
        record.transition(RUNNING)
        channel = coordinator._channel(record.id)
        path = store.events_path(record.id)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "generation", "generation": 1, "evaluations": 8}\n')
            handle.write('{"type": "checkpoint", "generation": 1,')
        coordinator._consume_events(record, channel)
        assert [event["type"] for event in channel.history] == ["generation"]
        assert record.state == RUNNING
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(' "evaluations": 8, "path": "c"}\n')
        coordinator._consume_events(record, channel)
        coordinator._consume_events(record, channel)
        assert [event["type"] for event in channel.history] == ["generation", "checkpoint"]
        assert record.state == CHECKPOINTED
        assert channel.offset == path.stat().st_size
        # A late subscriber's replay is the same history.
        assert store.read_events(record.id)[0] == channel.history
