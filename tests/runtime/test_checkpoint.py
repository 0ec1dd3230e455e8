"""Tests for checkpoint/resume: manager mechanics and optimizer equivalence."""

import os

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.moo.pmo2 import PMO2Config
from repro.moo.testproblems import ZDT1
from repro.runtime import CheckpointManager
from repro.solve import solve


class TestManager:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=5)
        manager.save({"answer": 42}, generation=5)
        state, generation = manager.load()
        assert state == {"answer": 42} and generation == 5

    def test_latest_picks_highest_generation(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=10)
        for generation in (1, 3, 2):
            manager.save(generation, generation=generation)
        _, generation = manager.load()
        assert generation == 3

    def test_maybe_save_follows_interval(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=4)
        assert manager.maybe_save("state", 3) is None
        assert manager.maybe_save("state", 4) is not None
        assert manager.maybe_save("state", 0) is None

    def test_prune_keeps_most_recent(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=2)
        for generation in range(1, 6):
            manager.save(generation, generation=generation)
        names = [path.name for path in manager.checkpoints()]
        assert names == ["checkpoint-00000004.pkl", "checkpoint-00000005.pkl"]

    def test_load_without_checkpoints_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.load_latest() is None
        with pytest.raises(CheckpointError):
            manager.load()

    def test_truncated_checkpoint_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        path = manager.save("state", generation=10)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError):
            manager.load()

    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, interval=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, keep=0)

    def test_save_fsyncs_the_payload_before_the_rename(self, tmp_path, monkeypatch):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(descriptor):
            calls.append(("fsync", os.fstat(descriptor).st_size))
            real_fsync(descriptor)

        def replace(source, target):
            calls.append(("replace", os.path.basename(target)))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        CheckpointManager(tmp_path).save({"answer": 42}, generation=3)
        assert [name for name, _ in calls] == ["fsync", "replace"]
        assert calls[0][1] > 0  # the whole pickle was written when it was synced
        assert calls[1][1] == "checkpoint-00000003.pkl"


def _pmo2(generations, **kwargs):
    config = PMO2Config(island_population_size=8, migration_interval=3)
    return solve(ZDT1(n_var=6), "pmo2", config=config, seed=7, termination=generations,
                 **kwargs)


class TestPMO2Resume:
    def test_killed_run_resumes_to_identical_archive(self, tmp_path):
        baseline = _pmo2(12)

        # Simulate a run killed at generation 7 (checkpoints land at 4).
        manager = CheckpointManager(tmp_path, interval=4)
        _pmo2(7, checkpoint=manager)
        assert manager.latest() is not None

        resumed = _pmo2(12, checkpoint=manager)
        assert resumed.generations == 12
        assert np.array_equal(
            baseline.front_objectives(), resumed.front_objectives()
        )
        assert np.array_equal(baseline.front_decisions(), resumed.front_decisions())
        assert resumed.evaluations == baseline.evaluations

    def test_completed_run_does_not_rerun(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=4)
        first = _pmo2(8, checkpoint=manager)
        again = _pmo2(8, checkpoint=manager)
        assert again.generations == 8
        assert np.array_equal(first.front_objectives(), again.front_objectives())

    def test_checkpoint_dir_convenience_knob(self, tmp_path):
        result = _pmo2(6, checkpoint_dir=str(tmp_path), checkpoint_interval=3)
        assert result.generations == 6
        assert any(path.name.startswith("checkpoint-") for path in tmp_path.iterdir())

    def test_resumed_ledger_keeps_counting(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=3)
        partial = _pmo2(3, checkpoint=manager)
        resumed = _pmo2(6, checkpoint=manager)
        assert resumed.ledger is not None
        assert resumed.ledger.total_evaluations > partial.ledger.total_evaluations


class TestNSGA2Resume:
    def test_killed_run_resumes_to_identical_archive(self, tmp_path):
        problem = ZDT1(n_var=6)

        def nsga2(generations, **kwargs):
            return solve(problem, "nsga2", population_size=8, seed=3,
                         termination=generations, **kwargs)

        baseline = nsga2(10)
        manager = CheckpointManager(tmp_path, interval=4)
        nsga2(6, checkpoint=manager)
        resumed = nsga2(10, checkpoint=manager)

        assert resumed.generations == 10
        assert np.array_equal(
            baseline.archive.objective_matrix(), resumed.archive.objective_matrix()
        )
