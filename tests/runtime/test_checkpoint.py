"""Tests for checkpoint/resume: manager mechanics and optimizer equivalence."""

import os
import pickle
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import CheckpointError, ConfigurationError
from repro.moo.archipelago import PMO2Config
from repro.moo.testproblems import ZDT1
from repro.problems import build_problem
from repro.runtime import CheckpointManager
from repro.runtime.checkpoint import _header, list_checkpoints
from repro.solve import solve

#: A PMO2 checkpoint that release 19.0 wrote (checkpoint format 8).
FORMAT_8_PMO2_CHECKPOINT = (
    Path(__file__).parent / "data" / "pmo2-format8-checkpoint-00000002.pkl"
)


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

    def test_load_latest_skips_an_unreadable_newest_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=3)
        for generation in (1, 2, 3):
            manager.save({"at": generation}, generation=generation)
        newest = manager.latest()
        newest.write_bytes(newest.read_bytes()[:10])
        assert manager.load_latest() == ({"at": 2}, 2)
        manager.checkpoints()[1].write_bytes(b"")
        assert manager.load_latest() == ({"at": 1}, 1)
        with pytest.raises(CheckpointError, match="checkpoint-00000003.pkl"):
            manager.load()  # an explicit load reads exactly the newest file

    def test_load_latest_raises_when_no_checkpoint_is_readable(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=3)
        for generation in (1, 2):
            manager.save("state", generation=generation).write_bytes(b"\x80\x05trunc")
        with pytest.raises(CheckpointError, match="cannot read checkpoint .*00000002.pkl"):
            manager.load_latest()
        with pytest.raises(CheckpointError):
            manager.restore(types.SimpleNamespace(generation=0))

    def test_state_naming_a_deleted_class_raises_checkpoint_error(self, tmp_path, monkeypatch):
        # A 4.x PMO2 state: the class existed when the checkpoint was saved.
        import repro.moo.archipelago

        class PMO2:
            pass

        PMO2.__module__, PMO2.__qualname__ = "repro.moo.archipelago", "PMO2"
        monkeypatch.setattr(repro.moo.archipelago, "PMO2", PMO2, raising=False)
        manager = CheckpointManager(tmp_path)
        manager.save(PMO2(), generation=4)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="PMO2"):
            manager.load()

    def test_state_naming_a_deleted_module_raises_checkpoint_error(self, tmp_path, monkeypatch):
        module = types.ModuleType("repro.moo.dominance")

        class Front:
            pass

        Front.__module__, Front.__qualname__ = module.__name__, "Front"
        module.Front = Front
        monkeypatch.setitem(sys.modules, module.__name__, module)
        manager = CheckpointManager(tmp_path)
        manager.save(Front(), generation=4)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="dominance"):
            manager.load()

    def test_save_writes_format_version_9(self, tmp_path):
        path = CheckpointManager(tmp_path).save("state", generation=3)
        written = path.read_bytes()
        magic = b"repro-checkpoint\n"
        data = written[len(magic) + 32:]  # the header is the magic and a 32-byte digest
        assert written.startswith(magic) and written == _header(data) + data
        payload = pickle.loads(data)
        assert payload == {"format_version": 9, "generation": 3, "state": "state"}

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, None, 10])
    def test_other_format_versions_are_refused(self, tmp_path, version):
        payload = {"generation": 3, "state": "state"}
        if version is not None:
            payload["format_version"] = version
        data = pickle.dumps(payload)
        (tmp_path / "checkpoint-00000003.pkl").write_bytes(_header(data) + data)
        with pytest.raises(CheckpointError) as raised:
            CheckpointManager(tmp_path).load()
        assert "format version %r, expected 9" % version in str(raised.value)
        with pytest.raises(CheckpointError, match="expected 9"):
            CheckpointManager(tmp_path).load_latest()

    def test_a_file_without_the_header_is_unreadable(self, tmp_path):
        # What a format-7 release wrote: the bare pickle.
        data = pickle.dumps({"format_version": 7, "generation": 3, "state": "state"})
        (tmp_path / "checkpoint-00000003.pkl").write_bytes(data)
        with pytest.raises(CheckpointError, match="no checkpoint header .*format 8"):
            CheckpointManager(tmp_path).load()

    def test_a_flipped_byte_fails_the_digest_before_unpickling(self, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path, interval=1, keep=3)
        for generation in (1, 2):
            manager.save({"at": generation, "pad": "x" * 64}, generation=generation)
        newest = manager.latest()
        damaged = bytearray(newest.read_bytes())
        damaged[-20] ^= 0x01  # inside the padding string: still a valid pickle
        newest.write_bytes(bytes(damaged))
        loads = []
        real_loads = pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: loads.append(data) or real_loads(data))
        with pytest.raises(CheckpointError, match="digest does not match"):
            manager.load()
        assert loads == []
        assert manager.load_latest() == ({"at": 1, "pad": "x" * 64}, 1)

    def test_only_saved_names_are_checkpoints(self, tmp_path):
        # Neither name is one save() writes, so neither is restorable.
        for name in ("checkpoint-final.pkl", "checkpoint-7.pkl"):
            (tmp_path / name).write_bytes(b"x")
        assert list_checkpoints(tmp_path) == []
        assert CheckpointManager(tmp_path).checkpoints() == []

    def test_listing_is_oldest_first_and_agrees_with_the_manager(self, tmp_path):
        manager = CheckpointManager(tmp_path, interval=1, keep=10)
        for generation in (12, 3, 7):
            manager.save(generation, generation=generation)
        (tmp_path / "notes.txt").write_bytes(b"x")
        listed = list_checkpoints(tmp_path)
        assert [generation for generation, _ in listed] == [3, 7, 12]
        assert [path.name for _, path in listed] == [
            "checkpoint-00000003.pkl", "checkpoint-00000007.pkl", "checkpoint-00000012.pkl"
        ]
        assert manager.checkpoints() == [path for _, path in listed]

    def test_listing_creates_nothing(self, tmp_path):
        assert list_checkpoints(tmp_path / "missing") == []
        assert not (tmp_path / "missing").exists()

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

    def test_a_format_8_checkpoint_is_refused(self, tmp_path):
        # Written by 19.0 (`repro solve bnh --algorithm pmo2 --population 8
        # --seed 0 --checkpoint-interval 2`): format 8 pickled the islands in
        # Island wrappers, with a Topology and a MigrationPolicy.
        shutil.copy(FORMAT_8_PMO2_CHECKPOINT, tmp_path / "checkpoint-00000002.pkl")
        with pytest.raises(CheckpointError, match="cannot read checkpoint .*Island"):
            CheckpointManager(tmp_path).load()
        with pytest.raises(CheckpointError, match="Island"):
            solve(build_problem("bnh"), "pmo2", island_population_size=8, seed=0,
                  termination=4, checkpoint_dir=str(tmp_path))


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
            baseline.archive.F, resumed.archive.F
        )

    def test_truncated_newest_checkpoint_resumes_from_the_one_before(self, tmp_path):
        problem = ZDT1(n_var=6)

        def nsga2(generations, **kwargs):
            return solve(problem, "nsga2", population_size=8, seed=3,
                         termination=generations, **kwargs)

        baseline = nsga2(10)
        manager = CheckpointManager(tmp_path, interval=2, keep=3)
        nsga2(6, checkpoint=manager)
        assert [path.name for path in manager.checkpoints()] == [
            "checkpoint-00000002.pkl", "checkpoint-00000004.pkl", "checkpoint-00000006.pkl"
        ]
        newest = manager.latest()
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
        resumed = nsga2(10, checkpoint=manager)

        assert resumed.generations == 10
        assert resumed.front_objectives().tobytes() == baseline.front_objectives().tobytes()
        assert resumed.front_decisions().tobytes() == baseline.front_decisions().tobytes()

    def test_flipped_byte_in_newest_checkpoint_resumes_from_the_one_before(self, tmp_path):
        problem = ZDT1(n_var=6)

        def nsga2(generations, **kwargs):
            return solve(problem, "nsga2", population_size=8, seed=3,
                         termination=generations, **kwargs)

        baseline = nsga2(10)
        manager = CheckpointManager(tmp_path, interval=2, keep=3)
        nsga2(6, checkpoint=manager)
        newest = manager.latest()
        damaged = bytearray(newest.read_bytes())
        damaged[len(damaged) // 2] ^= 0x40
        newest.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError, match="digest"):
            manager.load(newest)
        assert manager.load_latest()[1] == 4
        resumed = nsga2(10, checkpoint=manager)

        assert resumed.checkpoint.restored_generation == 4
        assert resumed.front_objectives().tobytes() == baseline.front_objectives().tobytes()
        assert resumed.front_decisions().tobytes() == baseline.front_decisions().tobytes()
