"""Observer-event edge cases: degenerate archipelagos and event ordering."""

from repro.moo.testproblems import Schaffer
from repro.solve import CheckpointEvent, GenerationEvent, MigrationEvent, Observer, solve


class Recorder(Observer):
    """Records every event in arrival order."""

    def __init__(self):
        self.events = []

    def on_generation(self, event):
        self.events.append(event)

    def on_migration(self, event):
        self.events.append(event)

    def on_checkpoint(self, event):
        self.events.append(event)


class TestSingleIslandArchipelago:
    def test_migration_events_fire_with_zero_active_edges(self):
        """A one-island archipelago still exchanges (with nobody) on schedule.

        ``migrate()`` counts the event even when the topology has no edges,
        so observers see the same MigrationEvent cadence regardless of island
        count — a dashboard for a 1-island smoke run renders like any other.
        """
        recorder = Recorder()
        result = solve(
            Schaffer(),
            "pmo2",
            seed=2,
            termination=4,
            n_islands=1,
            island_population_size=8,
            migration_interval=2,
            observers=[recorder],
        )
        migrations = [e for e in recorder.events if isinstance(e, MigrationEvent)]
        assert [e.generation for e in migrations] == [2, 4]
        assert result.migrations == 2

    def test_single_island_front_matches_population_work(self):
        recorder = Recorder()
        solve(
            Schaffer(),
            "pmo2",
            seed=2,
            termination=2,
            n_islands=1,
            island_population_size=8,
            migration_interval=1,
            observers=[recorder],
        )
        # Migration events expose a usable front snapshot even with no edges.
        migration = next(e for e in recorder.events if isinstance(e, MigrationEvent))
        assert len(migration.front) >= 1


class TestEventOrdering:
    def test_checkpoint_event_follows_its_generation_event(self, tmp_path):
        """Per generation: GenerationEvent, then (maybe) Migration, then Checkpoint."""
        recorder = Recorder()
        solve(
            Schaffer(),
            "pmo2",
            seed=4,
            termination=4,
            n_islands=2,
            island_population_size=8,
            migration_interval=2,
            observers=[recorder],
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=2,
        )
        by_generation = {}
        for event in recorder.events:
            by_generation.setdefault(event.generation, []).append(type(event).__name__)
        assert by_generation[2] == ["GenerationEvent", "MigrationEvent", "CheckpointEvent"]
        assert by_generation[3] == ["GenerationEvent"]
        assert by_generation[4] == ["GenerationEvent", "MigrationEvent", "CheckpointEvent"]

    def test_checkpoint_events_match_saved_files(self, tmp_path):
        recorder = Recorder()
        result = solve(
            Schaffer(),
            "nsga2",
            seed=4,
            termination=4,
            population_size=8,
            observers=[recorder],
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=2,
        )
        checkpoints = [e for e in recorder.events if isinstance(e, CheckpointEvent)]
        assert len(checkpoints) == result.checkpoint.saves
        for event in checkpoints:
            assert (tmp_path / event.path.split("/")[-1]).is_file()

    def test_generation_events_are_contiguous_after_resume(self, tmp_path):
        recorder = Recorder()
        solve(Schaffer(), "nsga2", seed=6, termination=3, population_size=8,
              checkpoint_dir=str(tmp_path), checkpoint_interval=1)
        solve(Schaffer(), "nsga2", seed=6, termination=6, population_size=8,
              checkpoint_dir=str(tmp_path), checkpoint_interval=1,
              observers=[recorder])
        generations = [
            e.generation for e in recorder.events if isinstance(e, GenerationEvent)
        ]
        assert generations == [4, 5, 6]
