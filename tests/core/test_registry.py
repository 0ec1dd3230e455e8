"""Tests of the experiment registry (repro.core.registry)."""

import pytest

from repro.core.registry import (
    REGISTRY,
    Experiment,
    ExperimentRegistry,
    Parameter,
    experiment_names,
    get_experiment,
)
from repro.exceptions import ConfigurationError

EXPECTED_NAMES = {
    "photosynthesis-table1",
    "photosynthesis-table2",
    "photosynthesis-figure1",
    "photosynthesis-figure2",
    "photosynthesis-figure3",
    "geobacter-figure4",
    "migration-ablation",
}


class TestCannedRegistrations:
    def test_every_paper_experiment_is_registered(self):
        assert EXPECTED_NAMES <= set(experiment_names())

    def test_entries_carry_metadata_and_artifact_spec(self):
        for name in EXPECTED_NAMES:
            experiment = get_experiment(name)
            assert experiment.title
            assert experiment.description
            assert experiment.reference
            assert experiment.parameters
            assert experiment.front is not None
            assert experiment.payload is not None
            assert experiment.render is not None
            assert "manifest.json" in experiment.artifact_names

    def test_common_runtime_knobs_in_every_schema(self):
        for name in EXPECTED_NAMES:
            schema = {p.name for p in get_experiment(name).parameters}
            assert {"population", "generations", "seed", "n_workers", "cache"} <= schema

    def test_checkpointable_experiments_marked(self):
        assert get_experiment("photosynthesis-table2").supports_checkpoint
        assert get_experiment("photosynthesis-figure3").supports_checkpoint
        assert not get_experiment("photosynthesis-table1").supports_checkpoint

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("table1")

    def test_registry_contains_and_len(self):
        assert "migration-ablation" in REGISTRY
        assert len(REGISTRY) >= len(EXPECTED_NAMES)
        assert [e.name for e in REGISTRY] == REGISTRY.names()


class TestParameterSchema:
    def _demo(self):
        return Experiment(
            name="demo",
            title="demo",
            description="",
            reference="",
            function=lambda population=4, seed=0, cache=False: (population, seed, cache),
            parameters=(
                Parameter("population", int, 4, "pop"),
                Parameter("seed", int, 0, "seed"),
                Parameter("cache", bool, False, "cache"),
            ),
        )

    def test_defaults_merged(self):
        assert self._demo().validate_parameters({}) == {
            "population": 4,
            "seed": 0,
            "cache": False,
        }

    def test_values_coerced_to_declared_types(self):
        merged = self._demo().validate_parameters({"population": "8", "cache": 1})
        assert merged["population"] == 8 and isinstance(merged["population"], int)
        assert merged["cache"] is True

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            self._demo().validate_parameters({"budget": 3})

    @pytest.mark.parametrize("text,expected", [("false", False), ("off", False), ("yes", True)])
    def test_string_booleans_are_parsed(self, text, expected):
        experiment = get_experiment("migration-ablation")
        assert experiment.validate_parameters({"cache": text})["cache"] is expected

    @pytest.mark.parametrize(
        "overrides", [{"population": "abc"}, {"population": [1]}, {"cache": "maybe"}]
    )
    def test_unparseable_value_is_a_configuration_error(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigurationError, match=name):
            self._demo().validate_parameters(overrides)

    def test_run_passes_validated_parameters(self):
        assert self._demo().run(population=6) == (6, 0, False)

    def test_parameter_lookup_and_cli_flag(self):
        experiment = self._demo()
        assert experiment.parameter("population").default == 4
        with pytest.raises(KeyError):
            experiment.parameter("missing")
        assert Parameter("n_workers", int, 1, "").cli_flag == "--n-workers"

    def test_none_passes_through_coercion(self):
        assert Parameter("checkpoint_dir", str, None, "").coerce(None) is None

    @pytest.mark.parametrize(
        "kind,value,expected",
        [
            (int, "3", 3),
            (int, 3.0, 3),
            (float, "0.5", 0.5),
            (bool, "ON", True),
            (bool, 0, False),
            (bool, 1, True),
            (bool, True, True),
            (str, 7, "7"),
        ],
    )
    def test_coercion_parses_to_the_declared_type(self, kind, value, expected):
        coerced = Parameter("knob", kind, None, "").coerce(value)
        assert coerced == expected and type(coerced) is kind

    def test_fractional_string_is_not_an_int(self):
        with pytest.raises(ConfigurationError, match="'population'"):
            Parameter("population", int, 4, "").coerce("1.5")

    @pytest.mark.parametrize(
        "kind,value",
        [
            (int, 1.7),
            (int, True),
            (int, float("inf")),
            (int, float("nan")),
            (bool, 2),
            (bool, -1),
            (bool, 1.0),
            (bool, [1]),
            (float, 10**400),
        ],
    )
    def test_lossy_values_are_refused_not_truncated(self, kind, value):
        with pytest.raises(ConfigurationError, match="'knob'"):
            Parameter("knob", kind, None, "").coerce(value)


class TestRegistryObject:
    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        entry = Experiment(
            name="demo", title="", description="", reference="", function=lambda: None
        )
        registry.register(entry)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(entry)

    def test_get_suggests_close_names(self):
        registry = ExperimentRegistry()
        registry.register(
            Experiment(
                name="photosynthesis-table1",
                title="",
                description="",
                reference="",
                function=lambda: None,
            )
        )
        with pytest.raises(KeyError, match="did you mean photosynthesis-table1"):
            registry.get("table1")
