"""Tests for the problem registry and its spec strings."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.params import Parameter
from repro.problems import (
    ProblemSpec,
    build_problem,
    describe_problem,
    get_problem,
    parse_problem_spec,
    problem_names,
)
from repro.problems.registry import _PROBLEMS


class TestRegistryContents:
    def test_every_historical_name_is_registered(self):
        names = problem_names()
        for expected in (
            "photosynthesis",
            "geobacter",
            "schaffer",
            "fonseca",
            "zdt1",
            "zdt2",
            "zdt3",
            "zdt6",
            "dtlz2",
            "bnh",
            "kursawe",
        ):
            assert expected in names

    def test_cheap_problems_build_with_defaults(self):
        for name in problem_names():
            if name.startswith(("photosynthesis", "geobacter")):
                continue  # case studies build real models; covered elsewhere
            problem = build_problem(name)
            assert problem.n_var >= 1 and problem.n_obj >= 1, name

    def test_unknown_name_suggests_and_raises(self):
        with pytest.raises(ConfigurationError, match="zdt1"):
            build_problem("zdt_1")

    def test_invalid_robustness_settings_fail_at_build(self):
        # Not at the first evaluation: SolveRequest.validate builds the problem.
        with pytest.raises(ConfigurationError, match="global_trials"):
            build_problem("photosynthesis-robust?robustness_trials=0")
        with pytest.raises(ConfigurationError, match="epsilon"):
            build_problem("photosynthesis-robust?epsilon=-0.1")

    def test_duplicate_registration_rejected(self):
        spec = get_problem("zdt1")
        with pytest.raises(ConfigurationError):
            from repro.problems import register_problem

            register_problem(spec)
        assert _PROBLEMS["zdt1"] is spec  # registry unharmed


class TestSpecStrings:
    def test_parse_splits_name_and_params(self):
        assert parse_problem_spec("zdt1") == ("zdt1", {})
        assert parse_problem_spec("zdt1?n_var=10&noise=0.5") == (
            "zdt1",
            {"n_var": "10", "noise": "0.5"},
        )

    def test_bare_key_reads_as_boolean_switch(self):
        assert parse_problem_spec("zdt1?normalized") == ("zdt1", {"normalized": "true"})
        assert build_problem("zdt1?normalized").name == "Normalized(ZDT1)"

    def test_malformed_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_problem_spec("?noise=1")
        with pytest.raises(ConfigurationError):
            parse_problem_spec("zdt1?=3")

    def test_problem_parameters_are_coerced(self):
        assert build_problem("zdt1?n_var=7").n_var == 7
        assert build_problem("schaffer?bound=2.5").upper_bounds[0] == pytest.approx(2.5)
        assert build_problem("dtlz2?n_obj=4").n_obj == 4

    def test_keyword_overrides_win_over_spec_params(self):
        assert build_problem("zdt1?n_var=7", n_var=9).n_var == 9

    def test_unknown_parameter_rejected_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="n_var"):
            build_problem("zdt1?n_vars=7")

    def test_uncoercible_value_rejected(self):
        with pytest.raises(ConfigurationError):
            build_problem("zdt1?n_var=many")
        with pytest.raises(ConfigurationError):
            build_problem("zdt1?normalized=maybe")


class TestTransformVariants:
    """At least four transform variants must be buildable by name+params."""

    VARIANTS = [
        ("zdt1?noise=0.01", "Noisy(ZDT1)"),
        ("zdt1?normalized=1", "Normalized(ZDT1)"),
        ("bnh?penalty=100", "ConstraintAsPenalty(ConstrainedBNH)"),
        ("dtlz2?objectives=0,2", "ObjectiveSubset(DTLZ2)"),
        ("zdt1?normalized=1&noise=0.05", "Noisy(Normalized(ZDT1))"),
    ]

    @pytest.mark.parametrize("spec,name", VARIANTS)
    def test_variant_builds_and_evaluates(self, spec, name):
        problem = build_problem(spec)
        assert problem.name == name
        X = np.random.default_rng(0).uniform(
            problem.lower_bounds, problem.upper_bounds, size=(3, problem.n_var)
        )
        batch = problem.evaluate_matrix(X)
        assert batch.F.shape == (3, problem.n_obj)

    def test_stack_order_is_canonical_regardless_of_key_order(self):
        a = build_problem("zdt1?noise=0.05&normalized=1")
        b = build_problem("zdt1?normalized=1&noise=0.05")
        assert a.name == b.name == "Noisy(Normalized(ZDT1))"

    def test_noise_seed_selects_the_noise_stream(self):
        X = np.zeros((2, 30))
        a = build_problem("zdt1?noise=0.1&noise_seed=1").evaluate_matrix(X).F
        b = build_problem("zdt1?noise=0.1&noise_seed=2").evaluate_matrix(X).F
        assert not np.array_equal(a, b)

    def test_noise_seed_without_noise_is_an_error(self):
        # A seed alone would silently build a noise-free problem; refuse it.
        with pytest.raises(ConfigurationError, match="noise"):
            build_problem("zdt1?noise_seed=5")


class TestProblemSpec:
    def test_build_validates_schema(self):
        spec = ProblemSpec(
            name="toy",
            title="toy",
            factory=lambda scale: build_problem("schaffer", bound=scale),
            parameters=(Parameter("scale", float, 1.0, "box half-width"),),
        )
        assert spec.build(scale=3.0).upper_bounds[0] == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            spec.build(shape=2)

    def test_defaults_dictionary(self):
        assert get_problem("zdt6").defaults() == {"n_var": 10}


class TestDescribe:
    def test_payload_shape(self):
        payload = describe_problem("zdt6")
        assert payload["name"] == "zdt6"
        assert payload["n_var"] == 10
        assert [o["sense"] for o in payload["objectives"]] == ["min", "min"]
        assert payload["space"]["variables"][0]["kind"] == "continuous"
        assert any(p["name"] == "n_var" for p in payload["parameters"])
        assert any(t["name"] == "noise" for t in payload["transforms"])

    def test_spec_parameters_apply_to_the_description(self):
        payload = describe_problem("zdt1?n_var=5&noise=0.1")
        assert payload["n_var"] == 5
        assert payload["problem"] == "Noisy(ZDT1)"

    def test_max_sense_is_reported(self):
        # The photosynthesis problem maximizes uptake (sense -1 -> "max").
        payload = describe_problem("photosynthesis")
        senses = {o["name"]: o["sense"] for o in payload["objectives"]}
        assert senses["co2_uptake"] == "max"
        assert senses["nitrogen"] == "min"


# ---------------------------------------------------------------------------
# Properties of canonical spec strings
# ---------------------------------------------------------------------------
#: Values a string parameter accepts: the schema records types, not choices.
_STRING_CHOICES = {
    "era": ("past", "present", "future"),
    "export": ("low", "high"),
    "violation_norm": ("l1", "l2", "linf"),
}


def _values(parameter):
    """Values of one schema parameter's type (strings from its known choices)."""
    if parameter.type is bool:
        return st.booleans()
    if parameter.type is int:
        return st.integers(1, 40)
    if parameter.type is float:
        return st.floats(1e-3, 1e3)
    return st.sampled_from(_STRING_CHOICES.get(parameter.name, (parameter.default,)))


@st.composite
def _built_problems(draw):
    """A registered problem built with overrides drawn from its parameter schema."""
    name = draw(st.sampled_from(problem_names()))
    overrides = {
        parameter.name: draw(_values(parameter))
        for parameter in get_problem(name).parameters
        if draw(st.booleans())
    }
    try:
        return build_problem(name, **overrides)
    except ConfigurationError:
        reject()


class TestSpecStringProperties:
    @settings(max_examples=150, deadline=None)
    @given(problem=_built_problems())
    def test_a_canonical_spec_builds_the_same_spec(self, problem):
        assert build_problem(problem.spec).spec == problem.spec

    @settings(max_examples=150, deadline=None)
    @given(problem=_built_problems())
    def test_parsing_round_trips_the_canonical_string(self, problem):
        name, raw = parse_problem_spec(problem.spec)
        assert list(raw) == sorted(raw)
        query = "&".join("%s=%s" % item for item in raw.items())
        assert (name + "?" + query if raw else name) == problem.spec
