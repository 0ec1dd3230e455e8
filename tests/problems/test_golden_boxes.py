"""Golden decision boxes: every registered problem's box, byte for byte.

For each spec the fixture records three things a problem's box feeds:

* the sha256 of its ``design_space()`` JSON (sorted keys), which run
  manifests, the warm-start check and ``describe-problem`` print;
* the hex :func:`~repro.runtime.cachekeys.problem_digest`, which scopes
  every in-memory and on-disk cache key;
* the raw bytes of ``random_solution(np.random.default_rng(7))``, the
  single-draw stream every engine's initial population starts from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.problems.registry import build_problem, problem_names
from repro.runtime import cachekeys

GOLDEN_BOXES = Path(__file__).parent / "data" / "golden_boxes.json"

TRANSFORMED_SPECS = ("zdt1?normalized=1", "geobacter?normalized=1", "bnh?penalty=100")


def _specs() -> list[str]:
    return sorted(problem_names()) + list(TRANSFORMED_SPECS)


def _box_record(spec: str) -> dict:
    problem = build_problem(spec)
    box_json = json.dumps(problem.design_space(), sort_keys=True)
    return {
        "design_space.sha256": hashlib.sha256(box_json.encode("utf-8")).hexdigest(),
        "problem_digest": cachekeys.problem_digest(problem).hex(),
        "random_solution": problem.random_solution(np.random.default_rng(7)).tobytes().hex(),
    }


class TestGoldenBoxes:
    """Regenerate ``data/golden_boxes.json`` only for an intended change of a
    problem's box, with ``PYTHONPATH=src python -m tests.problems.test_golden_boxes``."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_BOXES.read_text())

    def test_every_spec_is_recorded(self, golden):
        assert sorted(golden) == sorted(_specs())

    @pytest.mark.parametrize("spec", _specs())
    def test_box_matches_golden(self, spec, golden):
        assert _box_record(spec) == golden[spec]


if __name__ == "__main__":  # regenerate the golden boxes
    golden = {spec: _box_record(spec) for spec in _specs()}
    GOLDEN_BOXES.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print("wrote %d specs to %s" % (len(golden), GOLDEN_BOXES))
