"""Tests for the archipelago's migration destinations."""

import pytest

from repro.exceptions import ConfigurationError
from repro.moo.archipelago import Archipelago, PMO2Config
from repro.moo.testproblems import Schaffer


def _archipelago(name, n_islands):
    return Archipelago(
        Schaffer(), PMO2Config(n_islands=n_islands, island_population_size=8, topology=name)
    )


def _edges(name, n_islands):
    archipelago = _archipelago(name, n_islands)
    return [(i, j) for i, targets in enumerate(archipelago.destinations) for j in targets]


class TestAllToAll:
    def test_every_pair_connected(self):
        destinations = _archipelago("all-to-all", 4).destinations
        assert sum(len(targets) for targets in destinations) == 12
        for i in range(4):
            assert destinations[i] == [j for j in range(4) if j != i]

    def test_two_islands_paper_configuration(self):
        assert _archipelago("all-to-all", 2).destinations == [[1], [0]]


class TestIsolated:
    def test_no_edges(self):
        assert _edges("isolated", 3) == []


class TestCommon:
    def test_zero_islands_rejected(self):
        with pytest.raises(ConfigurationError, match="n_islands"):
            PMO2Config(n_islands=0).validate()
        with pytest.raises(ConfigurationError, match="n_islands"):
            _archipelago("all-to-all", 0)

    def test_factory_by_name(self):
        assert PMO2Config().topology == "all-to-all"
        assert _archipelago("all-to-all", 2).destinations == [[1], [0]]
        assert _archipelago("isolated", 3).destinations == [[], [], []]

    def test_one_destination_list_per_island(self):
        for name in ("all-to-all", "isolated"):
            for n_islands in (1, 2, 5):
                archipelago = _archipelago(name, n_islands)
                assert len(archipelago.destinations) == len(archipelago.islands) == n_islands
                assert all(i not in targets for i, targets in enumerate(archipelago.destinations))

    @pytest.mark.parametrize("name", ["mesh", "broadcast", "ring", "star", "random", "ALL-TO-ALL"])
    def test_factory_accepts_only_the_two_names(self, name):
        with pytest.raises(ConfigurationError, match="topology must be one of"):
            PMO2Config(topology=name).validate()
        with pytest.raises(ConfigurationError, match="topology must be one of"):
            _archipelago(name, 3)


#: Edge sets of the named topologies for 2-5 islands, as recorded by the
#: networkx-backed implementation.
RECORDED_EDGES = {
    ('all-to-all', 2): [(0, 1), (1, 0)],
    ('all-to-all', 3): [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)],
    ('all-to-all', 4): [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2)],
    ('all-to-all', 5): [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3)],
    ('isolated', 2): [],
    ('isolated', 3): [],
    ('isolated', 4): [],
    ('isolated', 5): [],
}


@pytest.mark.parametrize("name, n_islands", sorted(RECORDED_EDGES))
def test_edge_sets_match_recorded(name, n_islands):
    assert _edges(name, n_islands) == RECORDED_EDGES[name, n_islands]
