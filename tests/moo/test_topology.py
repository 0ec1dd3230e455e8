"""Tests for archipelago migration topologies."""

import pytest

from repro.exceptions import ConfigurationError
from repro.moo.topology import (
    AllToAllTopology,
    IsolatedTopology,
    topology_from_name,
)


def _edges(topology):
    return [(i, j) for i in range(topology.n_islands) for j in topology.destinations(i)]


class TestAllToAll:
    def test_every_pair_connected(self):
        topology = AllToAllTopology(4)
        assert len(_edges(topology)) == 12
        for i in range(4):
            assert topology.destinations(i) == [j for j in range(4) if j != i]

    def test_two_islands_paper_configuration(self):
        topology = AllToAllTopology(2)
        assert topology.destinations(0) == [1]
        assert topology.destinations(1) == [0]


class TestIsolated:
    def test_no_edges(self):
        assert _edges(IsolatedTopology(3)) == []


class TestCommon:
    def test_island_index_out_of_range(self):
        topology = AllToAllTopology(3)
        with pytest.raises(ConfigurationError):
            topology.destinations(5)
        with pytest.raises(ConfigurationError):
            topology.destinations(-1)

    def test_zero_islands_rejected(self):
        with pytest.raises(ConfigurationError):
            AllToAllTopology(0)

    def test_factory_by_name(self):
        assert isinstance(topology_from_name("all-to-all", 2), AllToAllTopology)
        assert isinstance(topology_from_name("isolated", 3), IsolatedTopology)

    @pytest.mark.parametrize("name", ["mesh", "broadcast", "ring", "star", "random", "ALL-TO-ALL"])
    def test_factory_accepts_only_the_two_names(self, name):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            topology_from_name(name, 3)


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
    assert _edges(topology_from_name(name, n_islands)) == RECORDED_EDGES[name, n_islands]
