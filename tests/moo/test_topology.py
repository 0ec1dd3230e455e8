"""Tests for archipelago migration topologies."""

import pytest

from repro.exceptions import ConfigurationError
from repro.moo.topology import (
    AllToAllTopology,
    IsolatedTopology,
    RandomTopology,
    RingTopology,
    StarTopology,
    topology_from_name,
)


class TestAllToAll:
    def test_every_pair_connected(self):
        topology = AllToAllTopology(4)
        assert topology.n_edges == 12
        for i in range(4):
            assert topology.destinations(i) == [j for j in range(4) if j != i]
        assert topology.is_connected()

    def test_two_islands_paper_configuration(self):
        topology = AllToAllTopology(2)
        assert topology.destinations(0) == [1]
        assert topology.destinations(1) == [0]


class TestRing:
    def test_successor_structure(self):
        topology = RingTopology(5)
        assert topology.destinations(0) == [1]
        assert topology.destinations(4) == [0]
        assert topology.sources(0) == [4]
        assert topology.n_edges == 5
        assert topology.is_connected()

    def test_single_island_has_no_edges(self):
        assert RingTopology(1).n_edges == 0


class TestStar:
    def test_hub_connected_to_all(self):
        topology = StarTopology(4)
        assert topology.destinations(0) == [1, 2, 3]
        assert topology.sources(0) == [1, 2, 3]
        assert topology.destinations(2) == [0]
        assert topology.is_connected()


class TestIsolated:
    def test_no_edges(self):
        topology = IsolatedTopology(3)
        assert topology.n_edges == 0
        assert not topology.is_connected()


class TestRandom:
    def test_connected_and_reproducible(self):
        a = RandomTopology(5, edge_probability=0.4, seed=3)
        b = RandomTopology(5, edge_probability=0.4, seed=3)
        assert a.is_connected()
        assert a.edges == b.edges

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            RandomTopology(3, edge_probability=0.0)


class TestCommon:
    def test_island_index_out_of_range(self):
        topology = RingTopology(3)
        with pytest.raises(ConfigurationError):
            topology.destinations(5)
        with pytest.raises(ConfigurationError):
            topology.sources(-1)

    def test_zero_islands_rejected(self):
        with pytest.raises(ConfigurationError):
            AllToAllTopology(0)

    def test_factory_by_name(self):
        assert isinstance(topology_from_name("all-to-all", 2), AllToAllTopology)
        assert isinstance(topology_from_name("broadcast", 2), AllToAllTopology)
        assert isinstance(topology_from_name("ring", 3), RingTopology)
        assert isinstance(topology_from_name("star", 3), StarTopology)
        assert isinstance(topology_from_name("isolated", 3), IsolatedTopology)
        assert isinstance(topology_from_name("random", 3, seed=1), RandomTopology)

    def test_factory_unknown_name(self):
        with pytest.raises(ConfigurationError):
            topology_from_name("mesh", 3)


#: Edge sets of every named topology for 2-5 islands, and of the random one
#: for seeds 0-4, as recorded by the networkx-backed implementation; the
#: adjacency-set version must draw the same random stream and reproduce them.
RECORDED_EDGES = {
    ('all-to-all', 2, None): [(0, 1), (1, 0)],
    ('all-to-all', 3, None): [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)],
    ('all-to-all', 4, None): [(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2)],
    ('all-to-all', 5, None): [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3)],
    ('ring', 2, None): [(0, 1), (1, 0)],
    ('ring', 3, None): [(0, 1), (1, 2), (2, 0)],
    ('ring', 4, None): [(0, 1), (1, 2), (2, 3), (3, 0)],
    ('ring', 5, None): [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    ('star', 2, None): [(0, 1), (1, 0)],
    ('star', 3, None): [(0, 1), (0, 2), (1, 0), (2, 0)],
    ('star', 4, None): [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)],
    ('star', 5, None): [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 0), (3, 0), (4, 0)],
    ('isolated', 2, None): [],
    ('isolated', 3, None): [],
    ('isolated', 4, None): [],
    ('isolated', 5, None): [],
    ('random', 2, 0): [(1, 0)],
    ('random', 3, 0): [(0, 2), (1, 0), (1, 2)],
    ('random', 4, 0): [(0, 2), (0, 3), (1, 0), (3, 2)],
    ('random', 5, 0): [(0, 2), (0, 3), (0, 4), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)],
    ('random', 2, 1): [(0, 1)],
    ('random', 3, 1): [(1, 0), (2, 0), (2, 1)],
    ('random', 4, 1): [(0, 3), (1, 2), (1, 3), (2, 1), (3, 0)],
    ('random', 5, 1): [(0, 3), (1, 0), (1, 2), (1, 4), (2, 1), (3, 0), (3, 2), (3, 4), (4, 0), (4, 1), (4, 2), (4, 3)],
    ('random', 2, 2): [(0, 1), (1, 0)],
    ('random', 3, 2): [(0, 1), (0, 2), (1, 2)],
    ('random', 4, 2): [(0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 3), (3, 2)],
    ('random', 5, 2): [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 0), (2, 4), (3, 0), (3, 2), (4, 2), (4, 3)],
    ('random', 2, 3): [(0, 1), (1, 0)],
    ('random', 3, 3): [(0, 1), (0, 2), (2, 0), (2, 1)],
    ('random', 4, 3): [(0, 1), (0, 2), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)],
    ('random', 5, 3): [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (1, 4), (2, 1), (2, 3), (3, 0), (4, 0), (4, 3)],
    ('random', 2, 4): [(1, 0)],
    ('random', 3, 4): [(0, 2), (2, 1)],
    ('random', 4, 4): [(1, 0), (1, 3), (2, 1), (3, 2)],
    ('random', 5, 4): [(0, 4), (1, 2), (1, 4), (2, 4), (3, 0), (3, 4), (4, 2)],
}


@pytest.mark.parametrize("name, n_islands, seed", sorted(RECORDED_EDGES, key=str))
def test_edge_sets_match_recorded(name, n_islands, seed):
    kwargs = {} if seed is None else {"seed": seed}
    topology = topology_from_name(name, n_islands, **kwargs)
    assert topology.edges == RECORDED_EDGES[name, n_islands, seed]
    assert topology.n_edges == len(topology.edges)
    for island in range(n_islands):
        assert topology.destinations(island) == [j for i, j in topology.edges if i == island]
        assert topology.sources(island) == [i for i, j in topology.edges if j == island]
