"""Archipelago migration topologies.

The paper's PMO2 framework lets islands exchange candidate solutions along an
archipelago topology (Sec. 2.1).  The adopted configuration is the
all-to-all (broadcast) topology over two islands; the isolated topology (no
migration at all) is the baseline of the migration ablation.

A topology is a mapping ``island index -> list of destination island
indices``, stored as one set of destinations per island.
"""

from __future__ import annotations

import abc

from repro.exceptions import ConfigurationError

__all__ = [
    "Topology",
    "AllToAllTopology",
    "IsolatedTopology",
    "topology_from_name",
]


class Topology(abc.ABC):
    """Abstract directed migration topology over ``n_islands`` islands."""

    def __init__(self, n_islands: int) -> None:
        if n_islands <= 0:
            raise ConfigurationError("a topology needs at least one island")
        self.n_islands = int(n_islands)
        self._successors: list[set[int]] = [set() for _ in range(self.n_islands)]
        self._build()

    @abc.abstractmethod
    def _build(self) -> None:
        """Populate :attr:`_successors` with directed migration edges."""

    def destinations(self, island: int) -> list[int]:
        """Islands that receive migrants emitted by ``island``."""
        if island < 0 or island >= self.n_islands:
            raise ConfigurationError("island index out of range")
        return sorted(self._successors[island])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(n_islands=%d, edges=%d)" % (
            type(self).__name__,
            self.n_islands,
            sum(len(targets) for targets in self._successors),
        )


class AllToAllTopology(Topology):
    """Broadcast topology: every island sends to every other island.

    This is the topology used by the paper's adopted PMO2 configuration.
    """

    def _build(self) -> None:
        for i in range(self.n_islands):
            for j in range(self.n_islands):
                if i != j:
                    self._successors[i].add(j)


class IsolatedTopology(Topology):
    """No migration at all; used as the ablation baseline for PMO2."""

    def _build(self) -> None:
        return


_NAMED_TOPOLOGIES = {
    "all-to-all": AllToAllTopology,
    "isolated": IsolatedTopology,
}


def topology_from_name(name: str, n_islands: int) -> Topology:
    """Build the topology named ``all-to-all`` or ``isolated``."""
    if name not in _NAMED_TOPOLOGIES:
        raise ConfigurationError(
            "unknown topology %r; expected one of %s" % (name, sorted(_NAMED_TOPOLOGIES))
        )
    return _NAMED_TOPOLOGIES[name](n_islands)
