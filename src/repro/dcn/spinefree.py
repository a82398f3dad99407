"""The spine-free direct-connect fabric (Fig 1b).

Aggregation-block uplinks terminate on OCSes instead of spine switches;
cross-connects stitch them into direct AB-to-AB trunks.  The trunk
allocation (how many uplinks point at each peer) is the *topology
engineering* degree of freedom: uniform for unknown traffic, demand-aware
via :mod:`repro.dcn.topology_engineering` for long-lived patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, TopologyError
from repro.dcn.blocks import AggregationBlock

if TYPE_CHECKING:
    import networkx as nx

TrunkMatrix = np.ndarray  # integer trunks[i, j], symmetric, zero diagonal


def _round_robin_matchings(num_blocks: int):
    """Disjoint (near-)perfect matchings via the circle method.

    Yields ``num_blocks - 1`` rounds for even counts (perfect matchings);
    odd counts get a bye each round.
    """
    n = num_blocks if num_blocks % 2 == 0 else num_blocks + 1
    others = list(range(1, n))
    for r in range(n - 1):
        rot = others[r:] + others[:r]
        row = [0] + rot
        pairs = []
        for i in range(n // 2):
            a, b = row[i], row[n - 1 - i]
            if a < num_blocks and b < num_blocks:  # skip the bye
                pairs.append((a, b))
        yield pairs


def uniform_mesh_trunks(num_blocks: int, uplinks: int) -> TrunkMatrix:
    """Spread each block's uplinks evenly over all peers.

    The canonical demand-oblivious allocation.  Remainder trunks (when
    ``uplinks`` does not divide by ``num_blocks - 1``) are placed on
    disjoint round-robin matchings so no row exceeds its uplink budget.
    """
    if num_blocks < 2:
        raise ConfigurationError("need at least two blocks for a mesh")
    if uplinks <= 0:
        raise ConfigurationError("uplinks must be positive")
    base = uplinks // (num_blocks - 1)
    trunks = np.full((num_blocks, num_blocks), base, dtype=int)
    np.fill_diagonal(trunks, 0)
    remainder = uplinks - base * (num_blocks - 1)
    for round_index, pairs in enumerate(_round_robin_matchings(num_blocks)):
        if round_index >= remainder:
            break
        for i, j in pairs:
            trunks[i, j] += 1
            trunks[j, i] += 1
    return trunks


@dataclass
class SpineFreeFabric:
    """A direct-connect fabric over OCSes.

    ``trunks[i, j]`` counts the fiber trunks cross-connected between
    blocks i and j; each trunk carries the pair's interoperable rate.
    """

    blocks: List[AggregationBlock]
    trunks: TrunkMatrix

    def __post_init__(self) -> None:
        n = len(self.blocks)
        if n < 2:
            raise ConfigurationError("need at least two blocks")
        t = np.asarray(self.trunks)
        if t.shape != (n, n):
            raise ConfigurationError(f"trunk matrix must be {n}x{n}, got {t.shape}")
        if not np.array_equal(t, t.T):
            raise ConfigurationError("trunk matrix must be symmetric")
        if np.any(np.diag(t) != 0):
            raise ConfigurationError("no self-trunks allowed")
        if np.any(t < 0):
            raise ConfigurationError("trunk counts must be non-negative")
        for i, ab in enumerate(self.blocks):
            used = int(t[i].sum())
            if used > ab.uplinks:
                raise ConfigurationError(
                    f"{ab}: {used} trunks exceed {ab.uplinks} uplinks"
                )
        self.trunks = t

    @classmethod
    def uniform(cls, blocks: List[AggregationBlock]) -> "SpineFreeFabric":
        """The demand-oblivious uniform mesh."""
        uplinks = min(ab.uplinks for ab in blocks)
        return cls(blocks, uniform_mesh_trunks(len(blocks), uplinks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def capacity_gbps(self, i: int, j: int) -> float:
        """Direct capacity between blocks i and j."""
        if i == j:
            return 0.0
        self._check(i)
        self._check(j)
        rate = self.blocks[i].link_rate_gbps(self.blocks[j])
        return float(self.trunks[i, j]) * rate

    def capacity_matrix_gbps(self) -> np.ndarray:
        """Full pairwise direct-capacity matrix."""
        n = self.num_blocks
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j and self.trunks[i, j] > 0:
                    out[i, j] = self.capacity_gbps(i, j)
        return out

    def graph(self) -> nx.Graph:
        """AB-level connectivity graph with trunk counts and capacity."""
        import networkx as nx  # only graph export needs it

        g = nx.Graph()
        for ab in self.blocks:
            g.add_node(f"ab-{ab.index}", kind="ab")
        n = self.num_blocks
        for i in range(n):
            for j in range(i + 1, n):
                if self.trunks[i, j] > 0:
                    g.add_edge(
                        f"ab-{i}",
                        f"ab-{j}",
                        trunks=int(self.trunks[i, j]),
                        capacity_gbps=self.capacity_gbps(i, j),
                    )
        return g

    def reconfigure(self, new_trunks: TrunkMatrix) -> int:
        """Adopt a new trunk allocation; returns circuits changed.

        The OCS layer makes this a cross-connect update, not a recable:
        the return value counts the trunk differences (each is one OCS
        circuit to move).
        """
        before = self.trunks.copy()
        self.trunks = new_trunks
        try:
            self.__post_init__()
        except ConfigurationError:
            self.trunks = before
            raise
        return int(np.abs(new_trunks - before).sum() // 2)

    # ------------------------------------------------------------------ #
    # Inventory for the cost model
    # ------------------------------------------------------------------ #

    def transceiver_count(self) -> int:
        """One module per uplink at the AB end only -- the OCS is passive."""
        return sum(ab.uplinks for ab in self.blocks)

    def ocs_count(self, ocs_radix: int = 128) -> int:
        """OCSes needed to terminate every uplink (duplex port per trunk)."""
        total_uplinks = sum(ab.uplinks for ab in self.blocks)
        return -(-total_uplinks // ocs_radix)

    def _check(self, i: int) -> None:
        if not 0 <= i < self.num_blocks:
            raise TopologyError(f"block {i} out of range [0, {self.num_blocks})")
