"""The traditional spine-full Clos fabric (Fig 1a).

Aggregation blocks connect to a layer of spine blocks; every AB spreads
its uplinks evenly across the spines, giving full any-to-any bandwidth at
the cost of the spine switches and a second transceiver on every uplink
hop.  This is the CapEx/power baseline that the spine-free design
eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple


from repro.core.errors import ConfigurationError
from repro.dcn.blocks import AggregationBlock

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class ClosFabric:
    """A two-tier spine-full fabric.

    Args:
        blocks: the aggregation blocks.
        num_spines: spine blocks; each AB splits its uplinks across all.
        spine_radix: ports per spine block.
    """

    blocks: List[AggregationBlock]
    num_spines: int = 16
    spine_radix: int = 512

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ConfigurationError("need at least one aggregation block")
        if self.num_spines <= 0:
            raise ConfigurationError("need at least one spine")
        for ab in self.blocks:
            if ab.uplinks % self.num_spines != 0:
                raise ConfigurationError(
                    f"{ab}: uplinks must divide evenly over {self.num_spines} spines"
                )
        needed = sum(ab.uplinks for ab in self.blocks)
        if needed > self.num_spines * self.spine_radix:
            raise ConfigurationError(
                f"spine layer has {self.num_spines * self.spine_radix} ports, "
                f"fabric needs {needed}"
            )

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def graph(self) -> nx.Graph:
        """AB <-> spine connectivity with per-edge capacity in Gb/s."""
        import networkx as nx  # only graph export needs it

        g = nx.Graph()
        for ab in self.blocks:
            g.add_node(f"ab-{ab.index}", kind="ab")
        for s in range(self.num_spines):
            g.add_node(f"spine-{s}", kind="spine")
        for ab in self.blocks:
            per_spine = ab.uplinks // self.num_spines
            for s in range(self.num_spines):
                g.add_edge(
                    f"ab-{ab.index}",
                    f"spine-{s}",
                    trunks=per_spine,
                    capacity_gbps=per_spine * ab.uplink_rate_gbps,
                )
        return g

    def pair_capacity_gbps(self, a: int, b: int) -> float:
        """Bandwidth available between two ABs through the spine layer.

        Limited by the smaller block's uplink bandwidth (the spine is
        non-blocking by construction here).
        """
        ab_a = self._block(a)
        ab_b = self._block(b)
        return min(ab_a.total_uplink_gbps, ab_b.total_uplink_gbps)

    # ------------------------------------------------------------------ #
    # Inventory for the cost model
    # ------------------------------------------------------------------ #

    def transceiver_count(self) -> int:
        """Optical modules: one at the AB end and one at the spine end of
        every uplink."""
        return 2 * sum(ab.uplinks for ab in self.blocks)

    def spine_switch_count(self) -> int:
        return self.num_spines

    def _block(self, index: int) -> AggregationBlock:
        for ab in self.blocks:
            if ab.index == index:
                return ab
        raise ConfigurationError(f"no block with index {index}")
