"""The PoP-level network graph.

:class:`Topology` wraps a :mod:`networkx` graph of PoPs and links and
provides the distance computations the paper's §4.1.1 heuristics need:

* entry-to-exit great-circle distance (EU ISP heuristic);
* shortest routed path with distance as the sum of traversed link lengths
  (Internet2 heuristic).

:mod:`networkx` is imported by the methods that use it, so importing
:mod:`repro` (whose NetFlow to quote chain builds no topology) does not
load it.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Optional

from repro.errors import TopologyError
from repro.geo.coords import City
from repro.topology.pop import Link, PoP


class Topology:
    """A named PoP-level network.

    PoPs are addressed by code.  Links are undirected and weighted by
    geographic length; routing is shortest-path on length.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise TopologyError("topology name must be non-empty")
        import networkx as nx

        self.name = name
        self._graph = nx.Graph()
        self._pops: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pop(self, code: str, city: City) -> PoP:
        """Register a PoP; codes must be unique."""
        if code in self._pops:
            raise TopologyError(f"duplicate PoP code {code!r} in {self.name}")
        pop = PoP(code=code, city=city)
        self._pops[code] = pop
        self._graph.add_node(code)
        return pop

    def add_link(
        self,
        a: str,
        b: str,
        length_miles: Optional[float] = None,
        capacity_gbps: float = 10.0,
    ) -> Link:
        """Connect two PoPs; length defaults to the great-circle distance."""
        pop_a = self.pop(a)
        pop_b = self.pop(b)
        if length_miles is None:
            length_miles = pop_a.distance_to(pop_b)
        link = Link(a=a, b=b, length_miles=length_miles, capacity_gbps=capacity_gbps)
        self._graph.add_edge(a, b, length=link.length_miles, link=link)
        return link

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def pop(self, code: str) -> PoP:
        try:
            return self._pops[code]
        except KeyError as exc:
            raise TopologyError(f"unknown PoP {code!r} in {self.name}") from exc

    @property
    def pop_codes(self) -> "list[str]":
        return sorted(self._pops)

    @property
    def pops(self) -> "list[PoP]":
        return [self._pops[code] for code in self.pop_codes]

    @property
    def links(self) -> "list[Link]":
        return [data["link"] for _, _, data in self._graph.edges(data=True)]

    def __len__(self) -> int:
        return len(self._pops)

    def __contains__(self, code: str) -> bool:
        return code in self._pops

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, pops={len(self)}, "
            f"links={self._graph.number_of_edges()})"
        )

    # ------------------------------------------------------------------
    # Distances (the §4.1.1 heuristics)
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        import networkx as nx

        return len(self) > 0 and nx.is_connected(self._graph)

    def geographic_distance(self, a: str, b: str) -> float:
        """Entry-to-exit great-circle distance (the EU-ISP heuristic)."""
        return self.pop(a).distance_to(self.pop(b))

    def shortest_path(self, a: str, b: str) -> "list[str]":
        """Shortest route by summed link length."""
        import networkx as nx

        self.pop(a)
        self.pop(b)
        try:
            return nx.shortest_path(self._graph, a, b, weight="length")
        except nx.NetworkXNoPath as exc:
            raise TopologyError(
                f"no route between {a!r} and {b!r} in {self.name}"
            ) from exc

    def routed_distance(self, a: str, b: str) -> float:
        """Summed link length along the shortest route (Internet2 heuristic)."""
        import networkx as nx

        self.pop(a)
        self.pop(b)
        try:
            return float(nx.shortest_path_length(self._graph, a, b, weight="length"))
        except nx.NetworkXNoPath as exc:
            raise TopologyError(
                f"no route between {a!r} and {b!r} in {self.name}"
            ) from exc

    def path_links(self, path: Iterable[str]) -> "list[Link]":
        """The link objects along a node path."""
        path = list(path)
        links = []
        for a, b in zip(path, path[1:]):
            data = self._graph.get_edge_data(a, b)
            if data is None:
                raise TopologyError(f"{a!r}-{b!r} is not a link in {self.name}")
            links.append(data["link"])
        return links

    def diameter_miles(self) -> float:
        """Longest shortest-route distance between any PoP pair."""
        import networkx as nx

        if not self.is_connected():
            raise TopologyError(f"{self.name} is not connected")
        return float(
            max(
                max(lengths.values())
                for _, lengths in nx.all_pairs_dijkstra_path_length(
                    self._graph, weight="length"
                )
            )
        )
