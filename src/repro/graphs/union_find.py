"""Disjoint-set forests with component-member tracking.

The online :class:`~repro.core.engine.CoordinationEngine` needs, per
arrival, the *weakly* connected component of the newcomer in the
coordination graph.  A BFS answers that in O(component edges); a
union–find answers it in amortized O(α) per edge union plus O(1) per
lookup, and — because arrivals only ever *add* edges incident to the
newcomer — never has to handle edge deletion on the hot path.

Beyond the textbook structure, :class:`UnionFind` tracks the member
list of every root (merged small-into-large, so maintaining it costs
O(n log n) total over any union sequence) and supports
:meth:`discard_component`, which drops a whole component in
O(component).  That is the deletion granularity the engine needs: a
satisfied coordinating set (a downward-closed subset of one weak
component — usually not the whole component) is deleted by discarding
the component and installing the groups the *surviving* members fall
into, still O(component) total.  That discard + re-split idiom is
packaged as :meth:`split_component`, which is also how arbitrary
single-element deletion (query retraction) works: the forest cannot
split a component, but the caller owns the surviving edge set and
re-derives connectivity from it in O(component).
Every component carries the caller's count of its edges: set by
:meth:`add`, summed by a union, installed per group on a split.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

Element = Hashable


class UnionFind:
    """A disjoint-set forest over hashable elements.

    Union by size with iterative path compression; every root carries
    the list of its component's members so :meth:`members` is O(size of
    the answer), not O(n), and its component's edge count.
    """

    __slots__ = ("_parent", "_size", "_members", "_edges")

    def __init__(self) -> None:
        self._parent: Dict[Element, Element] = {}
        self._size: Dict[Element, int] = {}
        self._members: Dict[Element, List[Element]] = {}
        self._edges: Dict[Element, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element: Element, edges: int = 0) -> bool:
        """Add a singleton counting ``edges`` edges; ``False`` if known."""
        if element in self._parent:
            return False
        self._parent[element] = element
        self._size[element] = 1
        self._members[element] = [element]
        self._edges[element] = edges
        return True

    def union(self, a: Element, b: Element) -> Element:
        """Merge the components of ``a`` and ``b``; returns the root.

        Unknown elements are added implicitly (the engine unions along
        freshly discovered edges whose endpoints it just inserted).
        """
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size.pop(rb)
        self._members[ra].extend(self._members.pop(rb))
        self._edges[ra] += self._edges.pop(rb)
        return ra

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, element: Element) -> Element:
        """The component root of ``element`` (with path compression)."""
        parent = self._parent
        root = element
        while parent[root] != root:
            root = parent[root]
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def connected(self, a: Element, b: Element) -> bool:
        """``True`` when both elements are in the same component."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def members(self, element: Element) -> Tuple[Element, ...]:
        """All members of ``element``'s component."""
        return tuple(self._members[self.find(element)])

    def component_size(self, element: Element) -> int:
        """Size of ``element``'s component."""
        return self._size[self.find(element)]

    def edge_count(self, element: Element) -> int:
        """The edges counted inside ``element``'s component."""
        return self._edges[self.find(element)]

    def components(self) -> Iterator[Tuple[Element, ...]]:
        """Iterate over all components as member tuples."""
        for members in self._members.values():
            yield tuple(members)

    # ------------------------------------------------------------------
    # Deletion (whole components only)
    # ------------------------------------------------------------------
    def discard_component(self, element: Element) -> Tuple[Element, ...]:
        """Remove ``element``'s entire component; returns its members.

        O(component).  Single-element deletion is intentionally absent:
        splitting a component requires re-deriving connectivity from the
        surviving edges, which only the caller (who owns the edge set)
        can do — see :meth:`repro.core.engine.CoordinationEngine`.
        """
        if element not in self._parent:
            return ()
        root = self.find(element)
        dropped = self._members.pop(root)
        del self._size[root]
        del self._edges[root]
        for member in dropped:
            del self._parent[member]
        return tuple(dropped)

    def split_component(
        self, element: Element, groups: Iterable[Tuple[Sequence[Element], int]]
    ) -> None:
        """Replace ``element``'s component by ``(members, edges)`` groups,
        the components its survivors form, which the caller reads off its
        own edge structure.  O(component): how both satisfied-set removal
        and single-query retraction split a weak component."""
        self.discard_component(element)
        for members, edges in groups:
            root = members[0]
            for member in members:
                self._parent[member] = root
            self._size[root] = len(members)
            self._members[root] = list(members)
            self._edges[root] = edges

    def __contains__(self, element: Element) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def component_count(self) -> int:
        """Number of components."""
        return len(self._members)

    def __repr__(self) -> str:
        return f"UnionFind({len(self)} elements, {self.component_count()} components)"
