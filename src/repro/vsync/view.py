"""Views and view identifiers for partitionable virtual synchrony.

Following the paper (Section 5.1), a view identifier is the pair
``(coordinator, view-sequence-number)`` where the sequence number is a
counter local to the coordinator.  Because concurrent views of the same
group can exist in different partitions, views also carry their *parent*
view identifiers — the views they directly succeeded or merged — forming
a genealogy DAG.  The naming service uses this partial order to discard
obsolete mappings (Section 5.2), and the LWG layer uses it to decide
whether two views are concurrent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

ProcessId = str
GroupId = str


@dataclass(frozen=True, order=True)
class ViewId:
    """Globally unique view identifier: ``(coordinator, sequence-number)``.

    Ordering is lexicographic and used only for deterministic tie-breaks,
    never as a causality judgement — concurrency is decided through the
    genealogy (see :class:`ViewGenealogy`).
    """

    coordinator: ProcessId
    seq: int

    def __eq__(self, other: object) -> bool:
        # The generated ``__eq__`` builds two field tuples per call, and
        # the data path compares a message's view id with the installed
        # one several times per delivery — almost always the very same
        # object.  Hash and ordering stay the generated ones.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.seq == other.seq and self.coordinator == other.coordinator  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"{self.coordinator}#{self.seq}"


@dataclass(frozen=True)
class View:
    """An installed group view.

    Attributes:
        group: the group this view belongs to.
        view_id: unique identifier, minted by the installing coordinator.
        members: member processes in seniority order (oldest first); the
            first member is the view's coordinator by convention.
        parents: identifiers of the views this view directly succeeded.
            A view created by a partition-side view change has one parent
            (the pre-change view); a view created by a merge has one
            parent per merged branch; a founding singleton view has none.
    """

    group: GroupId
    view_id: ViewId
    members: Tuple[ProcessId, ...]
    parents: Tuple[ViewId, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a view must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members}")

    @property
    def coordinator(self) -> ProcessId:
        """The process responsible for sequencing and view changes."""
        return self.members[0]

    @property
    def member_set(self) -> FrozenSet[ProcessId]:
        return frozenset(self.members)

    def contains(self, process: ProcessId) -> bool:
        return process in self.members

    def rank_of(self, process: ProcessId) -> int:
        """Seniority rank (0 = oldest/coordinator)."""
        return self.members.index(process)

    def __str__(self) -> str:
        return f"View({self.group}@{self.view_id}: {','.join(self.members)})"


def merge_member_order(branches: Sequence[View]) -> Tuple[ProcessId, ...]:
    """Deterministic seniority order for a merged view.

    Branch member lists are concatenated in ascending branch-view-id
    order, preserving each branch's internal seniority and dropping
    duplicates.  Every process that observes the same set of branches
    computes the same order, so merges need no extra agreement round.
    """
    ordered: List[ProcessId] = []
    seen: Set[ProcessId] = set()
    for view in sorted(branches, key=lambda v: v.view_id):
        for member in view.members:
            if member not in seen:
                seen.add(member)
                ordered.append(member)
    return tuple(ordered)


class ViewGenealogy:
    """A DAG of view ancestry used to answer obsolescence queries.

    The genealogy is *append-only knowledge*: callers record
    ``view -> parents`` edges as they learn them (view installations,
    naming-service updates) and ask whether one view is an ancestor of
    another.  Unknown views are treated as having no known ancestry,
    which errs on the side of keeping information — exactly what a
    weakly-consistent naming service needs.
    """

    def __init__(self) -> None:
        self._parents: Dict[ViewId, Tuple[ViewId, ...]] = {}

    def record(self, view_id: ViewId, parents: Iterable[ViewId]) -> None:
        """Record that ``view_id`` directly succeeded ``parents``."""
        existing = self._parents.get(view_id)
        merged = tuple(sorted(set(existing or ()) | set(parents)))
        self._parents[view_id] = merged

    def record_view(self, view: View) -> None:
        """Convenience: record a :class:`View`'s parent edges."""
        self.record(view.view_id, view.parents)

    def clone(self) -> "ViewGenealogy":
        """Independent copy (edge tuples are immutable and shared)."""
        out = ViewGenealogy()
        out._parents = dict(self._parents)
        return out

    def parents_of(self, view_id: ViewId) -> Tuple[ViewId, ...]:
        return self._parents.get(view_id, ())

    def ancestors_of(self, view_id: ViewId) -> Set[ViewId]:
        """All known strict ancestors of ``view_id``."""
        out: Set[ViewId] = set()
        stack = list(self._parents.get(view_id, ()))
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            stack.extend(self._parents.get(current, ()))
        return out

    def is_ancestor(self, older: ViewId, newer: ViewId) -> bool:
        """True if ``older`` is a strict ancestor of ``newer``."""
        if older == newer:
            return False
        stack = list(self._parents.get(newer, ()))
        visited: Set[ViewId] = set()
        while stack:
            current = stack.pop()
            if current == older:
                return True
            if current in visited:
                continue
            visited.add(current)
            stack.extend(self._parents.get(current, ()))
        return False

    def concurrent(self, a: ViewId, b: ViewId) -> bool:
        """True if neither view is an ancestor of the other (and a != b)."""
        if a == b:
            return False
        return not self.is_ancestor(a, b) and not self.is_ancestor(b, a)

    def known_views(self) -> Set[ViewId]:
        """Every view id that appears in the genealogy (as child or parent)."""
        out: Set[ViewId] = set(self._parents)
        for parents in self._parents.values():
            out.update(parents)
        return out

    def merge_from(self, other: "ViewGenealogy") -> None:
        """Absorb every edge known by ``other`` (naming-service reconciliation)."""
        for view_id, parents in other._parents.items():
            self.record(view_id, parents)

    def edges(self) -> Dict[ViewId, Tuple[ViewId, ...]]:
        """A copy of the child -> parents edge map."""
        return dict(self._parents)
