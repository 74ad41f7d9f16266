"""Priority relations over the facts of an instance (Sections 2.3 and 7).

A *priority* ``≻`` on an instance ``I`` is an acyclic binary relation on
the facts of ``I``; ``f ≻ g`` reads "f has higher priority than g".  A
*prioritizing instance* is a pair ``(I, ≻)``.  In the classical setting
(Section 2.3), priorities are only allowed between *conflicting* facts; a
*ccp-instance* (cross-conflict-prioritizing, Section 7) drops that
restriction.

:class:`PriorityRelation` stores the edge set explicitly with successor /
predecessor adjacency, validates acyclicity on construction, and offers
the queries the checking algorithms need (`prefers`, `preferred_over`,
`improvers_of`).  :class:`PrioritizingInstance` bundles the instance, the
priority, and the schema, and validates the conflicting-facts restriction
unless ``ccp=True``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.conflicts import ConflictIndex
from repro.core.fact import Fact
from repro.core.instance import Instance
from repro.core.schema import Schema
from repro.exceptions import (
    CrossConflictPriorityError,
    CyclicPriorityError,
    InvalidPriorityError,
    NotASubinstanceError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.bitset_index import BitsetCore

__all__ = ["PriorityRelation", "PrioritizingInstance"]


class PriorityRelation:
    """An acyclic binary relation ``≻`` over facts.

    Parameters
    ----------
    edges:
        Pairs ``(f, g)`` meaning ``f ≻ g``.

    Raises
    ------
    CyclicPriorityError
        If the edges contain a directed cycle (including self-loops).

    Examples
    --------
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> pri = PriorityRelation([(f, g)])
    >>> pri.prefers(f, g)
    True
    >>> pri.prefers(g, f)
    False
    """

    __slots__ = ("_edges", "_successors", "_predecessors")

    def __init__(self, edges: Iterable[Tuple[Fact, Fact]] = ()) -> None:
        self._init_adjacency(frozenset(edges))
        cycle = self._find_cycle()
        if cycle is not None:
            raise CyclicPriorityError(cycle)

    def _init_adjacency(
        self, edge_set: FrozenSet[Tuple[Fact, Fact]]
    ) -> None:
        successors: Dict[Fact, Set[Fact]] = {}
        predecessors: Dict[Fact, Set[Fact]] = {}
        for better, worse in edge_set:
            successors.setdefault(better, set()).add(worse)
            predecessors.setdefault(worse, set()).add(better)
        self._edges = edge_set
        self._successors = {
            fact: frozenset(outs) for fact, outs in successors.items()
        }
        self._predecessors = {
            fact: frozenset(ins) for fact, ins in predecessors.items()
        }

    @classmethod
    def _from_acyclic(
        cls, edges: Iterable[Tuple[Fact, Fact]]
    ) -> "PriorityRelation":
        """Trusted constructor: the caller guarantees ``edges`` is acyclic.

        Skips the DFS cycle scan; used where acyclicity is preserved by
        construction — restrictions of an acyclic relation (every
        subgraph of a DAG is a DAG) and edges emitted along a known
        topological order.
        """
        relation = cls.__new__(cls)
        relation._init_adjacency(frozenset(edges))
        return relation

    def _find_cycle(self) -> Optional[List[Fact]]:
        """An iterative DFS cycle finder; returns a witness cycle or None."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[Fact, int] = {}
        parent: Dict[Fact, Optional[Fact]] = {}
        for root in self._successors:
            if color.get(root, WHITE) != WHITE:
                continue
            stack: List[Tuple[Fact, Iterator[Fact]]] = [
                (root, iter(self._successors.get(root, ())))
            ]
            color[root] = GRAY
            parent[root] = None
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    state = color.get(child, WHITE)
                    if state == GRAY:
                        # Found a back edge: reconstruct the cycle.
                        cycle = [node]
                        walker = node
                        while walker != child:
                            walker = parent[walker]  # type: ignore[assignment]
                            cycle.append(walker)
                        cycle.reverse()
                        return cycle
                    if state == WHITE:
                        color[child] = GRAY
                        parent[child] = node
                        stack.append(
                            (child, iter(self._successors.get(child, ())))
                        )
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    # -- construction ------------------------------------------------------------

    @classmethod
    def empty(cls) -> "PriorityRelation":
        """The empty priority (every repair is then optimal under all
        semantics, recovering classical subset repairs)."""
        return cls()

    def with_edges(
        self,
        edges: Iterable[Tuple[Fact, Fact]],
        assume_acyclic: bool = False,
    ) -> "PriorityRelation":
        """A new relation with ``edges`` added.

        Re-validates acyclicity by default; pass ``assume_acyclic=True``
        to skip the scan when the combined relation is acyclic by
        construction (e.g. the added edges follow a topological order of
        the existing relation, as the workload generators guarantee).
        """
        combined = self._edges | frozenset(edges)
        if assume_acyclic:
            return PriorityRelation._from_acyclic(combined)
        return PriorityRelation(combined)

    def restrict_to(self, facts: Iterable[Fact]) -> "PriorityRelation":
        """The restriction of ``≻`` to pairs inside ``facts``.

        Used by the per-relation decomposition of Proposition 3.5.  A
        restriction of an acyclic relation is acyclic, so no cycle
        re-validation is needed.
        """
        keep = facts if isinstance(facts, frozenset) else frozenset(facts)
        return PriorityRelation._from_acyclic(
            (f, g) for f, g in self._edges if f in keep and g in keep
        )

    # -- queries ------------------------------------------------------------------

    @property
    def edges(self) -> FrozenSet[Tuple[Fact, Fact]]:
        """All ``(better, worse)`` pairs."""
        return self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __bool__(self) -> bool:
        return bool(self._edges)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PriorityRelation):
            return self._edges == other._edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._edges)

    def prefers(self, better: Fact, worse: Fact) -> bool:
        """Whether ``better ≻ worse``."""
        return (better, worse) in self._edges

    def preferred_over(self, fact: Fact) -> FrozenSet[Fact]:
        """All facts ``g`` with ``fact ≻ g``."""
        return self._successors.get(fact, frozenset())

    def improvers_of(self, fact: Fact) -> FrozenSet[Fact]:
        """All facts ``g`` with ``g ≻ fact``."""
        return self._predecessors.get(fact, frozenset())

    def facts_mentioned(self) -> FrozenSet[Fact]:
        """Every fact occurring in some edge."""
        return frozenset(self._successors) | frozenset(self._predecessors)

    def is_total_on_conflicts(
        self,
        schema: Schema,
        instance: Instance,
        index: Optional[ConflictIndex] = None,
    ) -> bool:
        """Whether every conflicting pair of ``instance`` is ≻-comparable.

        Total priorities are the *completions* of Staworko et al.'s
        completion-optimal semantics.  Pass a prebuilt ``index`` over
        ``instance`` (e.g. :attr:`PrioritizingInstance.conflict_index`)
        to avoid rebuilding one per call.
        """
        if index is None:
            index = ConflictIndex(schema, instance)
        edges = self._edges
        for _, f, g in index.iter_conflicts():
            if (f, g) not in edges and (g, f) not in edges:
                return False
        return True

    def __repr__(self) -> str:
        return f"PriorityRelation({len(self._edges)} edges)"


class PrioritizingInstance:
    """A (possibly inconsistent) instance paired with a priority relation.

    Parameters
    ----------
    schema:
        The schema fixing the FDs.
    instance:
        The instance ``I``.
    priority:
        The relation ``≻`` over the facts of ``I``.
    ccp:
        When False (the classical setting of Section 2.3), every priority
        edge must relate two *conflicting* facts of ``I``; when True (the
        ccp-instances of Section 7) only acyclicity and membership in
        ``I`` are required.

    Examples
    --------
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> f, g = Fact("R", (1, "a")), Fact("R", (1, "b"))
    >>> inst = schema.instance([f, g])
    >>> pi = PrioritizingInstance(schema, inst, PriorityRelation([(f, g)]))
    >>> pi.priority.prefers(f, g)
    True
    """

    __slots__ = (
        "_schema",
        "_instance",
        "_priority",
        "_ccp",
        "_conflict_index",
        "_bitset_core",
    )

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        priority: PriorityRelation,
        ccp: bool = False,
    ) -> None:
        mentioned = priority.facts_mentioned()
        missing = mentioned - instance.facts
        if missing:
            raise InvalidPriorityError(
                f"priority mentions {len(missing)} fact(s) outside the "
                f"instance, e.g. {next(iter(missing))}"
            )
        index: Optional[ConflictIndex] = None
        if not ccp:
            index = ConflictIndex(schema, instance)
            for better, worse in priority.edges:
                if worse not in index.conflicts_of(better):
                    raise CrossConflictPriorityError(
                        f"priority edge {better} > {worse} relates "
                        f"non-conflicting facts; pass ccp=True for the "
                        f"cross-conflict setting of Section 7"
                    )
        self._schema = schema
        self._instance = instance
        self._priority = priority
        self._ccp = ccp
        # The index built for the classical-priority validation above is
        # kept (not discarded): every checker needs exactly this index
        # over I, and conflict_index hands it out.
        self._conflict_index = index
        self._bitset_core = None

    @classmethod
    def _from_validated(
        cls,
        schema: Schema,
        instance: Instance,
        priority: PriorityRelation,
        ccp: bool = False,
        conflict_index: Optional[ConflictIndex] = None,
    ) -> "PrioritizingInstance":
        """Trusted constructor: the caller guarantees the invariants.

        Skips the membership and conflicting-facts validation; used for
        restrictions of an already-validated prioritizing instance,
        where the invariants hold by construction.
        """
        prioritizing = cls.__new__(cls)
        prioritizing._schema = schema
        prioritizing._instance = instance
        prioritizing._priority = priority
        prioritizing._ccp = ccp
        prioritizing._conflict_index = conflict_index
        prioritizing._bitset_core = None
        return prioritizing

    @property
    def conflict_index(self) -> ConflictIndex:
        """A :class:`ConflictIndex` over the full instance ``I``, cached.

        Classical instances reuse the index their constructor built for
        the conflicting-facts validation; ccp instances (and trusted
        restrictions) build it lazily on first use.  All checkers share
        this one index — per-candidate questions go through its
        membership-filtered views.
        """
        index = self._conflict_index
        if index is None:
            index = ConflictIndex(self._schema, self._instance)
            self._conflict_index = index
        return index

    @property
    def bitset_core(self) -> "BitsetCore":
        """The columnar substrate the checkers run on, cached.

        Lazily interns the instance's facts and compiles the per-FD
        block partitions and the priority to id space
        (:class:`~repro.core.bitset_index.BitsetCore`); built on the
        first check of this instance and shared by all
        subsequent ones.
        """
        core = self._bitset_core
        if core is None:
            from repro.core.bitset_index import BitsetCore

            core = BitsetCore(self._schema, self._instance, self._priority)
            self._bitset_core = core
        return core

    @property
    def schema(self) -> Schema:
        """The schema fixing the FDs."""
        return self._schema

    @property
    def instance(self) -> Instance:
        """The instance ``I``."""
        return self._instance

    @property
    def priority(self) -> PriorityRelation:
        """The priority relation ``≻``."""
        return self._priority

    @property
    def is_ccp(self) -> bool:
        """Whether this is a cross-conflict-prioritizing instance."""
        return self._ccp

    def subinstance(self, facts: Iterable[Fact]) -> Instance:
        """A validated subinstance of ``I`` (raises if facts ⊄ I)."""
        return self._instance.subinstance(facts)

    def restrict_to_relation(self, name: str) -> "PrioritizingInstance":
        """The per-relation restriction of Proposition 3.5.

        Only valid in the classical setting; ccp priorities may cross
        relations, making the decomposition unsound, so this raises for
        ccp instances.
        """
        if self._ccp:
            raise InvalidPriorityError(
                "per-relation decomposition (Prop. 3.5) is unsound for "
                "ccp-instances"
            )
        restricted_instance = self._instance.restrict_to_relation(name)
        # Conflicts are intra-relation, so the restricted priority's
        # edges still relate conflicting facts of the restricted
        # instance; all invariants hold by construction and the trusted
        # path skips re-validating them.
        return PrioritizingInstance._from_validated(
            self._schema.restrict(name),
            restricted_instance,
            self._priority.restrict_to(restricted_instance.facts),
            ccp=False,
        )

    def __repr__(self) -> str:
        kind = "ccp" if self._ccp else "classical"
        return (
            f"PrioritizingInstance({len(self._instance)} facts, "
            f"{len(self._priority)} priority edges, {kind})"
        )
