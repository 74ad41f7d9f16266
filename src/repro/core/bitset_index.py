"""The columnar bitset core: conflicts, blocks, and priorities in id space.

This module is the data substrate every tractable checker, the Pareto
and completion checks, and the improvement search run on.  Facts are
interned to dense integer ids
(:class:`~repro.core.interning.FactInterner`); every per-fact attribute
becomes a flat list indexed by id, and every fact *set* becomes a stdlib
``int`` bitmask, so the set algebra the checkers run per candidate —
"which kept facts conflict with this outsider", "is every evicted fact
dominated by the incoming block" — turns into word-parallel ``&``/``|``
operations and O(1) array probes.

Layout
------
For each non-trivial FD ``δ = R : A → B`` a :class:`_FDLayout` compiles
the *block partition* of the paper (Section 4.1) once:

* facts of ``R`` are grouped by their ``A``-projection (an lhs *group*)
  and, within a group, subgrouped by their ``B``-projection (an rhs
  *block*);
* each fact gets a *local* bit position inside its group, so per-group
  masks stay small ints whose cost tracks the group size, not the
  instance size;
* flat arrays ``group_of`` / ``local_of`` / ``rhs_of`` map a fact id to
  its (group, local bit, rhs block) coordinates in O(1).

Two facts δ-conflict iff they share a group and sit in different rhs
blocks, so a candidate's entire conflict structure w.r.t. δ is captured
by one small mask per group (its *kept* facts) plus the kept block index
— exactly what :class:`BitsetCandidate` extracts in one O(|J|) pass.

:class:`BitsetConflictIndex` exposes the same query surface as the
object :class:`~repro.core.conflicts.ConflictIndex`
(``is_consistent_subset``, ``conflicts_of_in``,
``conflicts_with_anything_in``, ``adjacency``, ...), answered from the
layouts.  :class:`BitsetPriority` compiles the priority relation to
id space: per-layout masks of in-group improvers/dominated facts (all
the block-swap and Pareto tests ever compare against are in-group), plus
global per-fact masks for the improvement search.  :class:`BitsetCore`
bundles the three and is cached on
:attr:`~repro.core.priority.PrioritizingInstance.bitset_core`.

The oracle conformance suite holds every checker built on this core to
the definitional oracle (:mod:`repro.testing.oracle`), and the retained
``*_literal`` checkers give a second, independent reference.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.interning import FactInterner, iter_bits
from repro.core.schema import Schema

__all__ = [
    "BitsetConflictIndex",
    "BitsetPriority",
    "BitsetCore",
    "BitsetCandidate",
]


class _FDLayout:
    """The block partition of one FD, compiled to id-space arrays."""

    __slots__ = (
        "fd",
        "group_count",
        "group_of",
        "local_of",
        "rhs_of",
        "group_members",
        "group_rhs_subs",
        "group_all",
        "group_lhs_values",
        "group_rhs_values",
        "group_index_by_lhs",
        "rhs_index_by_group",
    )

    def __init__(self, fd: FD, interner: FactInterner) -> None:
        self.fd = fd
        lhs_sorted = fd.lhs_sorted
        rhs_sorted = fd.rhs_sorted
        relation = fd.relation
        n = len(interner)
        group_of = [-1] * n
        local_of = [0] * n
        rhs_of = [0] * n
        group_index_by_lhs: Dict[Tuple, int] = {}
        group_members: List[List[int]] = []
        group_rhs_subs: List[List[int]] = []
        group_lhs_values: List[Tuple] = []
        group_rhs_values: List[List[Tuple]] = []
        rhs_index_by_group: List[Dict[Tuple, int]] = []
        # Facts are visited in id order, so group and block numbering —
        # hence every downstream scan — is deterministic.
        for fid, fact in enumerate(interner.facts):
            if fact.relation != relation:
                continue
            lhs_value = fact.project(lhs_sorted)
            group = group_index_by_lhs.get(lhs_value)
            if group is None:
                group = len(group_members)
                group_index_by_lhs[lhs_value] = group
                group_members.append([])
                group_rhs_subs.append([])
                group_lhs_values.append(lhs_value)
                group_rhs_values.append([])
                rhs_index_by_group.append({})
            members = group_members[group]
            local = len(members)
            members.append(fid)
            rhs_value = fact.project(rhs_sorted)
            rhs_map = rhs_index_by_group[group]
            sub = rhs_map.get(rhs_value)
            if sub is None:
                sub = len(group_rhs_subs[group])
                rhs_map[rhs_value] = sub
                group_rhs_subs[group].append(0)
                group_rhs_values[group].append(rhs_value)
            group_rhs_subs[group][sub] |= 1 << local
            group_of[fid] = group
            local_of[fid] = local
            rhs_of[fid] = sub
        self.group_count = len(group_members)
        self.group_of = group_of
        self.local_of = local_of
        self.rhs_of = rhs_of
        self.group_members = group_members
        self.group_rhs_subs = group_rhs_subs
        self.group_all = [(1 << len(m)) - 1 for m in group_members]
        self.group_lhs_values = group_lhs_values
        self.group_rhs_values = group_rhs_values
        self.group_index_by_lhs = group_index_by_lhs
        self.rhs_index_by_group = rhs_index_by_group


class BitsetConflictIndex:
    """Columnar twin of :class:`~repro.core.conflicts.ConflictIndex`.

    Same query surface, same answers (the conformance suite holds both
    to the oracle case by case), different substrate: per-FD block
    partitions compiled to id-space arrays and local bitmasks.

    Examples
    --------
    >>> from repro.core import Schema, Fact
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> inst = schema.instance([Fact("R", (1, "a")), Fact("R", (1, "b"))])
    >>> index = BitsetConflictIndex(schema, inst)
    >>> index.is_consistent()
    False
    >>> index.is_consistent_subset({Fact("R", (1, "a"))})
    True
    """

    __slots__ = (
        "_schema",
        "_instance",
        "_interner",
        "_layouts",
        "_layout_by_fd",
        "_conflict_masks",
        "_adjacency",
    )

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        interner: Optional[FactInterner] = None,
    ) -> None:
        self._schema = schema
        self._instance = instance
        self._interner = interner if interner is not None else FactInterner(
            instance
        )
        self._layout_by_fd: Dict[FD, _FDLayout] = {}
        layouts: List[_FDLayout] = []
        for _, fdset in schema.per_relation():
            for fd in fdset:
                if fd.is_trivial() or fd in self._layout_by_fd:
                    continue
                layout = _FDLayout(fd, self._interner)
                self._layout_by_fd[fd] = layout
                layouts.append(layout)
        self._layouts = layouts
        self._conflict_masks: Optional[List[int]] = None
        self._adjacency: Optional[Dict[Fact, FrozenSet[Fact]]] = None

    @property
    def schema(self) -> Schema:
        """The schema whose FDs drive the index."""
        return self._schema

    @property
    def instance(self) -> Instance:
        """The indexed instance."""
        return self._instance

    @property
    def interner(self) -> FactInterner:
        """The fact ↔ id bijection the layouts are built over."""
        return self._interner

    @property
    def layouts(self) -> List[_FDLayout]:
        """The compiled block partitions of the schema's non-trivial FDs."""
        return self._layouts

    def layout_for(self, fd: FD) -> _FDLayout:
        """The block partition of ``fd``, compiled once and cached.

        The witness FDs the classifiers hand to the checkers
        (``equivalent_single_fd`` / ``equivalent_two_keys``) need not be
        schema members; their layouts are built on first use.
        """
        layout = self._layout_by_fd.get(fd)
        if layout is None:
            layout = _FDLayout(fd, self._interner)
            self._layout_by_fd[fd] = layout
        return layout

    # -- whole-instance and subset queries ---------------------------------------------

    def is_consistent(self) -> bool:
        """Whether the instance satisfies every FD."""
        for layout in self._layouts:
            for subs in layout.group_rhs_subs:
                if len(subs) > 1:
                    return False
        return True

    def is_consistent_subset(self, members: AbstractSet[Fact]) -> bool:
        """Whether the subinstance ``members ⊆ I`` satisfies every FD."""
        ids = self._interner.ids
        fids = [fid for fid in map(ids.get, members) if fid is not None]
        for layout in self._layouts:
            group_of = layout.group_of
            rhs_of = layout.rhs_of
            seen: Dict[int, int] = {}
            for fid in fids:
                group = group_of[fid]
                if group < 0:
                    continue
                sub = rhs_of[fid]
                prior = seen.get(group)
                if prior is None:
                    seen[group] = sub
                elif prior != sub:
                    return False
        return True

    def iter_conflicts(self) -> Iterator[Tuple[FD, Fact, Fact]]:
        """Yield ``(δ, f, g)`` for every δ-conflict ``{f, g}`` once."""
        fact_of = self._interner.fact_of
        for layout in self._layouts:
            fd = layout.fd
            for group, subs in enumerate(layout.group_rhs_subs):
                if len(subs) < 2:
                    continue
                members = layout.group_members[group]
                subgroups = [
                    [members[local] for local in iter_bits(sub)]
                    for sub in subs
                ]
                for i, left_group in enumerate(subgroups):
                    for right_group in subgroups[i + 1 :]:
                        for f in left_group:
                            for g in right_group:
                                yield fd, fact_of(f), fact_of(g)

    # -- per-fact probes (fact need not be interned) -----------------------------------

    def _probe(self, fact: Fact) -> Iterator[Tuple[_FDLayout, int, Tuple]]:
        """Yield ``(layout, group, fact's rhs value)`` per applicable FD."""
        for fd in self._schema.fds_for(fact.relation):
            if fd.is_trivial():
                continue
            layout = self.layout_for(fd)
            group = layout.group_index_by_lhs.get(fact.project(fd.lhs_sorted))
            if group is None:
                continue
            yield layout, group, fact.project(fd.rhs_sorted)

    def conflicts_of(self, fact: Fact) -> FrozenSet[Fact]:
        """All facts of the instance conflicting with ``fact``.

        As with the object index, ``fact`` itself need not belong to
        the instance.
        """
        fact_of = self._interner.fact_of
        result: List[Fact] = []
        for layout, group, rhs_value in self._probe(fact):
            members = layout.group_members[group]
            for sub, sub_value in enumerate(layout.group_rhs_values[group]):
                if sub_value == rhs_value:
                    continue
                result.extend(
                    fact_of(members[local])
                    for local in iter_bits(layout.group_rhs_subs[group][sub])
                )
        return frozenset(result)

    def conflicts_of_in(
        self, fact: Fact, members: AbstractSet[Fact]
    ) -> FrozenSet[Fact]:
        """The conflicts of ``fact`` that belong to ``members ⊆ I``."""
        return frozenset(
            conflicting
            for conflicting in self.conflicts_of(fact)
            if conflicting in members
        )

    def conflicts_with_anything(self, fact: Fact) -> bool:
        """Whether ``fact`` conflicts with at least one indexed fact."""
        for layout, group, rhs_value in self._probe(fact):
            for sub_value in layout.group_rhs_values[group]:
                if sub_value != rhs_value:
                    return True
        return False

    def conflicts_with_anything_in(
        self, fact: Fact, members: AbstractSet[Fact]
    ) -> bool:
        """Whether ``fact`` conflicts with at least one fact of
        ``members ⊆ I``."""
        fact_of = self._interner.fact_of
        for layout, group, rhs_value in self._probe(fact):
            group_members = layout.group_members[group]
            for sub, sub_value in enumerate(layout.group_rhs_values[group]):
                if sub_value == rhs_value:
                    continue
                for local in iter_bits(layout.group_rhs_subs[group][sub]):
                    if fact_of(group_members[local]) in members:
                        return True
        return False

    # -- whole-graph views -------------------------------------------------------------

    def conflict_masks(self) -> List[int]:
        """Per-fact global conflict masks (the conflict graph, columnar).

        ``conflict_masks()[fid]`` has a bit per instance fact
        conflicting with fact ``fid``.  Built lazily — the hot per-
        candidate paths work group-locally and never need it; the
        completion greedy and the improvement search do.
        """
        masks = self._conflict_masks
        if masks is None:
            masks = [0] * len(self._interner)
            for layout in self._layouts:
                for group, subs in enumerate(layout.group_rhs_subs):
                    if len(subs) < 2:
                        continue
                    members = layout.group_members[group]
                    sub_globals = []
                    for sub in subs:
                        sub_global = 0
                        for local in iter_bits(sub):
                            sub_global |= 1 << members[local]
                        sub_globals.append(sub_global)
                    group_global = 0
                    for sub_global in sub_globals:
                        group_global |= sub_global
                    rhs_of = layout.rhs_of
                    for fid in members:
                        masks[fid] |= group_global ^ sub_globals[rhs_of[fid]]
            self._conflict_masks = masks
        return masks

    def adjacency(self) -> Dict[Fact, FrozenSet[Fact]]:
        """The conflict graph as a ``Fact``-level adjacency map, cached.

        Same contract as the object index: isolated facts map to an
        empty set, the key set is exactly the instance.
        """
        adjacency = self._adjacency
        if adjacency is None:
            interner = self._interner
            adjacency = {
                interner.fact_of(fid): interner.frozenset_of(mask)
                for fid, mask in enumerate(self.conflict_masks())
            }
            self._adjacency = adjacency
        return adjacency


class BitsetPriority:
    """The priority relation ``≻`` compiled to id space.

    Per-layout *local* views answer the block-swap and Pareto tests:
    those only ever compare a fact against members of its own lhs-group,
    so ``preferred_local(layout)[fid]`` / ``improvers_local(layout)[fid]``
    are masks over the group's local bit positions — small ints whose
    cost tracks the group size.  Global per-fact masks
    (:meth:`improvers_masks`, :meth:`preferred_masks`) serve the
    improvement search, which reasons across groups.
    """

    __slots__ = (
        "_interner",
        "_priority",
        "_edge_ids",
        "_local_preferred",
        "_local_improvers",
        "_improvers_masks",
        "_preferred_masks",
    )

    def __init__(self, interner: FactInterner, priority: object) -> None:
        self._interner = interner
        self._priority = priority
        id_of = interner.ids
        self._edge_ids: List[Tuple[int, int]] = sorted(
            (id_of[better], id_of[worse])
            for better, worse in priority.edges  # type: ignore[attr-defined]
        )
        self._local_preferred: Dict[FD, List[int]] = {}
        self._local_improvers: Dict[FD, List[int]] = {}
        self._improvers_masks: Optional[List[int]] = None
        self._preferred_masks: Optional[List[int]] = None

    @property
    def edge_ids(self) -> List[Tuple[int, int]]:
        """The priority edges as sorted ``(better_id, worse_id)`` pairs."""
        return self._edge_ids

    def _compile_local(self, layout: _FDLayout) -> None:
        n = len(self._interner)
        preferred = [0] * n
        improvers = [0] * n
        group_of = layout.group_of
        local_of = layout.local_of
        for better, worse in self._edge_ids:
            group = group_of[better]
            if group < 0 or group != group_of[worse]:
                continue
            preferred[better] |= 1 << local_of[worse]
            improvers[worse] |= 1 << local_of[better]
        self._local_preferred[layout.fd] = preferred
        self._local_improvers[layout.fd] = improvers

    def preferred_local(self, layout: _FDLayout) -> List[int]:
        """Per fact: the in-group facts it is preferred over (local bits)."""
        masks = self._local_preferred.get(layout.fd)
        if masks is None:
            self._compile_local(layout)
            masks = self._local_preferred[layout.fd]
        return masks

    def improvers_local(self, layout: _FDLayout) -> List[int]:
        """Per fact: its in-group improvers (local bits)."""
        masks = self._local_improvers.get(layout.fd)
        if masks is None:
            self._compile_local(layout)
            masks = self._local_improvers[layout.fd]
        return masks

    def improvers_masks(self) -> List[int]:
        """Per fact: the global mask of its improvers (``g ≻ fact``)."""
        masks = self._improvers_masks
        if masks is None:
            masks = [0] * len(self._interner)
            for better, worse in self._edge_ids:
                masks[worse] |= 1 << better
            self._improvers_masks = masks
        return masks

    def preferred_masks(self) -> List[int]:
        """Per fact: the global mask of facts it is preferred over."""
        masks = self._preferred_masks
        if masks is None:
            masks = [0] * len(self._interner)
            for better, worse in self._edge_ids:
                masks[better] |= 1 << worse
            self._preferred_masks = masks
        return masks

    def prefers_ids(self, better: int, worse: int) -> bool:
        """Whether the fact with id ``better`` is preferred to ``worse``."""
        return bool(self.preferred_masks()[better] >> worse & 1)


class BitsetCandidate:
    """One candidate repair ``J``, viewed through the columnar layouts.

    Construction is a single O(|J|) pass; the per-layout *kept*
    structures — for each lhs-group, the local mask of candidate facts
    and the rhs block they sit in — are extracted once per layout on
    first use and shared by the precheck, the Pareto search, and the
    block-swap scan of one check call.
    """

    __slots__ = ("core", "fids", "in_cand", "stray_facts", "_kept")

    def __init__(self, core: "BitsetCore", facts: Iterable[Fact]) -> None:
        self.core = core
        ids = core.interner.ids
        fids: List[int] = []
        stray: List[Fact] = []
        for fact in facts:
            fid = ids.get(fact)
            if fid is None:
                stray.append(fact)
            else:
                fids.append(fid)
        fids.sort()
        self.fids = fids
        self.stray_facts = stray
        in_cand = bytearray(len(core.interner))
        for fid in fids:
            in_cand[fid] = 1
        self.in_cand = in_cand
        self._kept: Dict[FD, Tuple[List[int], List[int], Optional[int]]] = {}

    def kept_for(
        self, layout: _FDLayout
    ) -> Tuple[List[int], List[int], Optional[int]]:
        """``(kept, kept_rhs, clash)`` for one layout, cached.

        ``kept[g]`` is the local mask of candidate facts in group ``g``;
        ``kept_rhs[g]`` the rhs block they share (-1 when the group has
        no candidate facts); ``clash`` a witness group holding candidate
        facts from *two* rhs blocks (i.e. the candidate is inconsistent
        w.r.t. this FD), or None.
        """
        cached = self._kept.get(layout.fd)
        if cached is not None:
            return cached
        kept = [0] * layout.group_count
        kept_rhs = [-1] * layout.group_count
        clash: Optional[int] = None
        group_of = layout.group_of
        local_of = layout.local_of
        rhs_of = layout.rhs_of
        for fid in self.fids:
            group = group_of[fid]
            if group < 0:
                continue
            sub = rhs_of[fid]
            prior = kept_rhs[group]
            if prior < 0:
                kept_rhs[group] = sub
            elif prior != sub and clash is None:
                clash = group
            kept[group] |= 1 << local_of[fid]
        result = (kept, kept_rhs, clash)
        self._kept[layout.fd] = result
        return result

    def mask(self) -> int:
        """The candidate as a global bitmask."""
        return self.core.interner.mask_of(
            self.core.interner.fact_of(fid) for fid in self.fids
        )

    def outsider_ids(self) -> Iterator[int]:
        """Ids of instance facts outside the candidate, ascending."""
        in_cand = self.in_cand
        for fid in range(len(in_cand)):
            if not in_cand[fid]:
                yield fid


class BitsetCore:
    """The bundled bitset substrate of one prioritizing instance.

    Cached on :attr:`PrioritizingInstance.bitset_core
    <repro.core.priority.PrioritizingInstance.bitset_core>`; every
    check of that instance shares the interner, the
    block-partition layouts, and the compiled priority.
    """

    __slots__ = ("interner", "index", "priority")

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        priority: object,
        interner: Optional[FactInterner] = None,
    ) -> None:
        self.interner = interner if interner is not None else FactInterner(
            instance
        )
        self.index = BitsetConflictIndex(schema, instance, self.interner)
        self.priority = BitsetPriority(self.interner, priority)

    @property
    def layouts(self) -> List[_FDLayout]:
        """The schema FDs' block partitions."""
        return self.index.layouts

    def layout_for(self, fd: FD) -> _FDLayout:
        """The (cached) block partition of an arbitrary witness FD."""
        return self.index.layout_for(fd)

    def candidate(self, facts: Iterable[Fact]) -> BitsetCandidate:
        """A columnar view of one candidate repair."""
        return BitsetCandidate(self, facts)
