"""Dense integer ids for the facts of one instance.

The columnar bitset core (:mod:`repro.core.bitset_index`) represents
every fact set as a stdlib ``int`` bitmask and every per-fact attribute
as a flat list indexed by fact id.  :class:`FactInterner` is the bridge:
it assigns each fact of an :class:`~repro.core.instance.Instance` a
dense id in ``[0, n)`` and converts both ways.

Id assignment is **deterministic**: facts are numbered in ``str``-sorted
order, the same total order the rest of the codebase uses for
deterministic iteration (``sorted(..., key=str)``), so ids — and hence
every mask and every id-ordered scan — are reproducible across runs,
processes, and ``PYTHONHASHSEED`` values.

Bit-twiddling helpers shared by the core live here too:
:func:`iter_bits` walks the set bits of a mask lowest-first via
``mask & -mask`` extraction, and :func:`popcount` counts them (through
``bin(...)``, which keeps the module Python-3.9-compatible — CPython's
``int.bit_count`` only landed in 3.10).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from repro.core.fact import Fact
from repro.core.instance import Instance

__all__ = ["FactInterner", "iter_bits", "popcount"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    """The number of set bits of a non-negative ``mask``."""
    return bin(mask).count("1")


class FactInterner:
    """A bijection between the facts of one instance and ``[0, n)``.

    Examples
    --------
    >>> from repro.core import Schema, Fact
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> inst = schema.instance([Fact("R", (1, "a")), Fact("R", (1, "b"))])
    >>> interner = FactInterner(inst)
    >>> interner.fact_of(interner.id_of(Fact("R", (1, "b"))))
    Fact(relation='R', values=(1, 'b'))
    >>> interner.mask_of(inst.facts) == interner.full_mask
    True
    """

    __slots__ = ("_facts", "_ids", "_nbytes")

    def __init__(self, instance: Instance) -> None:
        facts = sorted(instance.facts, key=str)
        self._facts: Tuple[Fact, ...] = tuple(facts)
        self._ids: Dict[Fact, int] = {
            fact: fid for fid, fact in enumerate(facts)
        }
        self._nbytes = (len(facts) + 7) // 8

    @classmethod
    def _from_sorted(cls, facts: Iterable[Fact]) -> "FactInterner":
        """Trusted constructor: ``facts`` already distinct and in
        ``str``-sorted order.

        The streaming loader feeds facts chunk by chunk straight out of
        its sqlite backing store, whose scan order is exactly the
        ``str`` sort this class would otherwise re-establish; skipping
        the redundant O(n log n) pass (and the intermediate list) keeps
        chunked interner construction single-scan.  Callers must
        guarantee the order — the ids assigned here must equal the ones
        ``FactInterner(instance)`` would assign, and every bitset
        mask depends on that.
        """
        interner = cls.__new__(cls)
        interner._facts = tuple(facts)
        interner._ids = {
            fact: fid for fid, fact in enumerate(interner._facts)
        }
        interner._nbytes = (len(interner._facts) + 7) // 8
        return interner

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._ids

    @property
    def facts(self) -> Tuple[Fact, ...]:
        """All interned facts, in id order."""
        return self._facts

    @property
    def ids(self) -> Dict[Fact, int]:
        """The fact → id mapping (treat as read-only)."""
        return self._ids

    @property
    def full_mask(self) -> int:
        """The mask with every interned fact's bit set."""
        return (1 << len(self._facts)) - 1

    def id_of(self, fact: Fact) -> int:
        """The dense id of ``fact`` (raises ``KeyError`` if unknown)."""
        return self._ids[fact]

    def fact_of(self, fid: int) -> Fact:
        """The fact with id ``fid``."""
        return self._facts[fid]

    def mask_of(self, facts: Iterable[Fact]) -> int:
        """The bitmask of an iterable of interned facts.

        Bits are accumulated in a ``bytearray`` and converted once —
        O(n) instead of the O(n²/64) a per-fact big-int OR would cost.
        """
        buffer = bytearray(self._nbytes)
        ids = self._ids
        for fact in facts:
            fid = ids[fact]
            buffer[fid >> 3] |= 1 << (fid & 7)
        return int.from_bytes(buffer, "little")

    def facts_of(self, mask: int) -> List[Fact]:
        """The facts whose bits are set in ``mask``, in id order."""
        facts = self._facts
        return [facts[fid] for fid in iter_bits(mask)]

    def frozenset_of(self, mask: int) -> FrozenSet[Fact]:
        """The facts whose bits are set in ``mask``, as a frozenset."""
        return frozenset(self.facts_of(mask))

    def __repr__(self) -> str:
        return f"FactInterner({len(self._facts)} facts)"
