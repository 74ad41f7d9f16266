"""Core data model and algorithms for preferred repairs.

Submodules
----------
``signature``, ``fact``, ``instance``
    The relational substrate (Section 2.1 of the paper).
``fd``, ``fdset``, ``schema``
    Functional-dependency theory and schemas (Section 2.2).
``conflicts``
    δ-conflict detection, indexes, the conflict graph.
``priority``
    Priority relations and prioritizing instances (Sections 2.3 and 7).
``improvements``, ``repairs``
    Definition 2.4 and classical subset repairs.
``checking``
    The repair-checking algorithms (Sections 3, 4, and 7).
``classification``
    The dichotomy classifiers (Theorems 3.1/6.1 and 7.1/7.6).
``interning``, ``bitset_index``
    The columnar execution core of the checkers: dense fact ids and
    the id-space conflict/block/priority substrate.
"""

from repro.core.bitset_index import BitsetConflictIndex, BitsetCore
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.fdset import FDSet
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.core.priority import PrioritizingInstance, PriorityRelation
from repro.core.schema import Schema
from repro.core.signature import RelationSymbol, Signature

__all__ = [
    "Fact",
    "FD",
    "FDSet",
    "Instance",
    "PrioritizingInstance",
    "PriorityRelation",
    "Schema",
    "RelationSymbol",
    "Signature",
    "FactInterner",
    "BitsetConflictIndex",
    "BitsetCore",
]
