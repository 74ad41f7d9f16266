"""A sqlite-backed streaming loader: million-tuple instances in bounded memory.

Every pre-existing loader path (:class:`~repro.engine.database.Database`,
:func:`~repro.engine.csv_loader.load_csv`, :func:`repro.io`) builds an
object-per-fact :class:`~repro.core.instance.Instance` before anything
else can happen, which caps workloads at what fits in a Python heap —
a few hundred thousand facts.  :class:`StreamingInstanceStore` removes
that cap for the load path:

* rows are **ingested in chunks** (from iterators, ``.tbl`` files, or
  CSV) into one sqlite table per relation, with set semantics (a
  primary key over all value columns + ``INSERT OR IGNORE``) matching
  ``Instance``'s frozenset exactly;
* every value is stored in a canonical JSON encoding (type-faithful
  for the JSON scalars: ``1`` and ``"1"`` stay distinct) next to a
  precomputed ``str(fact)`` sort key, so every scan — and therefore
  every downstream id assignment — is deterministic and identical to
  the in-memory ``sorted(..., key=str)`` order;
* **consistency and conflicts are computed in SQL**: per FD, a
  ``GROUP BY`` over the left-hand-side columns with a
  ``COUNT(DISTINCT rhs)`` detects violating groups without
  materializing a single :class:`Fact`;
* only the **conflict kernel** — the facts participating in at least
  one conflict — is ever materialized at scale.  Facts outside every
  conflict belong to every repair and cannot affect any optimality
  verdict, so checking, repairing, and priority assignment all happen
  on the kernel, whose size tracks the injected-violation count, not
  the instance;
* the kernel's :class:`~repro.core.interning.FactInterner` and
  :class:`~repro.core.bitset_index.BitsetConflictIndex` are built from
  **chunked scans** of the store (the scan order *is* interning
  order), never from a full ``Instance``.

For small instances :meth:`StreamingInstanceStore.to_instance` also
materializes the whole store, which is what the loader-equivalence
property suite uses to hold the streaming path to the in-memory path:
identical interner fingerprints, conflict sets, and checker verdicts
across chunk sizes.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.bitset_index import BitsetConflictIndex
from repro.core.fact import Fact
from repro.core.fd import FD
from repro.core.instance import Instance
from repro.core.interning import FactInterner
from repro.core.schema import Schema
from repro.exceptions import ReproError, UsageError

__all__ = [
    "StreamingInstanceStore",
    "encode_value",
    "decode_value",
    "canonical_value",
    "fact_sort_key",
]

#: Values crossing the streaming boundary must be JSON scalars — the
#: same closure the wire protocol and the verdict store accept.
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Joins encoded rhs columns into one group expression.  json.dumps
#: with ensure_ascii=True escapes every control character, so the unit
#: separator can never occur inside an encoded value.
_RHS_SEPARATOR = "\x1f"

DEFAULT_CHUNK_SIZE = 8192


def encode_value(value: Any) -> str:
    """The type-faithful column encoding of one constant.

    This is the encoding scans decode back out; it distinguishes
    ``1``/``1.0``/``True`` so the surviving fact keeps its exact
    values.  Equality, deduplication, and FD grouping run on
    :func:`canonical_value` instead.
    """
    if not isinstance(value, _SCALAR_TYPES):
        raise UsageError(
            f"the streaming loader stores JSON scalars only, got "
            f"{type(value).__name__}: {value!r}"
        )
    return json.dumps(value)


def decode_value(text: str) -> Any:
    """Inverse of :func:`encode_value`."""
    return json.loads(text)


def canonical_value(value: Any) -> str:
    """An encoding with ``x == y  ⇔  canonical_value(x) == canonical_value(y)``.

    Python's value equality crosses the numeric types — ``0 == False``,
    ``1 == 1.0 == True`` — and :class:`Fact` equality (hence frozenset
    deduplication and conflict detection) inherits it.  The SQL side
    must agree, so primary keys and FD ``GROUP BY`` columns hold this
    encoding: every bool and every integral float collapses onto its
    ``int`` equal (exact — integral floats convert losslessly), while
    strings, ``None``, and non-integral floats keep their
    :func:`encode_value` form, which never collides with an int's.
    """
    if isinstance(value, bool):
        return json.dumps(int(value))
    if isinstance(value, float) and value.is_integer():
        return json.dumps(int(value))
    return encode_value(value)


def fact_sort_key(relation: str, values: Sequence[Any]) -> str:
    """``str(Fact(relation, values))`` computed without building the fact.

    This is the total order the whole codebase sorts facts by
    (``sorted(..., key=str)``), precomputed at ingest so sqlite can
    ``ORDER BY`` it and hand back scans in interning order.
    """
    inner = ", ".join(repr(value) for value in values)
    return f"{relation}({inner})"


def _table(relation: str) -> str:
    return f't_{relation}'


def _columns(arity: int) -> List[str]:
    """The canonical-encoding columns (keys, grouping, equality)."""
    return [f"c{i}" for i in range(1, arity + 1)]


def _value_columns(arity: int) -> List[str]:
    """The type-faithful columns (what scans decode back out)."""
    return [f"v{i}" for i in range(1, arity + 1)]


class StreamingInstanceStore:
    """Chunked sqlite ingestion and SQL-side conflict analysis.

    Parameters
    ----------
    schema:
        The fixed schema; one table per relation symbol is created.
    path:
        sqlite database location.  The default ``":memory:"`` bounds
        memory by the *instance* size (fine for tests); pass a file
        path for genuinely bounded-memory loads at scale.
    chunk_size:
        Rows per ``executemany`` batch and per cursor fetch.

    Examples
    --------
    >>> from repro.core import Schema
    >>> schema = Schema.single_relation(["1 -> 2"], arity=2)
    >>> store = StreamingInstanceStore(schema)
    >>> store.ingest_rows("R", [(1, "a"), (1, "b"), (2, "c"), (1, "a")])
    3
    >>> store.is_consistent()
    False
    >>> sorted(map(str, store.conflict_kernel()))
    ["R(1, 'a')", "R(1, 'b')"]
    """

    def __init__(
        self,
        schema: Schema,
        path: Union[str, Path] = ":memory:",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size < 1:
            raise UsageError(f"chunk_size must be >= 1, got {chunk_size}")
        self._schema = schema
        self._path = str(path)
        self._chunk_size = chunk_size
        try:
            self._connection = sqlite3.connect(self._path)
        except sqlite3.Error as exc:
            raise ReproError(
                f"cannot open streaming store at {self._path!r}: {exc}"
            ) from exc
        # The store is an analysis scratch space, not a system of
        # record: crash durability buys nothing here, write speed does.
        self._connection.execute("PRAGMA journal_mode = MEMORY")
        self._connection.execute("PRAGMA synchronous = OFF")
        self._arity = {
            symbol.name: symbol.arity for symbol in schema.signature
        }
        for name in sorted(self._arity):
            columns = _columns(self._arity[name])
            value_columns = _value_columns(self._arity[name])
            column_spec = ", ".join(
                f"{c} TEXT NOT NULL" for c in columns + value_columns
            )
            # The primary key spans the *canonical* columns, so sqlite
            # deduplicates by Python value equality (0 == False,
            # 1 == 1.0) exactly as frozenset construction would; the
            # v-columns keep the first-inserted row's faithful values,
            # matching which representative a set insert keeps.
            self._connection.execute(
                f'CREATE TABLE IF NOT EXISTS "{_table(name)}" '
                f"(skey TEXT NOT NULL, {column_spec}, "
                f"PRIMARY KEY ({', '.join(columns)})) WITHOUT ROWID"
            )
        self._connection.commit()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the sqlite connection (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "StreamingInstanceStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def schema(self) -> Schema:
        """The fixed schema."""
        return self._schema

    @property
    def path(self) -> str:
        """The sqlite database location backing this store."""
        return self._path

    # -- ingestion -----------------------------------------------------------

    def _require_relation(self, relation: str) -> int:
        arity = self._arity.get(relation)
        if arity is None:
            from repro.exceptions import UnknownRelationError

            raise UnknownRelationError(relation)
        return arity

    def ingest_rows(
        self, relation: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Chunked set-semantics insert; returns rows actually added.

        Duplicate rows (within the stream or against prior ingests)
        collapse silently, matching frozenset construction.  Memory use
        is bounded by ``chunk_size``, never by the stream length.
        """
        arity = self._require_relation(relation)
        columns = _columns(arity) + _value_columns(arity)
        statement = (
            f'INSERT OR IGNORE INTO "{_table(relation)}" '
            f"(skey, {', '.join(columns)}) "
            f"VALUES ({', '.join('?' * (2 * arity + 1))})"
        )
        connection = self._connection
        inserted = 0
        batch: List[Tuple[str, ...]] = []

        def flush() -> int:
            cursor = connection.executemany(statement, batch)
            batch.clear()
            return cursor.rowcount

        for row in rows:
            values = tuple(row)
            if len(values) != arity:
                raise UsageError(
                    f"relation {relation!r} has arity {arity}, got a row "
                    f"of width {len(values)}: {values!r}"
                )
            batch.append(
                (fact_sort_key(relation, values),)
                + tuple(canonical_value(value) for value in values)
                + tuple(encode_value(value) for value in values)
            )
            if len(batch) >= self._chunk_size:
                inserted += flush()
        if batch:
            inserted += flush()
        connection.commit()
        return inserted

    def ingest_tbl(
        self,
        relation: str,
        path: Union[str, Path],
        converters: Optional[Sequence[Callable[[str], Any]]] = None,
    ) -> int:
        """Ingest a TPC-H ``.tbl`` file (pipe-delimited, trailing pipe).

        ``converters`` restores column types (default: keep strings).
        """
        arity = self._require_relation(relation)
        if converters is not None and len(converters) != arity:
            raise UsageError(
                f"got {len(converters)} converters for relation "
                f"{relation!r} of arity {arity}"
            )

        def typed_rows() -> Iterator[Tuple[Any, ...]]:
            with open(path, newline="") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    cells = line.split("|")
                    if cells and cells[-1] == "":
                        cells = cells[:-1]
                    if len(cells) != arity:
                        raise UsageError(
                            f"{path}:{line_number}: expected {arity} "
                            f"columns for {relation!r}, got {len(cells)}"
                        )
                    if converters is None:
                        yield tuple(cells)
                        continue
                    try:
                        yield tuple(
                            convert(cell)
                            for convert, cell in zip(converters, cells)
                        )
                    except (TypeError, ValueError) as exc:
                        raise UsageError(
                            f"{path}:{line_number}: cannot convert row: "
                            f"{exc}"
                        ) from exc

        return self.ingest_rows(relation, typed_rows())

    def ingest_csv(
        self,
        relation: str,
        path: Union[str, Path],
        converters: Optional[Sequence[Callable[[str], Any]]] = None,
        has_header: bool = True,
        delimiter: str = ",",
    ) -> int:
        """Ingest a CSV export, mirroring
        :func:`repro.engine.csv_loader.load_csv`'s conventions but in
        bounded memory."""
        import csv as csv_module

        arity = self._require_relation(relation)
        if converters is not None and len(converters) != arity:
            raise UsageError(
                f"got {len(converters)} converters for relation "
                f"{relation!r} of arity {arity}"
            )

        def typed_rows() -> Iterator[Tuple[Any, ...]]:
            with open(path, newline="") as handle:
                reader = csv_module.reader(handle, delimiter=delimiter)
                for row_number, cells in enumerate(reader):
                    if has_header and row_number == 0:
                        continue
                    if not cells or all(not c.strip() for c in cells):
                        continue
                    if len(cells) != arity:
                        raise UsageError(
                            f"{path}:{row_number + 1}: expected {arity} "
                            f"columns for {relation!r}, got {len(cells)}"
                        )
                    if converters is None:
                        yield tuple(cells)
                        continue
                    try:
                        yield tuple(
                            convert(cell)
                            for convert, cell in zip(converters, cells)
                        )
                    except (TypeError, ValueError) as exc:
                        raise UsageError(
                            f"{path}:{row_number + 1}: cannot convert "
                            f"row: {exc}"
                        ) from exc

        return self.ingest_rows(relation, typed_rows())

    # -- counting and scanning -----------------------------------------------

    def fact_count(self, relation: Optional[str] = None) -> int:
        """Distinct facts stored, overall or for one relation."""
        if relation is not None:
            self._require_relation(relation)
            names = [relation]
        else:
            names = sorted(self._arity)
        total = 0
        for name in names:
            row = self._connection.execute(
                f'SELECT COUNT(*) FROM "{_table(name)}"'
            ).fetchone()
            total += row[0]
        return total

    def _iter_decoded(
        self, relation: str, chunk_size: Optional[int] = None
    ) -> Iterator[Tuple[Any, ...]]:
        arity = self._arity[relation]
        columns = ", ".join(_value_columns(arity))
        cursor = self._connection.execute(
            f'SELECT {columns} FROM "{_table(relation)}" ORDER BY skey'
        )
        size = chunk_size or self._chunk_size
        while True:
            chunk = cursor.fetchmany(size)
            if not chunk:
                return
            for encoded in chunk:
                yield tuple(decode_value(cell) for cell in encoded)

    def iter_rows(
        self, relation: str, chunk_size: Optional[int] = None
    ) -> Iterator[Tuple[Any, ...]]:
        """Stream one relation's rows in deterministic (``str``) order."""
        self._require_relation(relation)
        return self._iter_decoded(relation, chunk_size)

    def iter_facts(
        self,
        relation: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[Fact]:
        """Stream facts in global interning (``str``-sorted) order.

        Per-relation streams are already skey-ordered; the global
        stream is their k-way merge, so the whole-store scan is also
        ``str``-sorted — table name order and sort-key order coincide
        because ``str(fact)`` starts with the relation name.
        """
        if relation is not None:
            self._require_relation(relation)
            names = [relation]
        else:
            names = sorted(self._arity)
        for name in names:
            for values in self._iter_decoded(name, chunk_size):
                yield Fact(name, values)

    # -- SQL-side consistency and conflicts ----------------------------------

    def _fd_sql_parts(self, fd: FD) -> Tuple[str, str]:
        """``(lhs column list, rhs group expression)`` for one FD."""
        lhs = ", ".join(f"c{p}" for p in fd.lhs_sorted)
        rhs = f" || '{_RHS_SEPARATOR}' || ".join(
            f"c{p}" for p in fd.rhs_sorted
        )
        return lhs, rhs

    def _nontrivial_fds(self) -> List[FD]:
        return sorted(
            (fd for fd in self._schema.fds if not fd.is_trivial()), key=str
        )

    def fd_violations(self, fd: FD) -> int:
        """How many lhs groups violate ``fd`` (0 = satisfied)."""
        if fd.is_trivial():
            return 0
        self._require_relation(fd.relation)
        lhs, rhs = self._fd_sql_parts(fd)
        if not lhs:
            # Constant-attribute FD ∅ → B: one global group.
            row = self._connection.execute(
                f'SELECT COUNT(DISTINCT {rhs}) FROM "{_table(fd.relation)}"'
            ).fetchone()
            return 1 if row[0] > 1 else 0
        row = self._connection.execute(
            f"SELECT COUNT(*) FROM ("
            f'SELECT 1 FROM "{_table(fd.relation)}" '
            f"GROUP BY {lhs} HAVING COUNT(DISTINCT {rhs}) > 1)"
        ).fetchone()
        return row[0]

    def is_consistent(self) -> bool:
        """Whether the stored instance satisfies every schema FD —
        answered entirely in SQL, no fact materialization."""
        return all(self.fd_violations(fd) == 0 for fd in self._nontrivial_fds())

    def conflict_summary(self) -> Dict[str, int]:
        """``{str(fd): violating-group count}`` over all schema FDs."""
        return {
            str(fd): self.fd_violations(fd) for fd in self._nontrivial_fds()
        }

    def iter_conflict_facts(self, fd: FD) -> Iterator[Fact]:
        """Stream the facts of every ``fd``-violating group, in
        deterministic (``str``) order."""
        if fd.is_trivial():
            return
        self._require_relation(fd.relation)
        arity = self._arity[fd.relation]
        columns = ", ".join(_value_columns(arity))
        lhs, rhs = self._fd_sql_parts(fd)
        table = _table(fd.relation)
        if not lhs:
            query = (
                f'SELECT {columns} FROM "{table}" '
                f"WHERE (SELECT COUNT(DISTINCT {rhs}) "
                f'FROM "{table}") > 1 ORDER BY skey'
            )
        else:
            query = (
                f'SELECT {columns} FROM "{table}" '
                f"WHERE ({lhs}) IN ("
                f'SELECT {lhs} FROM "{table}" '
                f"GROUP BY {lhs} HAVING COUNT(DISTINCT {rhs}) > 1) "
                f"ORDER BY skey"
            )
        cursor = self._connection.execute(query)
        while True:
            chunk = cursor.fetchmany(self._chunk_size)
            if not chunk:
                return
            for encoded in chunk:
                yield Fact(
                    fd.relation,
                    tuple(decode_value(cell) for cell in encoded),
                )

    def conflict_kernel(self) -> Instance:
        """The sub-instance of facts participating in >= 1 conflict.

        This is the only materialization the scale path performs: its
        size is bounded by the number of conflicting facts (for an
        injected workload, by the injection manifest), never by the
        instance.  Facts outside the kernel conflict with nothing, so
        they belong to every repair and no checker verdict depends on
        them.
        """
        kernel: List[Fact] = []
        seen: set = set()
        for fd in self._nontrivial_fds():
            for fact in self.iter_conflict_facts(fd):
                if fact not in seen:
                    seen.add(fact)
                    kernel.append(fact)
        return Instance(self._schema.signature, kernel)

    def conflict_pairs(self) -> FrozenSet[FrozenSet[Fact]]:
        """Every conflicting fact pair, as unordered pairs.

        Materializes per violating group only; at scale this is the
        manifest cross-check surface, not a hot path.
        """
        pairs: List[FrozenSet[Fact]] = []
        for fd in self._nontrivial_fds():
            groups: Dict[Tuple[Any, ...], List[Fact]] = {}
            for fact in self.iter_conflict_facts(fd):
                groups.setdefault(
                    fact.project(fd.lhs_sorted), []
                ).append(fact)
            for members in groups.values():
                for i, left in enumerate(members):
                    for right in members[i + 1:]:
                        if left.project(fd.rhs_sorted) != right.project(
                            fd.rhs_sorted
                        ):
                            pairs.append(frozenset((left, right)))
        return frozenset(pairs)

    # -- materialization and index construction ------------------------------

    def to_instance(self) -> Instance:
        """Materialize the **whole** store as an in-memory instance.

        For small instances and the equivalence suite only — this is
        exactly the object-per-fact construction the streaming path
        exists to avoid at scale.
        """
        return Instance(self._schema.signature, self.iter_facts())

    def build_interner(
        self,
        kernel_only: bool = True,
        chunk_size: Optional[int] = None,
    ) -> FactInterner:
        """A :class:`FactInterner` fed by chunked store scans.

        With ``kernel_only`` (the default, the scale path) only
        conflict-participating facts are interned; otherwise the whole
        store streams through.  Either way the scan arrives in
        ``str``-sorted order, so the assigned ids are identical to what
        in-memory construction over the same fact set would assign.
        """
        if kernel_only:
            facts = sorted(self.conflict_kernel().facts, key=str)
            return FactInterner._from_sorted(facts)
        return FactInterner._from_sorted(
            self.iter_facts(chunk_size=chunk_size)
        )

    def build_bitset_index(
        self,
        kernel_only: bool = True,
        chunk_size: Optional[int] = None,
    ) -> BitsetConflictIndex:
        """A :class:`BitsetConflictIndex` built without a full instance.

        The per-FD block partitions compile from the interner's id
        order (one pass over the chunk-fed facts); the carried
        ``Instance`` is the kernel (or, for ``kernel_only=False``, the
        fully materialized store, small-instance use only).
        """
        if kernel_only:
            instance = self.conflict_kernel()
            interner = FactInterner._from_sorted(
                sorted(instance.facts, key=str)
            )
        else:
            interner = self.build_interner(
                kernel_only=False, chunk_size=chunk_size
            )
            instance = Instance._from_validated(
                self._schema.signature, frozenset(interner.facts)
            )
        return BitsetConflictIndex(self._schema, instance, interner)

    def __repr__(self) -> str:
        return (
            f"StreamingInstanceStore({self.fact_count()} facts at "
            f"{self._path!r})"
        )
