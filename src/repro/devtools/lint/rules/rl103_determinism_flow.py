"""RL103 — determinism flow: no hash-order or entropy on fingerprint paths.

The service cache and the durable verdict store key on canonical
fingerprints, the store verifies rows by content checksum, and the
NDJSON protocol promises byte-stable responses: the whole amortization
story assumes two structurally equal problems serialize identically in
every process.  RL003 checks that property *syntactically inside*
rendering functions; this rule generalizes it to flows — a fingerprint
entry point calling, three frames down, a helper that iterates a
``set()`` unsorted or consults ``id()`` poisons the cache just as
surely, and no per-file view can see it.

Entry points are the deterministic-output surfaces, matched by name so
fixtures and the real tree agree: ``fingerprint*`` / ``*canonical*`` /
``serialize*`` / ``to_json*`` / ``encode_response`` functions, and any
method of a ``*SqliteStore*`` class (the durable verdict store).
Sinks are the per-function nondeterminism effects of the analysis:
``id()``, module-level ``random.*`` (seeded ``random.Random(seed)``
instances are exempt), ``uuid.uuid4``, ``os.urandom``, and ordered
traversal of provably unordered expressions with no order-restoring
consumer.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.program.propagate import find_effect_paths
from repro.devtools.lint.registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.lint.program.analyzer import ProgramAnalysis

__all__ = ["DeterminismFlowRule"]

_ENTRY_NAME = re.compile(
    r"^fingerprint|canonical|^serialize|^to_json|^encode_response$"
)
_ENTRY_CLASS = re.compile(r"SqliteStore")


@register
class DeterminismFlowRule(ProgramRule):
    code = "RL103"
    name = "determinism-flow"
    summary = (
        "no call path from fingerprint/verdict-store/NDJSON serialization "
        "may reach an unsorted-iteration or entropy source"
    )
    rationale = (
        "Canonical fingerprints are the cache identity and the "
        "verdict store's row key; an iteration-order-dependent value "
        "reaching one makes equal problems miss the cache — or "
        "*collide across processes only sometimes*, serving a verdict "
        "computed for a different question."
    )

    def check_program(self, analysis: "ProgramAnalysis") -> Iterator[Finding]:
        entries = sorted(
            qualname
            for qualname, info in analysis.functions.items()
            if _ENTRY_NAME.search(info.name)
            or (info.cls is not None and _ENTRY_CLASS.search(info.cls))
        )
        paths = find_effect_paths(
            entries, analysis.calls, lambda fn: analysis.nondet.get(fn, [])
        )
        for path in paths:
            module = analysis.module_of(path.sink)
            if module is None:
                continue
            snippet = ""
            if 1 <= path.line <= len(module.lines):
                snippet = module.lines[path.line - 1].strip()
            yield Finding(
                code=self.code,
                message=(
                    f"nondeterminism ({path.desc}) on a path from "
                    f"deterministic-output entry `{path.entry}`; sort "
                    "the iteration or drop the entropy source"
                ),
                path=module.rel_path,
                line=path.line,
                column=0,
                snippet=snippet,
                witness=analysis.witness_for_hops(
                    path.hops, path.desc, path.sink, path.line
                ),
            )
