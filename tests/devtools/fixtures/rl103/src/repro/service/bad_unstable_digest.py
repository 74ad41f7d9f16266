"""Nondeterminism reachable from deterministic-output entry points.

None of the sinks sit *inside* a sensitively named function, so the
per-file RL003 stays silent — only the flow-aware RL103 can see them.
"""

import uuid


def fingerprint_state(facts):
    return "|".join(_mix(facts))


def _mix(facts):
    out = []
    for fact in set(facts):
        out.append(str(fact))
    return out


def fingerprint_session(obj):
    return _token(obj)


def _token(obj):
    return str(id(obj))


class VerdictSqliteStore:
    def put(self, entry):
        return _entry_key(entry)


def _entry_key(entry):
    return uuid.uuid4().hex + str(entry)
