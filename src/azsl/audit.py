"""Disclosure accounting: every channel message lands here exactly once.

Each end of the wire records a frame where it crosses. `_DISCLOSURE` is the
one place that says how a wire message is logged: its entry kind, risk and
direction; a feedback response is tagged from its own bytes. Entries carry the
wall-clock time their frame crossed, for forensics, but the digest covers only
the deterministic fields so that seed-identical runs produce identical digests
(and therefore byte-identical reports).
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

from . import wire

UP = "up"
DOWN = "down"

RISK_LOW = "low"
RISK_MID = "mid"

KIND_FEEDBACK_REQUEST = "feedback_request"
KIND_FEEDBACK_RESPONSE = "feedback_response"
KIND_CE_GRAD = "ce_grad"
KIND_WEIGHT_REQUEST = "weight_request"
KIND_WEIGHT_BLOB = "weight_blob"
KIND_ERROR = "error"

# wire kind -> (entry kind, risk, direction). Only the teacher's weights and
# the white-box gradient through them are mid risk; a feedback response whose
# bytes carry that gradient is logged as KIND_CE_GRAD (RiskLog.record).
_DISCLOSURE = {
    wire.KIND_FEEDBACK_REQUEST: (KIND_FEEDBACK_REQUEST, RISK_LOW, UP),
    wire.KIND_FEEDBACK_RESPONSE: (KIND_FEEDBACK_RESPONSE, RISK_LOW, DOWN),
    wire.KIND_WEIGHT_REQUEST: (KIND_WEIGHT_REQUEST, RISK_LOW, UP),
    wire.KIND_WEIGHT_BLOB: (KIND_WEIGHT_BLOB, RISK_MID, DOWN),
    wire.KIND_ERROR: (KIND_ERROR, RISK_LOW, DOWN),
}
# entry kind -> (risk, direction): the tags a logged entry of that kind carries
_TAGS = {kind: (risk, direction) for kind, risk, direction in _DISCLOSURE.values()}
_TAGS[KIND_CE_GRAD] = (RISK_MID, DOWN)


@dataclass(frozen=True)
class RiskEntry:
    timestamp: float
    kind: str
    size: int
    risk: str
    scenario: str
    direction: str
    payload_sha: str


def payload_sha(payload: bytes) -> str:
    """First 16 hex digits of the payload's SHA-256."""
    return hashlib.sha256(payload).hexdigest()[:16]


def _digest(entries) -> str:
    """Hash of the deterministic message sequence (timestamps excluded)."""
    h = hashlib.sha256()
    for e in entries:
        h.update(f"{e.direction}|{e.kind}|{e.size}|{e.risk}|{e.scenario}|{e.payload_sha}\n".encode())
    return h.hexdigest()


class RiskLog:
    """Append-only transcript of channel messages with risk tags."""

    def __init__(self):
        self._entries: list[RiskEntry] = []
        self._lock = threading.Lock()

    def append(self, kind: str, size: int, risk: str, scenario: str, direction: str, payload: bytes,
               timestamp: float | None = None) -> None:
        """Log one entry, stamped `timestamp` (when its frame crossed) or now."""
        entry = RiskEntry(
            timestamp=time.time() if timestamp is None else timestamp,
            kind=kind,
            size=int(size),
            risk=risk,
            scenario=scenario,
            direction=direction,
            payload_sha=payload_sha(payload),
        )
        with self._lock:
            self._entries.append(entry)

    def record(self, wire_kind: int, payload: bytes, scenario: str, timestamp: float | None = None) -> None:
        """Log one wire message as `_DISCLOSURE` tags it, a feedback response by its bytes."""
        kind, risk, direction = _DISCLOSURE[wire_kind]
        if wire_kind == wire.KIND_FEEDBACK_RESPONSE and wire.carries_ce_grad(payload):
            kind, risk = KIND_CE_GRAD, RISK_MID
        # positional: perfbench/spans.py reads the payload as args[6] of append
        self.append(kind, len(payload), risk, scenario, direction, payload, timestamp)

    @property
    def entries(self) -> tuple[RiskEntry, ...]:
        with self._lock:
            return tuple(self._entries)

    def digest(self) -> str:
        return _digest(self.entries)

    def save(self, path: str | Path) -> None:
        """Write {"digest", "entries"} as indented JSON, whole or not at all.

        The JSON streams into <name>.tmp, which then replaces `path`: no string
        of the whole file is built, and an interrupted save leaves the old file.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        entries = self.entries
        names = [f.name for f in fields(RiskEntry)]  # asdict would deep-copy every field
        body = {"digest": _digest(entries), "entries": [{name: getattr(e, name) for name in names} for e in entries]}
        with tmp.open("w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


def load_transcript(path: str | Path) -> list[RiskEntry]:
    """A saved transcript's entries, once each is one RiskLog could write and they hash to its digest."""
    raw = Path(path).read_bytes()  # an unreadable file is an OSError, not a corrupt transcript
    try:
        body = json.loads(raw)
        entries = [RiskEntry(**e) for e in body["entries"]]
        stored = body["digest"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"corrupt transcript {path}: {exc}") from exc
    for i, e in enumerate(entries):
        fault = _entry_fault(e)
        if fault:
            raise ValueError(f"corrupt transcript {path}: entry {i}: {fault}")
    if _digest(entries) != stored:
        raise ValueError(f"corrupt transcript {path}: its entries do not match its digest")
    return entries


_FIELD_TYPES = {
    "timestamp": (int, float), "kind": str, "size": int, "risk": str,
    "scenario": str, "direction": str, "payload_sha": str,
}


def _entry_fault(e: RiskEntry) -> str | None:
    """Why RiskLog could not have written this entry; None if it could."""
    for name, types in _FIELD_TYPES.items():
        value = getattr(e, name)
        if isinstance(value, bool) or not isinstance(value, types):
            return f"{name} has the wrong type: {value!r}"
    if e.size < 0:
        return f"negative size {e.size}"
    if not re.fullmatch(r"[0-9a-f]{16}", e.payload_sha):
        return f"payload_sha is not 16 hex digits: {e.payload_sha!r}"
    if e.kind not in _TAGS:
        return f"unknown kind {e.kind!r}"
    if e.scenario not in wire.SCENARIOS:
        return f"unknown scenario {e.scenario!r}"
    risk, direction = _TAGS[e.kind]
    if (e.risk, e.direction) != (risk, direction):  # also an unknown risk or direction
        return f"a {e.kind} entry is {risk} risk and {direction}, not {e.risk!r} and {e.direction!r}"
    return None


def summarize(entries: list[RiskEntry]) -> dict:
    """Counts/bytes/risk/scenario histograms plus the audit verdict line.

    BLACKBOX-CLEAN needs every entry low risk, no weight blob and no entry
    tagged white: the digest is unkeyed, so risk tags alone can be rewritten.
    """
    up = [e for e in entries if e.direction == UP]
    down = [e for e in entries if e.direction == DOWN]
    risk_hist: dict[str, int] = {}
    kind_hist: dict[str, int] = {}
    scenario_hist: dict[str, int] = {}
    for e in entries:
        risk_hist[e.risk] = risk_hist.get(e.risk, 0) + 1
        kind_hist[e.kind] = kind_hist.get(e.kind, 0) + 1
        scenario_hist[e.scenario] = scenario_hist.get(e.scenario, 0) + 1
    n_mid = risk_hist.get(RISK_MID, 0)
    n_blobs = kind_hist.get(KIND_WEIGHT_BLOB, 0)
    if n_mid == 0 and n_blobs == 0 and wire.SCENARIO_WHITE not in scenario_hist:
        verdict = "BLACKBOX-CLEAN"
    else:
        verdict = f"WHITEBOX ({n_mid} mid-risk messages)"
    return {
        "messages": len(entries),
        "up_messages": len(up),
        "down_messages": len(down),
        "up_bytes": sum(e.size for e in up),
        "down_bytes": sum(e.size for e in down),
        "risk": risk_hist,
        "kinds": kind_hist,
        "scenarios": scenario_hist,
        "verdict": verdict,
    }
