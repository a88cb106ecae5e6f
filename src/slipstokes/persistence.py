"""Binary solution snapshots and an append-only run registry.

Snapshot layout (all little endian):

    bytes 0..4   magic ``NSLS``
    byte  4      format version (currently 1)
    bytes 5..8   padding, zero
    u32          number of velocity coefficients
    u32          number of pressure coefficients
    f64[nu]      velocity coefficients
    f64[np]      pressure coefficients

A JSON sidecar ``<name>.json`` carries the diagnostics dict.  Runs are
stored content addressed: the registry key is the SHA-256 of the snapshot
bytes, writes are atomic (temp file + rename), and re-storing identical
bytes under an existing id is a no-op while differing bytes raise
``DuplicateRun``.
"""

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import DuplicateRun, ParseError, VersionMismatch

MAGIC = b"NSLS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sB3xII")


def _encode(u, p):
    u = np.ascontiguousarray(np.asarray(u, dtype="<f8"))
    p = np.ascontiguousarray(np.asarray(p, dtype="<f8"))
    if u.ndim != 1 or p.ndim != 1:
        raise ParseError("solution arrays must be one dimensional")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, u.size, p.size)
    return header + u.tobytes() + p.tobytes()


def write_solution(path, u, p, diagnostics=None):
    """Write a snapshot plus its JSON sidecar; returns the snapshot path."""
    payload = _encode(u, p)
    _atomic_write(path, payload)
    side = {} if diagnostics is None else dict(diagnostics)
    _atomic_write(_sidecar(path),
                  (json.dumps(side, indent=2, sort_keys=True, default=float)
                   + "\n").encode("ascii"))
    return path


def load_solution(path):
    """Read a snapshot; returns ``(u, p, diagnostics)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ParseError(f"{path}: truncated header "
                         f"({len(blob)} bytes, need {_HEADER.size})")
    magic, version, nu, npr = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, "
                              f"this build reads version {FORMAT_VERSION}")
    need = _HEADER.size + 8 * (nu + npr)
    if len(blob) != need:
        raise ParseError(f"{path}: expected {need} bytes, found {len(blob)}")
    body = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    u = np.array(body[:nu])
    p = np.array(body[nu:])
    diagnostics = {}
    side = _sidecar(path)
    if os.path.exists(side):
        with open(side, "rb") as fh:
            diagnostics = _json_object(fh.read(), f"sidecar {side}")
    return u, p, diagnostics


def _json_object(raw, what, line=None):
    """The JSON object in ASCII bytes ``raw``; ParseError otherwise."""
    try:
        obj = json.loads(raw.decode("ascii"))
    except ValueError as exc:      # also non-ASCII bytes
        raise ParseError(f"bad {what}: {exc}", line=line) from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{what} is not a JSON object", line=line)
    return obj


def _sidecar(path):
    return str(path) + ".json"


def _atomic_write(path, payload):
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class RunRegistryEntry:
    """One line of the registry: content id plus locating metadata."""

    run_id: str
    path: str
    kind: str
    n_velocity: int
    n_pressure: int

    def to_json(self):
        return json.dumps({"run_id": self.run_id, "path": self.path,
                           "kind": self.kind, "n_velocity": self.n_velocity,
                           "n_pressure": self.n_pressure}, sort_keys=True)


def _read_registry(registry_path):
    entries = {}
    if not os.path.exists(registry_path):
        return entries
    types = {f.name: f.type for f in fields(RunRegistryEntry)}
    with open(registry_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = _json_object(line, "registry record", lineno)
            if rec.keys() != types.keys() or not all(
                    isinstance(rec[k], t) for k, t in types.items()):
                raise ParseError("registry record is not a run entry",
                                 line=lineno)
            entries[rec["run_id"]] = rec
    return entries


def store_run(root, kind, u, p, diagnostics=None):
    """Store a run under its content hash; returns the registry entry.

    ``root`` holds ``runs/<id>.bin`` snapshots and a ``registry.ndjson``
    index.  Identical re-stores are silent no-ops; a colliding id whose
    stored bytes differ raises ``DuplicateRun``.
    """
    payload = _encode(u, p)
    run_id = hashlib.sha256(payload).hexdigest()
    runs_dir = os.path.join(str(root), "runs")
    snapshot = os.path.join(runs_dir, f"{run_id}.bin")
    registry_path = os.path.join(str(root), "registry.ndjson")

    _, _, nu, npr = _HEADER.unpack_from(payload)
    entry = RunRegistryEntry(run_id=run_id, path=snapshot, kind=str(kind),
                             n_velocity=int(nu), n_pressure=int(npr))

    existing = _read_registry(registry_path)
    if run_id in existing:
        with open(existing[run_id]["path"], "rb") as fh:
            stored = fh.read()
        if stored != payload:
            raise DuplicateRun(f"run {run_id} already stored with "
                               "different contents")
        return RunRegistryEntry(**existing[run_id])

    write_solution(snapshot, u, p, diagnostics)
    os.makedirs(str(root), exist_ok=True)
    with open(registry_path, "a", encoding="ascii", newline="") as fh:
        fh.write(entry.to_json() + "\n")
    return entry
