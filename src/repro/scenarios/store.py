"""Append-only campaign result store with resume-by-skipping semantics.

A campaign writes under ``<results_dir>/<campaign>/``:

* ``manifest.json`` — the campaign's identity: grid hash (SHA-256 over
  the canonical JSON of every cell spec + the seed), cell count, and the
  machine metadata the ``BENCH_*`` headers record, so a stored campaign
  is interpretable (and resumable) later;
* ``results.jsonl`` — one canonical-JSON line per completed cell,
  appended (and flushed to disk) the moment the cell finishes.

Resume contract: re-opening a campaign with ``resume=True`` first
*repairs* the tail — a run killed mid-append leaves at most one
truncated line, which is cut back to the last complete record — then
skips every cell whose key is already present.  Because cells run in
deterministic order, are pure functions of their seed labels, and every
record is serialised canonically (sorted keys, no whitespace, NaN
mapped to ``null``), a killed-then-resumed campaign converges to a store
byte-identical to an uninterrupted run.  Nothing in the store depends on
wall-clock time or worker count.

Integrity and quarantine (the fault-tolerance additions):

* every appended record embeds a CRC-32 of its own canonical JSON under
  the ``"_crc32"`` key (which sorts first), verified on resume and on
  every read — corruption anywhere *before* the repairable tail raises
  :class:`~repro.errors.StoreIntegrityError` instead of silently
  dropping or re-running completed work;
* a cell whose retry budget is exhausted is recorded in the
  ``quarantine.jsonl`` sidecar (and counted in the manifest) rather than
  aborting the campaign; a ``resume`` open clears the sidecar so exactly
  the quarantined cells are re-attempted;
* once every cell has completed, :meth:`ResultStore.finalize` compacts
  the store — reordering raw record lines into cell run order and
  dropping the quarantine bookkeeping — so a faulty-then-resumed
  campaign converges byte-identically to an undisturbed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import zlib
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.errors import ParameterError, StoreIntegrityError
from repro.parallel.executor import machine_metadata

SCHEMA = "repro-scenarios v1"

#: Record key carrying the per-record checksum.  The underscore makes it
#: sort ahead of every data field, so checksummed lines stay canonical.
CHECKSUM_KEY = "_crc32"


def jsonify(value):
    """Recursively coerce a record into canonical-JSON-safe types.

    Numpy scalars become Python numbers; non-finite floats become None
    (JSON has no NaN, and ``null`` is what the reducers' NaN-skipping
    expects back); mappings/sequences recurse.
    """
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if np.isfinite(value) else None
    return value


def canonical_json(record) -> str:
    """The one serialisation every store byte compares against."""
    return json.dumps(jsonify(record), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def _checksum(payload: str) -> str:
    """CRC-32 (hex) of a record's canonical JSON, sans the checksum field."""
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def checksummed_line(record) -> str:
    """A record's canonical store line with its embedded ``_crc32``."""
    body = jsonify(record)
    body.pop(CHECKSUM_KEY, None)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    body[CHECKSUM_KEY] = _checksum(payload)
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def record_checksum_ok(parsed: dict) -> bool:
    """Whether a parsed store record matches its embedded checksum.

    Records without a ``_crc32`` field (pre-checksum stores) pass: their
    integrity is still guarded by JSON parseability, just not by CRC.
    """
    stored = parsed.get(CHECKSUM_KEY)
    if stored is None:
        return True
    body = {k: v for k, v in parsed.items() if k != CHECKSUM_KEY}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    return _checksum(payload) == stored


def grid_hash(campaign: str, seed: int, cells) -> str:
    """SHA-256 identity of a campaign's expanded grid.

    Covers the campaign name, the seed, and every cell spec in run
    order — anything that changes which numbers the cells produce.
    Deliberately excludes workers/runtime/machine: those change
    wall-clock only, and a campaign must resume across them.
    """
    payload = canonical_json({
        "schema": SCHEMA,
        "campaign": campaign,
        "seed": int(seed),
        "cells": [cell.to_json() for cell in cells],
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultStore:
    """One campaign's on-disk results (see module docstring)."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.manifest_path = self.directory / "manifest.json"
        self.results_path = self.directory / "results.jsonl"
        self.quarantine_path = self.directory / "quarantine.jsonl"
        self._completed: set[str] = set()
        self._quarantined: set[str] = set()

    # -------------------------------------------------------------- opening
    @classmethod
    def open(
        cls,
        results_dir,
        campaign: str,
        *,
        seed: int,
        cells,
        smoke: bool,
        resume: bool = False,
    ) -> "ResultStore":
        """Create a fresh store, or re-open one to resume.

        A fresh open refuses to touch an existing campaign directory that
        already holds results (pass ``resume=True``, or pick another
        campaign name).  A resume open verifies the manifest's grid hash
        against the grid being requested — resuming a campaign with a
        different grid would silently interleave incomparable cells.
        Resuming a campaign that was never started just creates it.
        """
        if not campaign or "/" in campaign or ":" in campaign:
            raise ParameterError(
                f"campaign name {campaign!r} must be non-empty and free of "
                "':' and '/' (it rides in seed labels and paths)"
            )
        store = cls(Path(results_dir) / campaign)
        digest = grid_hash(campaign, seed, cells)
        if store.results_path.exists():
            if not resume:
                raise ParameterError(
                    f"campaign {campaign!r} already has results at "
                    f"{store.results_path}; pass resume=True (--resume) to "
                    "skip its completed cells, or choose another campaign "
                    "name"
                )
            store._verify_manifest(digest)
            store._repair_tail()
            store._load_completed()
            store._reset_quarantine()
            return store
        store.directory.mkdir(parents=True, exist_ok=True)
        store._write_manifest({
            "schema": SCHEMA,
            "campaign": campaign,
            "seed": int(seed),
            "smoke": bool(smoke),
            "grid_hash": digest,
            "n_cells": len(cells),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": machine_metadata(),
        })
        store.results_path.touch()
        return store

    def _write_manifest(self, manifest: dict) -> None:
        with open(self.manifest_path, "w", encoding="utf-8") as fh:
            json.dump(jsonify(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            raise ParameterError(
                f"no campaign manifest at {self.manifest_path}"
            )
        with open(self.manifest_path, encoding="utf-8") as fh:
            return json.load(fh)

    def _verify_manifest(self, digest: str) -> None:
        manifest = self.read_manifest()
        stored = manifest.get("grid_hash")
        if stored != digest:
            raise ParameterError(
                f"campaign at {self.directory} was started with a different "
                f"grid (stored hash {stored!r:.20}..., requested "
                f"{digest!r:.20}...); results would not be comparable — "
                "use a fresh campaign name for a changed grid"
            )

    # ------------------------------------------------------------ the tail
    def _repair_tail(self) -> None:
        """Cut a kill-truncated final line back to the last complete record.

        Only the *final* line is repairable: a truncated append (no
        newline), a complete line that is not JSON, or a complete line
        failing its checksum — all states a kill or torn write can leave
        the tail in.  The cut cell simply re-runs.  Anything wrong
        before the tail is mid-file corruption and is reported by
        :meth:`_load_completed`, never repaired away.
        """
        raw = self.results_path.read_bytes()
        if not raw:
            return
        keep = raw
        if not keep.endswith(b"\n"):
            last_newline = keep.rfind(b"\n")
            keep = keep[: last_newline + 1] if last_newline >= 0 else b""
        else:
            # A flush can land mid-record only without its newline, but a
            # corrupt complete line (disk trouble) must not poison resume.
            last = keep[:-1].rpartition(b"\n")[2]
            try:
                parsed = json.loads(last.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                keep = keep[: len(keep) - len(last) - 1]
            else:
                if isinstance(parsed, dict) and not record_checksum_ok(parsed):
                    keep = keep[: len(keep) - len(last) - 1]
        if keep != raw:
            with open(self.results_path, "r+b") as fh:
                fh.truncate(len(keep))
            obs.event("store.tail_repair", path=str(self.results_path),
                      bytes_dropped=len(raw) - len(keep))
            obs.count("store.tail_repairs")

    def _load_completed(self) -> None:
        """Index completed cells, verifying every record's checksum.

        Runs after :meth:`_repair_tail`, so any record that fails to
        parse or fails its CRC here sits *before* the repairable tail —
        resuming over it would silently drop (or worse, trust) damaged
        completed work, so it raises a named
        :class:`~repro.errors.StoreIntegrityError` instead.
        """
        self._completed = set()
        with open(self.results_path, encoding="utf-8") as fh:
            for index, line in enumerate(fh):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    raise StoreIntegrityError(
                        f"corrupt record at line {index + 1} of "
                        f"{self.results_path}: not valid JSON (mid-file "
                        "corruption; only the final line is repairable)"
                    ) from None
                if not (isinstance(record, dict) and record_checksum_ok(record)):
                    raise StoreIntegrityError(
                        f"corrupt record at line {index + 1} of "
                        f"{self.results_path}: checksum mismatch (mid-file "
                        "corruption; only the final line is repairable)"
                    )
                self._completed.add(record["key"])

    # ------------------------------------------------------------- records
    def is_completed(self, key: str) -> bool:
        return key in self._completed

    @property
    def n_completed(self) -> int:
        return len(self._completed)

    def append(self, record: dict) -> None:
        """Durably append one completed cell (fsync: a kill loses at most
        the record being written, never an earlier one).

        Each line embeds its own CRC-32.
        """
        line = checksummed_line(record) + "\n"
        with open(self.results_path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self._completed.add(record["key"])
        obs.count("store.appends")
        obs.count("store.bytes_appended", len(line))

    def records(self) -> list[dict]:
        """Every completed cell record, in run (= file) order.

        Read-only tolerant of a kill-truncated (or checksum-failing)
        final line (reports on an interrupted campaign must render the
        completed cells, and the next ``resume`` open repairs the file);
        corruption anywhere *before* the tail is a real integrity
        problem and raises :class:`~repro.errors.StoreIntegrityError`.
        """
        if not self.results_path.exists():
            raise ParameterError(f"no campaign results at {self.results_path}")
        # Bytes, decoded per line: a kill can tear the tail mid multi-byte
        # character, which must read as "torn", not as a decoding crash.
        lines = self.results_path.read_bytes().splitlines(keepends=True)
        out = []
        for index, line in enumerate(lines):
            last = index == len(lines) - 1
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if last:
                    break
                raise StoreIntegrityError(
                    f"corrupt record at line {index + 1} of "
                    f"{self.results_path}; the store is append-only and "
                    "only its final line may be torn"
                ) from None
            if isinstance(record, dict) and not record_checksum_ok(record):
                if last:
                    break
                raise StoreIntegrityError(
                    f"corrupt record at line {index + 1} of "
                    f"{self.results_path}: checksum mismatch; the store is "
                    "append-only and only its final line may be torn"
                )
            out.append(record)
        return out

    # ---------------------------------------------------------- quarantine
    def quarantine(self, record: dict) -> None:
        """Record a cell whose retry budget ran out, without failing the run.

        The record lands in the ``quarantine.jsonl`` sidecar — canonical
        JSON with a checksum, like any result — and the manifest's
        ``"quarantined"`` count is updated, so an interrupted-or-degraded
        campaign is visibly incomplete until a ``resume`` re-attempts
        exactly these cells.
        """
        line = checksummed_line(record) + "\n"
        with open(self.quarantine_path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self._quarantined.add(record["key"])
        obs.count("store.quarantine_records")
        manifest = self.read_manifest()
        manifest["quarantined"] = len(self._quarantined)
        self._write_manifest(manifest)

    def _reset_quarantine(self) -> None:
        """Drop quarantine bookkeeping on resume.

        Quarantined cells were never appended to the results, so the
        ordinary skip-completed loop re-attempts exactly them; stale
        sidecar records would only shadow the re-attempt's outcome.
        """
        self._quarantined = set()
        if self.quarantine_path.exists():
            self.quarantine_path.unlink()
        manifest = self.read_manifest()
        if manifest.pop("quarantined", None) is not None:
            self._write_manifest(manifest)

    def is_quarantined(self, key: str) -> bool:
        return key in self._quarantined

    @property
    def n_quarantined(self) -> int:
        return len(self._quarantined)

    def quarantined_records(self) -> list[dict]:
        """The quarantine sidecar's records, in file order (may be empty)."""
        if not self.quarantine_path.exists():
            return []
        with open(self.quarantine_path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    # ------------------------------------------------------------ finalize
    def finalize(self, keys_in_order) -> bool:
        """Compact a *complete* store into canonical cell order.

        A faulty run appends quarantine-rescued cells on resume, i.e.
        after cells that originally came later — same bytes per record,
        different line order.  Once every key in ``keys_in_order`` is
        present, this reorders the raw record lines to match (atomic
        tmp-write + rename) and drops the quarantine bookkeeping, making
        the store byte-identical to an undisturbed run's.  Returns True
        when the store is complete (compacted or already canonical);
        False — touching nothing — while cells are still missing.
        """
        keys = list(keys_in_order)
        if self._quarantined or set(keys) != self._completed or \
                len(keys) != len(self._completed):
            return False
        with open(self.results_path, "rb") as fh:
            lines = fh.readlines()
        by_key = {}
        for line in lines:
            by_key[json.loads(line)["key"]] = line
        ordered = [by_key[key] for key in keys]
        if ordered != lines:
            tmp = self.results_path.with_suffix(".jsonl.tmp")
            with open(tmp, "wb") as fh:
                fh.writelines(ordered)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.results_path)
            obs.event("store.compact", records=len(ordered))
            obs.count("store.compactions")
        if self.quarantine_path.exists():
            self.quarantine_path.unlink()
        manifest = self.read_manifest()
        if manifest.pop("quarantined", None) is not None:
            self._write_manifest(manifest)
        return True
