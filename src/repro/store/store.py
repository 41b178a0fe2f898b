"""Content-addressed, multi-writer-safe verdict store.

On-disk layout (everything JSON, everything atomic-rename'd)::

    <root>/
      index.json            # fingerprint -> blob address (+ metadata)
      objects/<aa>/<sha256>.json   # one record per file, named by the
                                   # SHA-256 of its canonical JSON

Records are **content-addressed**: a blob's filename is the hash of
its bytes, so two processes that derive the same verdict write the
same file — blob writes are idempotent and can never conflict.  The
mutable part is only the index, and :meth:`VerdictStore.save` merges
it instead of overwriting: under an advisory file lock it re-reads
the on-disk index, unions it with the in-memory entries (conflicts —
two different blobs for one key — resolve by lexicographically
largest blob hash, so merging commutes), and atomically replaces the
file.  Two concurrent campaigns sharing one store therefore lose zero
entries.

Loading tolerates damage loudly: a corrupt or schema-mismatched index
is logged (with the schema actually found) and treated as empty, an
unreadable blob is logged and treated as a miss, and orphaned
``*.tmp`` files from a crashed save are removed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Union

from ..obs.telemetry import current as _telemetry
from .records import (Outcome, VerdictRecord, _decode_outcomes,
                      verdict_fingerprint)

log = logging.getLogger("repro.store")

INDEX_SCHEMA = "repro.store.index/v1"
#: Index schemas :class:`VerdictStore` loads.  Append on every bump.
READABLE_INDEX_SCHEMAS = (INDEX_SCHEMA,)

#: The legacy single-file allowed-set cache schema
#: (:data:`repro.litmus.campaign.CACHE_SCHEMA`), importable via
#: :meth:`VerdictStore.import_allowed_cache`.
LEGACY_CACHE_SCHEMA = "repro.litmus.allowed-cache/v1"


@contextlib.contextmanager
def _file_lock(path: Path) -> Iterator[None]:
    """Advisory exclusive lock on ``path`` (best-effort off-POSIX)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        try:
            import fcntl
            fcntl.flock(handle, fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        yield


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text(text)
    os.replace(tmp, path)


class VerdictStore:
    """Digest-keyed verdict storage under one root directory.

    Two lookup granularities:

    * :meth:`get` / :meth:`put` — full :class:`VerdictRecord` by input
      fingerprint (test digest x model x config), the incremental
      campaign's unit of replay.
    * :meth:`get_allowed` / :meth:`put_allowed` — bare allowed set by
      :func:`~repro.litmus.campaign.canonical_test_digest`, the legacy
      ``AllowedSetCache`` granularity.  Any stored verdict record also
      serves its allowed set, so a campaign under a *different* seed
      count still skips re-enumeration.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.index_path = self.root / "index.json"
        self.objects = self.root / "objects"
        #: fingerprint -> {"blob", "digest", "name", "reference"}
        self._verdicts: Dict[str, Dict] = {}
        #: test digest -> {"blob"} (allowed-only entries)
        self._allowed: Dict[str, Dict] = {}
        #: test digest -> blob hash for *any* record carrying that
        #: digest's allowed set (secondary index, rebuilt on load).
        self._allowed_blobs: Dict[str, str] = {}
        self._records: Dict[str, VerdictRecord] = {}  # blob -> record
        self.hits = 0
        self.misses = 0
        self.allowed_hits = 0
        self.allowed_misses = 0
        self.puts = 0
        #: Puts since the store was opened or last saved.
        self._unsaved = 0
        self._load()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._cleanup_tmp()
        raw = self._read_index(self.index_path)
        self._verdicts = dict(raw.get("verdicts", {}))
        self._allowed = dict(raw.get("allowed", {}))
        self._rebuild_secondary()

    def _cleanup_tmp(self) -> None:
        """Remove ``*.tmp`` orphans left by a crashed save."""
        for tmp in list(self.root.glob("*.tmp")) + \
                list(self.objects.glob("*/*.tmp")):
            log.warning("store %s: removing orphaned temp file %s "
                        "(crashed save?)", self.root, tmp.name)
            with contextlib.suppress(OSError):
                tmp.unlink()

    @staticmethod
    def _read_index(path: Path) -> Dict:
        if not path.exists():
            return {}
        try:
            raw = json.loads(path.read_text())
        except OSError:
            return {}
        except ValueError:
            log.warning("store index %s: corrupt JSON, starting from "
                        "an empty index (blobs are untouched)", path)
            return {}
        schema = raw.get("schema") if isinstance(raw, dict) else None
        if schema not in READABLE_INDEX_SCHEMAS:
            log.warning("store index %s: unreadable schema %r "
                        "(expected one of %s), ignoring it",
                        path, schema, list(READABLE_INDEX_SCHEMAS))
            return {}
        return raw

    def _rebuild_secondary(self) -> None:
        self._allowed_blobs = {
            digest: meta["blob"] for digest, meta in self._allowed.items()}
        # Verdict records shadow allowed-only entries: they are newer
        # and carry strictly more.
        for meta in self._verdicts.values():
            self._allowed_blobs[meta["digest"]] = meta["blob"]

    # ------------------------------------------------------------------
    # Blob I/O
    # ------------------------------------------------------------------
    def _blob_path(self, blob: str) -> Path:
        return self.objects / blob[:2] / f"{blob}.json"

    def _write_blob(self, record: VerdictRecord) -> str:
        blob = record.content_digest()
        path = self._blob_path(blob)
        if not path.exists():
            # Content-addressed: concurrent writers of the same record
            # produce byte-identical files, so replace is idempotent.
            _atomic_write_text(path, record.canonical_blob())
        self._records[blob] = record
        return blob

    def _read_blob(self, blob: str) -> Optional[VerdictRecord]:
        cached = self._records.get(blob)
        if cached is not None:
            return cached
        path = self._blob_path(blob)
        try:
            record = VerdictRecord.from_dict(json.loads(path.read_text()))
        except OSError:
            log.warning("store %s: missing blob %s", self.root, blob)
            return None
        except ValueError as exc:
            log.warning("store %s: unreadable blob %s (%s)",
                        self.root, blob, exc)
            return None
        self._records[blob] = record
        return record

    # ------------------------------------------------------------------
    # Verdict granularity
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[VerdictRecord]:
        meta = self._verdicts.get(fingerprint)
        record = self._read_blob(meta["blob"]) if meta else None
        tel = _telemetry()
        if record is None:
            self.misses += 1
            tel.counter("store.misses").inc()
        else:
            self.hits += 1
            tel.counter("store.hits").inc()
        return record

    def peek(self, fingerprint: str) -> Optional[VerdictRecord]:
        """Like :meth:`get` but without touching the hit/miss
        counters — for internal bookkeeping lookups (e.g. the serve
        daemon resolving a batch it just ran)."""
        meta = self._verdicts.get(fingerprint)
        return self._read_blob(meta["blob"]) if meta else None

    def put(self, record: VerdictRecord) -> str:
        """Store a record; returns its blob address."""
        blob = self._write_blob(record)
        if record.fingerprint:
            self._verdicts[record.fingerprint] = {
                "blob": blob, "digest": record.test_digest,
                "name": record.name, "reference": record.reference}
        else:
            self._allowed[record.test_digest] = {"blob": blob}
        self._allowed_blobs.setdefault(record.test_digest, blob)
        if record.fingerprint:
            self._allowed_blobs[record.test_digest] = blob
        self.puts += 1
        self._unsaved += 1
        _telemetry().counter("store.puts").inc()
        return blob

    def get_verdict(self, test, config) -> Optional[VerdictRecord]:
        """Convenience: fingerprint ``(test, config)`` and look it up."""
        from ..litmus.campaign import canonical_test_digest
        from ..litmus.harness import ENGINE_REFERENCE_MODEL
        digest = canonical_test_digest(
            test, ENGINE_REFERENCE_MODEL[config.model])
        return self.get(verdict_fingerprint(digest, config,
                                            name=test.name))

    # ------------------------------------------------------------------
    # Allowed-set granularity
    # ------------------------------------------------------------------
    def get_allowed(self, test_digest: str) -> Optional[Set[Outcome]]:
        blob = self._allowed_blobs.get(test_digest)
        record = self._read_blob(blob) if blob else None
        if record is None:
            self.allowed_misses += 1
            return None
        self.allowed_hits += 1
        _telemetry().counter("store.allowed_served").inc()
        return set(record.allowed)

    def put_allowed(self, test_digest: str,
                    allowed: Set[Outcome]) -> str:
        return self.put(VerdictRecord.allowed_only(test_digest, allowed))

    def import_allowed_cache(self, path: Union[str, Path]) -> int:
        """Absorb a legacy ``repro.litmus.allowed-cache/v1`` file;
        returns the number of entries imported."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except (OSError, ValueError):
            log.warning("cannot import legacy cache %s: unreadable",
                        path)
            return 0
        if raw.get("schema") != LEGACY_CACHE_SCHEMA:
            log.warning("cannot import legacy cache %s: schema %r "
                        "(expected %r)", path, raw.get("schema"),
                        LEGACY_CACHE_SCHEMA)
            return 0
        imported = 0
        for digest, outcomes in raw.get("entries", {}).items():
            if digest not in self._allowed_blobs:
                self.put_allowed(digest, _decode_outcomes(outcomes))
                imported += 1
        return imported

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> None:
        """Merge the in-memory index into the on-disk one.

        Union per key map; a key present in both with different blobs
        resolves to the lexicographically largest blob hash — an
        arbitrary but *commutative* rule, so any save order converges
        on the same index.  Runs under an advisory lock so concurrent
        savers serialise their read-merge-replace cycles.  A store with
        nothing put since it was opened or last saved has nothing to
        merge, and leaves the index untouched.
        """
        if not self._unsaved:
            return
        with _file_lock(self.root / ".lock"):
            with _telemetry().span("store.save", path=str(self.root)):
                on_disk = self._read_index(self.index_path)
                merged_v = self._merge(on_disk.get("verdicts", {}),
                                       self._verdicts)
                merged_a = self._merge(on_disk.get("allowed", {}),
                                       self._allowed)
                payload = {"schema": INDEX_SCHEMA,
                           "verdicts": merged_v, "allowed": merged_a}
                _atomic_write_text(
                    self.index_path,
                    json.dumps(payload, indent=1, sort_keys=True))
                self._verdicts = merged_v
                self._allowed = merged_a
                self._rebuild_secondary()
                self._unsaved = 0

    @staticmethod
    def _merge(theirs: Dict[str, Dict],
               ours: Dict[str, Dict]) -> Dict[str, Dict]:
        merged = dict(theirs)
        for key, meta in ours.items():
            other = merged.get(key)
            if other is not None and other["blob"] > meta["blob"]:
                continue
            merged[key] = meta
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct stored entries (verdicts + unshadowed allowed)."""
        return len(self._verdicts) + len(
            set(self._allowed) - {meta["digest"]
                                  for meta in self._verdicts.values()})

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._verdicts

    def stats(self) -> Dict:
        """JSON-ready store description (instance-lifetime counters)."""
        return {
            "path": str(self.root),
            "records": len(self),
            "verdicts": len(self._verdicts),
            "hits": self.hits,
            "misses": self.misses,
            "allowed_hits": self.allowed_hits,
            "allowed_misses": self.allowed_misses,
            "puts": self.puts,
        }
