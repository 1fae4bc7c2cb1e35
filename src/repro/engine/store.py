"""Content-addressed shared compile store: the one persistence mechanism.

Every engine artefact that outlives a process lives here.  A fleet of
replicas (many engines, many processes, many hosts mounting one shared
directory) reads and writes the store concurrently, so the first replica
to compile an expression serves every other replica, forever, across
process and host boundaries.  Warm start is the same mechanism:
:meth:`repro.engine.NKAEngine.export_to_store` publishes an engine's
cached automata and verdicts plus a snapshot of its verdict ledger, and a
fresh ``NKAEngine(store=...)`` answers the exported workload with zero
compilations — from disk, through the same lookups a replica uses.

Addressing
----------

An entry is keyed by *content*, not by session:

``(expr_digest(expr), pipeline_fingerprint())``

— the Merkle digest of the interned expression crossed with the pipeline
fingerprint (:mod:`repro.engine.persist`).  Two hosts derive the same key
for structurally equal expressions iff they run the same pipeline, so a
store hit can never serve an automaton with different semantics than a
fresh compile.  The store holds two entry kinds under the same
discipline: compiled automata (``.wfa``, keyed by one digest) and
**verdicts** (``.verdict``, keyed by the *unordered* digest pair joined
with ``-`` — equivalence is symmetric, so both orientations address one
entry).  On disk::

    root/
      <fingerprint>/                 one directory per pipeline version
        index                        scan-free eviction index (append-only)
        <digest[:2]>/<digest>.wfa    one entry file per expression digest
        <dA[:2]>/<dA>-<dB>.verdict   one entry per decided digest pair
        ledger                       verdict-ledger snapshot (export only)

Writes are **atomic**: the payload is written to a ``.tmp-*`` file in the
fingerprint directory and ``os.replace``d into place (``fsync`` optional),
so a reader observes either no entry or a complete one — a writer SIGKILLed
mid-publish leaves at most an invisible temp file, never a torn visible
entry.  After the rename, one ``"digest size\\n"`` line is appended to the
index, which is how :meth:`CompileStore.evict` learns candidates without
walking the tree.

Corruption and staleness discipline
-----------------------------------

In the store, a torn, undecodable, misaddressed or stale entry is
**silently a miss** — counted in
``corrupt_skipped``, best-effort unlinked, and recompiled — never an
exception and never a wrong WFA.  A store is a cache of recomputable
artefacts; refusing service over one bad file would make the whole fleet's
availability hostage to a single disk hiccup.  Entries embed
``(magic, format, fingerprint, digest)`` next to the automaton, so a file
renamed, cross-linked or produced by another pipeline fails validation
even though its path looked right.

Lookup caches
-------------

Each :class:`CompileStore` handle keeps an in-process **positive** cache
(digest → WFA, a bounded LRU — mostly for several engines sharing one
handle) and a **probe** cache (key → ``(present, monotonic timestamp)``):
a recent stat or miss is trusted for ``negative_ttl`` seconds before the
disk is probed again, so a batch that misses an expression does not stat
the same path hundreds of times, while a publish from another process
becomes visible at most one TTL later.  A local publish records the key
present immediately.

Eviction
--------

``max_bytes`` bounds the store per fingerprint directory.
:meth:`CompileStore.evict` reads the index (tolerating torn trailing
lines), stats the candidates, and unlinks **oldest-mtime-first** until the
budget holds, then rewrites the index compacted (atomically) — no
directory scan.  Publishes that push the running byte estimate over
``max_bytes`` trigger an eviction opportunistically.

Ops tooling: ``python -m repro.engine.store describe <dir>`` and
``... gc <dir> [--max-bytes N] [--keep-stale]`` — entry counts, bytes,
ledger presence, fingerprint freshness, stale-version cleanup.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.automata.equivalence import EquivalenceResult
from repro.automata.wfa import WFA
from repro.core.expr import Expr
from repro.engine.persist import WarmStateError, expr_digest, pipeline_fingerprint
from repro.util.cache import LRUCache

__all__ = [
    "STORE_FORMAT",
    "CompileStore",
    "describe_store",
    "dumps_artifact",
    "gc_store",
    "loads_artifact",
    "verdict_pair_key",
]

STORE_FORMAT = 1

_MAGIC = "nka-compile-store"
_VERDICT_MAGIC = "nka-verdict-store"
_LEDGER_MAGIC = "nka-verdict-ledger"

# How long a probe result (key known present or absent) is trusted before
# the disk is probed again.  Long enough to de-duplicate probes within a
# batch, short enough that another replica's publish is picked up promptly.
NEGATIVE_TTL_SECONDS = 2.0

# Bound of the in-process positive (decoded artefact) cache; the probe
# cache holds up to four times as many keys.
LOOKUP_CACHE_SIZE = 4096
_PROBE_CAP = 4 * LOOKUP_CACHE_SIZE

_INDEX_NAME = "index"
_LEDGER_NAME = "ledger"  # also its index key: no digest has this length
_ENTRY_SUFFIX = ".wfa"
_VERDICT_SUFFIX = ".verdict"
_TMP_PREFIX = ".tmp-"

# The one pickling contract for every persisted artefact: automata,
# verdicts and the ledger snapshot all serialize through these two.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def dumps_artifact(obj: Any) -> bytes:
    """Serialize a persisted artefact under the shared pickling contract."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def loads_artifact(data: bytes) -> Any:
    """Deserialize persisted bytes, mapping every decode failure to
    :class:`WarmStateError` — callers never see raw pickle internals."""
    try:
        return pickle.loads(data)
    except (
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
        IndexError,
        MemoryError,
        TypeError,
        ValueError,
    ) as error:
        raise WarmStateError(f"persisted artefact is not decodable: {error}") from error

_DIGEST_LEN = 64
_PAIR_KEY_LEN = 2 * _DIGEST_LEN + 1  # "<dA>-<dB>", digests are hex so '-' is unambiguous


def verdict_pair_key(digest_a: str, digest_b: str) -> str:
    """The unordered store key of a digest pair (equivalence is symmetric,
    so both query orientations must address the same entry)."""
    if digest_a <= digest_b:
        return f"{digest_a}-{digest_b}"
    return f"{digest_b}-{digest_a}"


class CompileStore:
    """A directory-backed, content-addressed store of compiled automata.

    Construction touches no disk (imports stay I/O-free and a read-only
    replica can point at a store that does not exist yet); directories are
    created on first publish and reads treat a missing tree as a miss.

    Args:
        root: store directory (shared between processes/hosts at will).
        max_bytes: per-fingerprint byte budget enforced by :meth:`evict`
            and opportunistically on publish; ``None`` means unbounded.
        fsync: fsync entry files before the atomic rename (durability
            against power loss at a small latency cost; the default
            ``False`` still guarantees no *torn* entry, rename atomicity
            does not depend on it).
        negative_ttl: seconds a probe result is trusted (see module docs).

    Thread-safety: one handle may be shared by several engines/threads —
    cache and counter mutations are lock-guarded; file operations rely on
    tmp+rename atomicity for cross-process safety.
    """

    def __init__(
        self,
        root: str,
        max_bytes: Optional[int] = None,
        fsync: bool = False,
        negative_ttl: float = NEGATIVE_TTL_SECONDS,
    ):
        self.root = os.path.abspath(root)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.fsync = bool(fsync)
        self.negative_ttl = float(negative_ttl)
        self._lock = threading.RLock()
        self._positive = LRUCache(
            "compile-store.positive", maxsize=LOOKUP_CACHE_SIZE, register=False
        )
        # key → (present on disk, monotonic stamp).  Absence spares a batch
        # re-stat-ing a missed path; presence (payload not necessarily
        # decoded) lets contains_digests() answer repeat probes without a
        # syscall — the planner's cost model probes every batch expression
        # every plan.
        self._probes: "OrderedDict[str, Tuple[bool, float]]" = OrderedDict()
        self._fingerprint: Optional[str] = None
        # Running per-process estimate of the fingerprint directory's size;
        # initialised lazily from the index, kept current by local
        # publishes/evictions, made exact again by every evict().
        self._bytes_estimate: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.publishes = 0
        self.publish_skipped = 0
        self.evictions = 0
        self.corrupt_skipped = 0
        self.write_errors = 0
        self.verdict_hits = 0
        self.verdict_misses = 0
        self.verdict_publishes = 0
        self.verdict_publish_skipped = 0

    # -- addressing ---------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """This process's pipeline fingerprint (computed on first use)."""
        if self._fingerprint is None:
            self._fingerprint = pipeline_fingerprint()
        return self._fingerprint

    def _fingerprint_dir(self) -> str:
        return os.path.join(self.root, self.fingerprint)

    def _entry_path(self, key: str) -> str:
        if key == _LEDGER_NAME:
            return os.path.join(self._fingerprint_dir(), _LEDGER_NAME)
        suffix = _VERDICT_SUFFIX if len(key) == _PAIR_KEY_LEN else _ENTRY_SUFFIX
        return os.path.join(self._fingerprint_dir(), key[:2], key + suffix)

    def _index_path(self) -> str:
        return os.path.join(self._fingerprint_dir(), _INDEX_NAME)

    def spec(self) -> Dict[str, Any]:
        """A picklable description from which any process (fork *or* spawn)
        reopens an equivalent handle — what the engine ships to pool
        workers instead of the handle itself."""
        return {
            "root": self.root,
            "max_bytes": self.max_bytes,
            "fsync": self.fsync,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "CompileStore":
        return cls(
            spec["root"], max_bytes=spec.get("max_bytes"), fsync=spec.get("fsync", False)
        )

    # -- lookup -------------------------------------------------------------

    def _probe_get(self, key: str) -> Optional[bool]:
        """Whether ``key`` was recently seen present (``True``) or absent
        (``False``) on disk; ``None`` when unknown or older than the TTL.
        A stale "present" (another process evicted the entry) only
        mis-prices one plan — get() still treats the vanished file as a
        plain miss."""
        entry = self._probes.get(key)
        if entry is None:
            return None
        present, stamp = entry
        if time.monotonic() - stamp >= self.negative_ttl:
            del self._probes[key]
            return None
        return present

    def _probe_put(self, key: str, present: bool) -> None:
        self._probes[key] = (present, time.monotonic())
        self._probes.move_to_end(key)
        while len(self._probes) > _PROBE_CAP:
            self._probes.popitem(last=False)

    def get(self, expr: Expr) -> Optional[WFA]:
        """The stored automaton of ``expr``, or ``None`` (a miss).

        Misses include: no entry, an entry published under a different
        pipeline fingerprint (a different directory entirely), and any
        torn/undecodable/misaddressed entry (counted ``corrupt_skipped``
        and best-effort removed).  A hit is validated against the embedded
        ``(format, fingerprint, digest)`` before it is trusted.
        """
        digest = expr_digest(expr)
        with self._lock:
            cached = self._positive.get(digest)
            if cached is not None:
                self.hits += 1
                return cached
            if self._probe_get(digest) is False:
                self.negative_hits += 1
                self.misses += 1
                return None
        path = self._entry_path(digest)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self._probe_put(digest, False)
                self.misses += 1
            return None
        wfa = self._decode(data, digest, path)
        with self._lock:
            if wfa is None:
                self.corrupt_skipped += 1
                self.misses += 1
                return None
            self._positive.put(digest, wfa)
            self._probes.pop(digest, None)
            self.hits += 1
        return wfa

    def _decode_payload(
        self, data: bytes, magic: str, key: str, path: str, kind: type
    ) -> Any:
        """The body of one entry's bytes if its header ``(magic, format,
        fingerprint, key)`` checks out and the body is a ``kind``; ``None``
        (and best-effort unlink) on any defect — the silently-a-miss
        contract shared by every entry kind."""
        try:
            payload = loads_artifact(data)
        except WarmStateError:
            payload = None
        if (
            not isinstance(payload, tuple)
            or len(payload) != 5
            or payload[0] != magic
            or payload[1] != STORE_FORMAT
            or payload[2] != self.fingerprint
            or payload[3] != key
            or not isinstance(payload[4], kind)
        ):
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return payload[4]

    def _decode(self, data: bytes, digest: str, path: str) -> Optional[WFA]:
        return self._decode_payload(data, _MAGIC, digest, path, WFA)

    def contains(self, expr: Expr) -> bool:
        """Whether an entry for ``expr`` is (believed) present — the cheap
        membership probe the planner's cost model uses.  Consults only the
        in-process caches plus at most one ``stat``; never reads the
        payload.  Both outcomes are TTL-cached, so repeat probes of the
        same digest within a plan (or across back-to-back plans) cost no
        syscall at all."""
        digest = expr_digest(expr)
        return digest in self.contains_digests((digest,))

    def contains_digests(self, digests: Iterable[str]):
        """The subset of ``digests`` with a (believed) present entry.

        One pass through the in-process caches per digest, at most one
        ``stat`` per digest that neither cache can answer — planning a
        batch costs O(1) syscalls per *novel* digest, not per probe.
        """
        present = set()
        unresolved = []
        with self._lock:
            for digest in digests:
                known = digest in self._positive or self._probe_get(digest)
                if known:
                    present.add(digest)
                elif known is None:
                    unresolved.append(digest)
        for digest in unresolved:
            found = os.path.exists(self._entry_path(digest))
            if found:
                present.add(digest)
            with self._lock:
                self._probe_put(digest, found)
        return present

    # -- publish ------------------------------------------------------------

    def publish(self, expr: Expr, wfa: WFA) -> bool:
        """Write ``(expr, wfa)`` into the store; ``True`` iff a new entry
        landed (an already-present digest is skipped — the fleet compiles
        each expression once).

        Never raises for I/O problems: a full or read-only disk makes the
        store degrade to a cache that simply stops filling (counted in
        ``write_errors``), not a crashed engine.
        """
        digest = expr_digest(expr)
        if os.path.exists(self._entry_path(digest)):
            with self._lock:
                self.publish_skipped += 1
                self._probe_put(digest, True)
            return False
        data = dumps_artifact((_MAGIC, STORE_FORMAT, self.fingerprint, digest, wfa))
        if not self._write_entry(digest, data):
            return False
        with self._lock:
            self.publishes += 1
            self._positive.put(digest, wfa)
            self._probe_put(digest, True)
        self._account_write(len(data))
        return True

    def _write_entry(self, key: str, data: bytes) -> bool:
        """Atomically land one entry file + its index line; ``False`` (and a
        ``write_errors`` bump) on any I/O problem."""
        path = self._entry_path(key)
        fingerprint_dir = self._fingerprint_dir()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            descriptor, tmp_path = tempfile.mkstemp(
                dir=fingerprint_dir, prefix=_TMP_PREFIX
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    handle.write(data)
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            # Index append happens *after* the entry is visible: a crash in
            # between leaves an unindexed (evict-invisible) entry that
            # ``gc`` re-indexes, never a phantom index line for a torn file.
            with open(self._index_path(), "a") as index:
                index.write(f"{key} {len(data)}\n")
        except OSError:
            with self._lock:
                self.write_errors += 1
            return False
        return True

    def _account_write(self, size: int) -> None:
        """Grow the running byte estimate by one landed entry and enforce
        ``max_bytes`` opportunistically."""
        with self._lock:
            if self._bytes_estimate is not None:
                self._bytes_estimate += size
        if self.max_bytes is not None and self._estimate_bytes() > self.max_bytes:
            self.evict()

    def publish_many(self, items: Iterable[Tuple[Expr, WFA]]) -> int:
        """Publish a batch (e.g. a warm-back merge); returns entries written."""
        return sum(1 for expr, wfa in items if self.publish(expr, wfa))

    # -- verdict entries ------------------------------------------------------

    def get_verdict(self, digest_a: str, digest_b: str) -> Optional[EquivalenceResult]:
        """The stored :class:`EquivalenceResult` of an unordered digest
        pair, or ``None`` — same silently-a-miss contract as :meth:`get`."""
        key = verdict_pair_key(digest_a, digest_b)
        with self._lock:
            cached = self._positive.get(key)
            if cached is not None:
                self.verdict_hits += 1
                return cached
            if self._probe_get(key) is False:
                self.negative_hits += 1
                self.verdict_misses += 1
                return None
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            with self._lock:
                self._probe_put(key, False)
                self.verdict_misses += 1
            return None
        result = self._decode_verdict(data, key, path)
        with self._lock:
            if result is None:
                self.corrupt_skipped += 1
                self.verdict_misses += 1
                return None
            self._positive.put(key, result)
            self._probes.pop(key, None)
            self.verdict_hits += 1
        return result

    def _decode_verdict(
        self, data: bytes, key: str, path: str
    ) -> Optional[EquivalenceResult]:
        return self._decode_payload(data, _VERDICT_MAGIC, key, path, EquivalenceResult)

    def publish_verdict(
        self, digest_a: str, digest_b: str, result: EquivalenceResult
    ) -> bool:
        """Write one decided verdict; ``True`` iff a new entry landed (the
        fleet decides each distinct pair at most once)."""
        key = verdict_pair_key(digest_a, digest_b)
        if os.path.exists(self._entry_path(key)):
            with self._lock:
                self.verdict_publish_skipped += 1
                self._probe_put(key, True)
            return False
        data = dumps_artifact((_VERDICT_MAGIC, STORE_FORMAT, self.fingerprint, key, result))
        if not self._write_entry(key, data):
            return False
        with self._lock:
            self.verdict_publishes += 1
            self._positive.put(key, result)
            self._probe_put(key, True)
        self._account_write(len(data))
        return True

    def publish_verdicts(
        self, items: Iterable[Tuple[str, str, EquivalenceResult]]
    ) -> int:
        """Publish decided verdicts in bulk; returns entries written."""
        return sum(
            1 for digest_a, digest_b, result in items
            if self.publish_verdict(digest_a, digest_b, result)
        )

    # -- verdict-ledger snapshot ---------------------------------------------

    def get_ledger(self) -> Optional[Tuple[list, list]]:
        """The exported verdict-ledger snapshot ``(classes, refutations)``
        (the shape :meth:`VerdictLedger.snapshot` returns), or ``None``.
        A torn, foreign or stale entry is a miss counted in
        ``corrupt_skipped`` and best-effort removed, like any entry."""
        path = self._entry_path(_LEDGER_NAME)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        snapshot = self._decode_payload(data, _LEDGER_MAGIC, _LEDGER_NAME, path, tuple)
        if snapshot is None:
            with self._lock:
                self.corrupt_skipped += 1
        return snapshot

    def publish_ledger(self, classes: list, refutations: list) -> bool:
        """Write the verdict-ledger snapshot, replacing any earlier one
        (unlike automata and verdicts, a snapshot is not content-addressed:
        the exporting engine merges the previous one in first).  ``True``
        iff it landed."""
        data = dumps_artifact(
            (_LEDGER_MAGIC, STORE_FORMAT, self.fingerprint, _LEDGER_NAME,
             (classes, refutations))
        )
        if not self._write_entry(_LEDGER_NAME, data):
            return False
        self._account_write(len(data))
        return True

    # -- eviction -----------------------------------------------------------

    def _read_index(self) -> Dict[str, int]:
        """Digest → recorded size from the index file, tolerating torn
        trailing lines (concurrent appenders, SIGKILLed writers)."""
        entries: Dict[str, int] = {}
        try:
            with open(self._index_path(), "r") as handle:
                for line in handle:
                    parts = line.split()
                    if len(parts) != 2 or (
                        len(parts[0]) not in (_DIGEST_LEN, _PAIR_KEY_LEN)
                        and parts[0] != _LEDGER_NAME
                    ):
                        continue  # torn or foreign line: skip, never raise
                    try:
                        entries[parts[0]] = int(parts[1])
                    except ValueError:
                        continue
        except OSError:
            pass
        return entries

    def _estimate_bytes(self) -> int:
        with self._lock:
            if self._bytes_estimate is None:
                self._bytes_estimate = sum(self._read_index().values())
            return self._bytes_estimate

    def evict(self, max_bytes: Optional[int] = None) -> int:
        """Shrink this fingerprint's entries under the byte budget.

        Index-driven (no directory walk): candidates come from the index
        file, each is ``stat``ed for existence, size and mtime, and the
        **oldest-mtime** entries are unlinked until the budget holds —
        recently (re)written entries survive, which under concurrent
        publish approximates LRU well enough for a cache of recomputable
        artefacts.  The index is rewritten compacted (atomic tmp+rename).
        Returns the number of entries evicted.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        with self._lock:
            index = self._read_index()
            survivors: List[Tuple[float, str, int]] = []
            total = 0
            for digest, _recorded in index.items():
                path = self._entry_path(digest)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # already gone (evicted elsewhere): drop line
                survivors.append((stat.st_mtime, digest, stat.st_size))
                total += stat.st_size
            evicted = 0
            if budget is not None and total > budget:
                survivors.sort()  # oldest mtime first
                keep: List[Tuple[float, str, int]] = []
                for mtime, digest, size in survivors:
                    if total > budget:
                        try:
                            os.unlink(self._entry_path(digest))
                        except OSError:
                            keep.append((mtime, digest, size))
                            continue
                        total -= size
                        evicted += 1
                        self._positive.pop(digest)
                        self._probes.pop(digest, None)
                    else:
                        keep.append((mtime, digest, size))
                survivors = keep
            self._rewrite_index(survivors)
            self._bytes_estimate = total
            self.evictions += evicted
        return evicted

    def _rewrite_index(self, survivors: List[Tuple[float, str, int]]) -> None:
        fingerprint_dir = self._fingerprint_dir()
        if not os.path.isdir(fingerprint_dir):
            return
        try:
            descriptor, tmp_path = tempfile.mkstemp(
                dir=fingerprint_dir, prefix=_TMP_PREFIX
            )
            with os.fdopen(descriptor, "w") as handle:
                for _mtime, digest, size in survivors:
                    handle.write(f"{digest} {size}\n")
            os.replace(tmp_path, self._index_path())
        except OSError:
            pass  # a stale index only costs evict() some extra stats

    # -- observability ------------------------------------------------------

    def invalidate_negative(self, keys: Optional[Iterable[str]] = None) -> int:
        """Forget recent *misses* so the next lookup re-probes the disk.

        The probe cache trusts an absence for ``negative_ttl`` seconds —
        correct for one engine polling its own store, but a coalesced batch
        may contain a pair whose verdict a sibling replica published
        *milliseconds ago*, right after this handle's plan-time probe cached
        the miss.  The serving layer's second-chance probe calls this with
        the batch's digests and pair keys (see
        ``NKAEngine.invalidate_negative_verdicts``) so such a pair is served
        off the store instead of being re-decided.

        ``keys`` may mix expression digests and verdict pair keys; ``None``
        drops every absent entry.  Present entries and decoded artefacts
        are untouched — they can only become stale through eviction, which
        ``get`` already handles as a plain miss.  Returns the number of
        entries dropped.
        """
        with self._lock:
            dropped = 0
            for key in list(self._probes) if keys is None else keys:
                entry = self._probes.get(key)
                if entry is not None and not entry[0]:
                    del self._probes[key]
                    dropped += 1
            return dropped

    def clear_lookup_cache(self) -> None:
        """Drop the in-process artefact and probe caches (the next reads go
        to disk — used by tests and by replicas that want immediate
        visibility of another process's publishes)."""
        with self._lock:
            self._positive.clear()
            self._probes.clear()

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly counters (the ``store`` section of engine stats)."""
        with self._lock:
            return {
                "root": self.root,
                "fingerprint": self.fingerprint[:12],
                "hits": self.hits,
                "misses": self.misses,
                "negative_hits": self.negative_hits,
                "publishes": self.publishes,
                "publish_skipped": self.publish_skipped,
                "evictions": self.evictions,
                "corrupt_skipped": self.corrupt_skipped,
                "write_errors": self.write_errors,
                "verdict_hits": self.verdict_hits,
                "verdict_misses": self.verdict_misses,
                "verdict_publishes": self.verdict_publishes,
                "verdict_publish_skipped": self.verdict_publish_skipped,
                "bytes": self._estimate_bytes(),
                "max_bytes": self.max_bytes,
                "lookup_cached": len(self._positive),
            }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"CompileStore({self.root!r}, max_bytes={self.max_bytes})"


# -- ops CLI --------------------------------------------------------------------


def _entry_kind(filename: str) -> Optional[str]:
    """``"wfa"``, ``"verdict"`` or ``"ledger"`` for an entry file name;
    ``None`` for the index, temp files and anything foreign."""
    if filename == _LEDGER_NAME:
        return "ledger"
    if filename.endswith(_ENTRY_SUFFIX):
        return "wfa"
    if filename.endswith(_VERDICT_SUFFIX):
        return "verdict"
    return None


_TOTALS = (
    "entries", "bytes", "wfa_entries", "wfa_bytes",
    "verdict_entries", "verdict_bytes", "ledger_bytes",
)


def describe_store(root: str) -> Dict[str, Any]:
    """Inspect a store directory: per-fingerprint entry counts, bytes,
    whether a verdict-ledger snapshot exists (and its size), and freshness
    against this process's pipeline.

    This is the one read path allowed to *scan* (ops tooling, not the
    serving hot path).  Unreadable roots describe as empty rather than
    raising — the ops question "what is there?" has the answer "nothing".
    """
    current = pipeline_fingerprint()
    description: Dict[str, Any] = {
        "root": os.path.abspath(root),
        "current_fingerprint": current,
        "fingerprints": {},
        **dict.fromkeys(_TOTALS, 0),
        "tmp_files": 0,
    }
    try:
        versions = sorted(os.listdir(root))
    except OSError:
        return description
    for version in versions:
        version_dir = os.path.join(root, version)
        if not os.path.isdir(version_dir):
            continue
        counts = {"wfa": 0, "verdict": 0, "ledger": 0}
        sizes = dict(counts)
        indexed = 0
        for dirpath, _dirnames, filenames in os.walk(version_dir):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                if filename.startswith(_TMP_PREFIX):
                    description["tmp_files"] += 1
                    continue
                if filename == _INDEX_NAME:
                    with open(path) as handle:
                        indexed = sum(1 for _line in handle)
                    continue
                kind = _entry_kind(filename)
                if kind is not None:
                    counts[kind] += 1
                    try:
                        sizes[kind] += os.path.getsize(path)
                    except OSError:
                        pass
        row = {
            "entries": sum(counts.values()),
            "bytes": sum(sizes.values()),
            "wfa_entries": counts["wfa"],
            "wfa_bytes": sizes["wfa"],
            "verdict_entries": counts["verdict"],
            "verdict_bytes": sizes["verdict"],
            "ledger": counts["ledger"] > 0,
            "ledger_bytes": sizes["ledger"],
            "indexed": indexed,
            "fresh": version == current,
        }
        description["fingerprints"][version] = row
        for key in _TOTALS:
            description[key] += row[key]
    return description


def gc_store(
    root: str,
    max_bytes: Optional[int] = None,
    drop_stale: bool = True,
    tmp_age_seconds: float = 60.0,
) -> Dict[str, Any]:
    """Garbage-collect a store directory.

    Removes fingerprint directories of *other* pipeline versions, ledger
    snapshot included (no running replica of this pipeline can ever read
    them; ``drop_stale=False``
    keeps them for fleets running mixed versions off one mount), deletes
    orphaned temp files older than ``tmp_age_seconds`` (young ones may be a
    live publisher's in-flight write), rebuilds the current fingerprint's
    index from the actual entries, ledger snapshot included (re-adopting
    any entry a crash left unindexed), and finally enforces ``max_bytes`` through
    :meth:`CompileStore.evict`.
    """
    current = pipeline_fingerprint()
    report = {
        "root": os.path.abspath(root),
        "stale_fingerprints_removed": 0,
        "tmp_files_removed": 0,
        "entries_reindexed": 0,
        "entries_evicted": 0,
    }
    try:
        versions = os.listdir(root)
    except OSError:
        return report
    now = time.time()
    for version in versions:
        version_dir = os.path.join(root, version)
        if not os.path.isdir(version_dir):
            continue
        if version != current and drop_stale:
            shutil.rmtree(version_dir, ignore_errors=True)
            report["stale_fingerprints_removed"] += 1
            continue
        for dirpath, _dirnames, filenames in os.walk(version_dir):
            for filename in filenames:
                if not filename.startswith(_TMP_PREFIX):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    if now - os.path.getmtime(path) >= tmp_age_seconds:
                        os.unlink(path)
                        report["tmp_files_removed"] += 1
                except OSError:
                    pass
    # Rebuild the current index from what actually exists.
    store = CompileStore(root, max_bytes=max_bytes)
    current_dir = os.path.join(root, current)
    survivors: List[Tuple[float, str, int]] = []
    if os.path.isdir(current_dir):
        for dirpath, _dirnames, filenames in os.walk(current_dir):
            for filename in filenames:
                kind = _entry_kind(filename)
                if kind is None:
                    continue
                key = filename if kind == "ledger" else os.path.splitext(filename)[0]
                try:
                    stat = os.stat(os.path.join(dirpath, filename))
                except OSError:
                    continue
                survivors.append((stat.st_mtime, key, stat.st_size))
        store._rewrite_index(survivors)
        report["entries_reindexed"] = len(survivors)
    if max_bytes is not None:
        report["entries_evicted"] = store.evict(max_bytes)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.store",
        description="Inspect and maintain a content-addressed compile store.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    describe = commands.add_parser(
        "describe", help="entry counts, bytes, fingerprint freshness (JSON)"
    )
    describe.add_argument("root")
    gc = commands.add_parser(
        "gc", help="drop stale fingerprints/temp files, reindex, enforce budget"
    )
    gc.add_argument("root")
    gc.add_argument("--max-bytes", type=int, default=None)
    gc.add_argument(
        "--keep-stale",
        action="store_true",
        help="keep other pipeline versions' directories (mixed-version fleets)",
    )
    args = parser.parse_args(argv)
    if args.command == "describe":
        print(json.dumps(describe_store(args.root), indent=2, sort_keys=True))
    else:
        print(
            json.dumps(
                gc_store(
                    args.root,
                    max_bytes=args.max_bytes,
                    drop_stale=not args.keep_stale,
                ),
                indent=2,
                sort_keys=True,
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
