"""Content addressing for persisted engine artefacts.

A compiled WFA and an equivalence verdict depend only on the expressions
they were computed from — and on the code that computed them.  This module
names both halves: :func:`expr_digest` is a Merkle digest of an interned
expression, stable across processes and hosts, and
:func:`pipeline_fingerprint` is a hash over the source of every module
whose behaviour the artefacts depend on (expression interning, the
Thompson construction, ε-elimination, Tzeng, the sparse kernels) plus a
format version.  The compile store (:mod:`repro.engine.store`) keys every
entry by the pair, so an artefact produced by another pipeline is never
served as a fresh one.  Warm start is a store mount: an engine exports its
caches with :meth:`repro.engine.NKAEngine.export_to_store` and a new
process answers the same workload from ``NKAEngine(store=...)`` with zero
compilations.

Nothing in this module runs at import time: fingerprints are computed on
first use, so ``import repro`` stays free of disk I/O.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from typing import Optional

from repro.core.expr import Expr, One, Product, Star, Sum, Symbol, Zero
from repro.util.cache import LRUCache

__all__ = [
    "PERSIST_FORMAT",
    "WarmStateError",
    "pipeline_fingerprint",
    "expr_digest",
]

# Format 2: persisted artefacts grew the verdict-ledger snapshot.  The
# constant participates in the pipeline fingerprint, so every format-1
# store tree is cleanly stale.
PERSIST_FORMAT = 2

# Modules whose source determines the meaning of persisted artefacts.  A
# change to any of them (new node layout, different ε-elimination, a Tzeng
# rework …) flips the fingerprint and invalidates every stored state.
_FINGERPRINT_MODULES = (
    "repro.core.expr",
    "repro.core.semiring",
    "repro.linalg.semiring",
    "repro.linalg.sparse",
    "repro.linalg.rowspace",
    "repro.linalg.kernels",
    "repro.linalg.kernels.numpy_backend",
    "repro.automata.nfa",
    "repro.automata.wfa",
    "repro.automata.equivalence",
)

_FINGERPRINT: Optional[str] = None


def pipeline_fingerprint() -> str:
    """Hex digest identifying the compile pipeline's current behaviour.

    Computed once per process (the sources cannot change under a running
    interpreter in any way that matters to already-imported code).

    The module list is deliberately **planner-independent**:
    ``repro.engine.planner`` (and the executor/pool around it) only decide
    *which process compiles what in which order* — never the bytes of a
    compiled automaton or a verdict — so reordering or rechunking logic
    must not invalidate every persisted artefact in the fleet.  Only
    modules whose source determines artefact *meaning* (interning, the
    Thompson construction, ε-elimination, Tzeng, the semiring kernels)
    participate; ``tests/test_compile_store.py`` pins the exact list.

    Raises :class:`WarmStateError` when any fingerprint module has no
    readable source file (e.g. a ``.pyc``-only install): silently skipping
    a module would fingerprint an *incomplete* pipeline, and two hosts
    with different missing subsets would collide on the same fingerprint
    while running different code — exactly the wrong-WFA scenario the
    fingerprint exists to prevent.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        digest = hashlib.sha256()
        digest.update(f"format:{PERSIST_FORMAT}".encode())
        for name in _FINGERPRINT_MODULES:
            module = importlib.import_module(name)
            source = getattr(module, "__file__", None)
            digest.update(name.encode())
            if not source or not os.path.exists(source):
                raise WarmStateError(
                    f"cannot fingerprint pipeline: module {name!r} has no "
                    f"readable source file ({source!r}); refusing to stamp "
                    "artefacts with an incomplete pipeline fingerprint"
                )
            with open(source, "rb") as handle:
                digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


_DIGEST_CACHE = LRUCache("persist.expr_digest", maxsize=1 << 16)


def expr_digest(expr: Expr) -> str:
    """Content digest of an interned expression, stable across hosts.

    A Merkle-style sha256 over the syntax tree: each node hashes its
    constructor tag plus its children's digests (symbols length-prefix
    their name, so ``ab·c`` and ``a·bc`` cannot collide).  Because nodes
    are hash-consed, the digest memoizes per interned node — digesting a
    batch costs one hash per *distinct* subterm, and two processes (or two
    hosts) always derive the same digest for structurally equal
    expressions, which is what lets the compile store address artefacts by
    content instead of by session.
    """
    cached = _DIGEST_CACHE.get(expr)
    if cached is not None:
        return cached
    if isinstance(expr, Zero):
        encoded = b"Z"
    elif isinstance(expr, One):
        encoded = b"E"
    elif isinstance(expr, Symbol):
        name = expr.name.encode("utf-8")
        encoded = b"S%d:%s" % (len(name), name)
    elif isinstance(expr, Sum):
        encoded = b"+%s%s" % (
            expr_digest(expr.left).encode(),
            expr_digest(expr.right).encode(),
        )
    elif isinstance(expr, Product):
        encoded = b".%s%s" % (
            expr_digest(expr.left).encode(),
            expr_digest(expr.right).encode(),
        )
    elif isinstance(expr, Star):
        encoded = b"*%s" % expr_digest(expr.body).encode()
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot digest non-expression {expr!r}")
    digest = hashlib.sha256(encoded).hexdigest()
    _DIGEST_CACHE.put(expr, digest)
    return digest


class WarmStateError(RuntimeError):
    """Persisted state cannot be trusted: an artefact does not decode, or
    the pipeline cannot be fingerprinted."""
