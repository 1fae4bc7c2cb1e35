"""Cross-batch verdict ledger: a union–find over proven-equal expressions.

Equivalence of weighted series is a congruence, so verdicts close under
symmetry and transitivity: once ``a ≡ b`` and ``b ≡ c`` are on record,
``a ≡ c`` needs no compilation and no Tzeng run.  Refutations propagate
too — from ``a ≡ b`` and ``b ≢ c`` with counterexample word ``w``, the
series of ``a`` and ``b`` are *identical as functions*, so ``w`` is
literally a counterexample for ``(a, c)`` as well.  Better: the two
pairs have the same counterexample *set*, so the shortlex-minimal
witness (which the staged decision procedure returns) transfers
unchanged — the inferred word is byte-identical to the one a direct
decision would produce.

The ledger tracks hash-consed :class:`~repro.core.expr.Expr` nodes
(pointer identity == structural equality), with deterministic
representatives: the root of every class is its member with the
smallest Merkle digest, so snapshots — and everything derived from the
ledger — are independent of insertion order across processes.

Refutations live in a per-root adjacency map ``root -> {other_root:
witness}`` kept symmetric; on union the losing root's neighbours are
re-keyed onto the winner, keeping the shortlex-least witness when both
classes already refuted the same neighbour.  Recording a verdict that
contradicts ledger state (equality between refuted classes, or a
refutation inside one class) raises — the inputs come from the sound
decision procedure, so a contradiction is a pipeline bug, never
something to paper over.

The ledger is bounded: adopting an expression beyond ``capacity``
resets the whole structure (counted in ``resets``) — partial eviction
of a union–find is not well-defined, and a full reset only costs
re-deriving inferences, never soundness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .persist import expr_digest

Witness = Tuple[str, ...]

DEFAULT_CAPACITY = 1 << 16

#: Canonical reason strings for ledger-inferred verdicts.  Inferred results
#: are pinned byte-identical to directly-decided ones *modulo* this tag, so
#: the tag itself must be deterministic and witness-stable.
INFERRED_PREFIX = "inferred:"
INFERRED_EQUAL_REASON = "inferred: transitive equivalence"

__all__ = [
    "VerdictLedger",
    "VerdictContradictionError",
    "DEFAULT_CAPACITY",
    "INFERRED_PREFIX",
    "INFERRED_EQUAL_REASON",
    "inferred_refuted_reason",
    "is_inferred_reason",
]


def inferred_refuted_reason(witness: Sequence[str]) -> str:
    """Canonical reason tag for a refutation transferred from the ledger."""
    return "inferred: transferred counterexample %s" % (" ".join(witness) or "ε")


def is_inferred_reason(reason: Optional[str]) -> bool:
    return bool(reason) and reason.startswith(INFERRED_PREFIX)


class VerdictContradictionError(RuntimeError):
    """Recording this verdict would contradict what the ledger has proven."""


def _shortlex(witness: Witness):
    return (len(witness), witness)


class VerdictLedger:
    __slots__ = ("capacity", "resets", "_parent", "_members", "_refuted")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(2, int(capacity))
        self.resets = 0
        self._parent: Dict[object, object] = {}
        self._members: Dict[object, List[object]] = {}
        self._refuted: Dict[object, Dict[object, Witness]] = {}

    def __len__(self) -> int:
        return len(self._parent)

    # -- core union-find ---------------------------------------------------

    def _find(self, expr):
        parent = self._parent
        if expr not in parent:
            return None
        root = expr
        while parent[root] is not root:
            root = parent[root]
        while parent[expr] is not root:
            parent[expr], expr = root, parent[expr]
        return root

    def _ensure_room(self, extra: int) -> None:
        if len(self._parent) + extra > self.capacity:
            self._parent.clear()
            self._members.clear()
            self._refuted.clear()
            self.resets += 1

    def _adopt(self, expr):
        root = self._find(expr)
        if root is not None:
            return root
        self._parent[expr] = expr
        self._members[expr] = [expr]
        return expr

    # -- recording ---------------------------------------------------------

    def record(self, left, right, result) -> None:
        """File an :class:`EquivalenceResult` decided for ``(left, right)``.

        Refutations without a counterexample word (∞-support mismatches
        surfaced without a witness) are ignored — they carry nothing the
        ledger could transfer.
        """
        if result.equal:
            self.record_equal(left, right)
        elif result.counterexample is not None:
            self.record_refuted(left, right, tuple(result.counterexample))

    def record_equal(self, left, right) -> None:
        if left is right:
            return
        if self.refutation(left, right) is not None:
            raise VerdictContradictionError(
                "equality recorded between classes with a refutation witness"
            )
        self._ensure_room(2)
        a, b = self._adopt(left), self._adopt(right)
        if a is b:
            return
        root, other = (a, b) if expr_digest(a) <= expr_digest(b) else (b, a)
        self._members[root].extend(self._members.pop(other))
        self._parent[other] = root
        moved = self._refuted.pop(other, None)
        if moved:
            bucket = self._refuted.setdefault(root, {})
            for neighbour, witness in moved.items():
                neighbour_map = self._refuted.setdefault(neighbour, {})
                neighbour_map.pop(other, None)
                existing = bucket.get(neighbour)
                if existing is not None and _shortlex(existing) <= _shortlex(witness):
                    witness = existing
                bucket[neighbour] = witness
                neighbour_map[root] = witness

    def record_refuted(self, left, right, witness: Sequence[str]) -> None:
        witness = tuple(witness)
        if left is right:
            raise VerdictContradictionError("refutation recorded for a pointer-equal pair")
        self._ensure_room(2)
        a, b = self._adopt(left), self._adopt(right)
        if a is b:
            raise VerdictContradictionError(
                "refutation recorded inside a proven-equal class"
            )
        existing = self._refuted.get(a, {}).get(b)
        if existing is not None and _shortlex(existing) <= _shortlex(witness):
            witness = existing
        self._refuted.setdefault(a, {})[b] = witness
        self._refuted.setdefault(b, {})[a] = witness

    # -- queries -----------------------------------------------------------

    def equivalent(self, left, right) -> bool:
        a = self._find(left)
        return a is not None and a is self._find(right)

    def refutation(self, left, right) -> Optional[Witness]:
        a, b = self._find(left), self._find(right)
        if a is None or b is None or a is b:
            return None
        return self._refuted.get(a, {}).get(b)

    def infer(self, left, right):
        """Return ``("equal", None)``, ``("refuted", witness)`` or ``None``."""
        a, b = self._find(left), self._find(right)
        if a is None or b is None:
            return None
        if a is b:
            return ("equal", None)
        witness = self._refuted.get(a, {}).get(b)
        if witness is not None:
            return ("refuted", witness)
        return None

    # -- persistence -------------------------------------------------------

    def snapshot(self):
        """Deterministic ``(classes, refutations)`` pair for the store's
        ledger snapshot (:meth:`repro.engine.NKAEngine.export_to_store`).

        Classes are the size-≥2 equivalence classes, members sorted by
        digest and classes by their root digest; refutations are
        ``(repr_a, repr_b, witness)`` triples over class representatives
        with ``digest(repr_a) < digest(repr_b)``, sorted by digest pair.
        Singleton classes carry no equality knowledge and are implied by
        the refutation triples, so they are not stored separately.
        """
        classes = sorted(
            (sorted(members, key=expr_digest) for members in self._members.values()
             if len(members) >= 2),
            key=lambda members: expr_digest(members[0]),
        )
        refutations = []
        for root, bucket in self._refuted.items():
            digest = expr_digest(root)
            for neighbour, witness in bucket.items():
                if digest < expr_digest(neighbour):
                    refutations.append((root, neighbour, witness))
        refutations.sort(key=lambda item: (expr_digest(item[0]), expr_digest(item[1])))
        return [list(c) for c in classes], refutations

    def restore(self, classes, refutations) -> None:
        """Replay a :meth:`snapshot` into this ledger (additive)."""
        for members in classes:
            if not members:
                continue
            base = members[0]
            for member in members[1:]:
                self.record_equal(base, member)
        for left, right, witness in refutations:
            self.record_refuted(left, right, tuple(witness))

    def clear(self) -> None:
        self._parent.clear()
        self._members.clear()
        self._refuted.clear()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        sizes = [len(m) for m in self._members.values() if len(m) >= 2]
        refuted_pairs = sum(len(bucket) for bucket in self._refuted.values()) // 2
        return {
            "tracked": len(self._parent),
            "classes": len(sizes),
            "largest_class": max(sizes, default=0),
            "refuted_pairs": refuted_pairs,
            "resets": self.resets,
            "capacity": self.capacity,
        }
