"""The verdict tier: transitive inference ledger + fleet-shared verdict store.

Equivalence of weighted series is a congruence (the Kleene-algebra survey's
framing), so verdicts close under symmetry and transitivity — the
:class:`~repro.engine.verdicts.VerdictLedger` is the union–find that
operationalises this, and the :class:`~repro.engine.store.CompileStore`'s
``.verdict`` entries are its fleet-wide dual.  This suite pins:

* the ledger's algebra — deterministic (insertion-order-independent)
  representatives and snapshots, refutation re-keying on union, shortlex
  witness selection, capacity resets, contradiction detection;
* the engine wiring — inferred-equal answers with zero compiles and zero
  Tzeng runs, inferred-refuted answers whose transferred witness is
  byte-identical to a direct decision's, the ``REPRO_VERDICT_INFER`` /
  ``configure(infer_verdicts=...)`` toggles, and round-trips of the
  union–find through a store export;
* the store tier — verdict entries evicting under the same byte budget as
  WFAs, corruption-as-miss, ``contains_digests`` batching, the
  ``describe`` split, and pool workers serving whole verdicts.
"""

import os
import pickle

import pytest

from gen import random_pairs

from repro.core.expr import sym
from repro.engine import NKAEngine, WorkerPool, pipeline_fingerprint
from repro.engine.executor import decide_pure
from repro.engine.persist import expr_digest
from repro.engine.store import CompileStore, describe_store, verdict_pair_key
from repro.engine.verdicts import (
    INFERRED_EQUAL_REASON,
    VerdictContradictionError,
    VerdictLedger,
)


def _assoc_family(count, factors=6, seed=11):
    """Distinct-but-equivalent re-associations of one symbol product."""
    import random

    rng = random.Random(seed)
    syms = [sym(f"s{i}") for i in range(factors)]

    def associate(lo, hi):
        if hi - lo == 1:
            return syms[lo]
        split = rng.randint(lo + 1, hi - 1)
        return associate(lo, split) * associate(split, hi)

    family, seen = [], set()
    while len(family) < count:
        expr = associate(0, factors)
        if expr not in seen:
            seen.add(expr)
            family.append(expr)
    return family


class TestLedgerAlgebra:
    def test_transitive_equal_inference(self):
        a, b, c = _assoc_family(3)
        ledger = VerdictLedger()
        ledger.record_equal(a, b)
        ledger.record_equal(b, c)
        assert ledger.equivalent(a, c)
        assert ledger.infer(a, c) == ("equal", None)
        assert ledger.infer(a, sym("untracked")) is None

    def test_roots_are_insertion_order_independent(self):
        members = _assoc_family(4)
        forward, backward = VerdictLedger(), VerdictLedger()
        for left, right in zip(members, members[1:]):
            forward.record_equal(left, right)
        for left, right in reversed(list(zip(members, members[1:]))):
            backward.record_equal(left, right)
        assert forward.snapshot() == backward.snapshot()

    def test_refutation_transfers_across_union(self):
        a, b, c = _assoc_family(3)
        other = sym("other")
        ledger = VerdictLedger()
        ledger.record_refuted(a, other, ("w",))
        # Union a's class with b and c *after* the refutation: the
        # refutation index re-keys onto the merged root.
        ledger.record_equal(a, b)
        ledger.record_equal(b, c)
        assert ledger.refutation(c, other) == ("w",)
        assert ledger.infer(c, other) == ("refuted", ("w",))

    def test_shortlex_least_witness_wins(self):
        a, b = _assoc_family(2)
        ledger = VerdictLedger()
        ledger.record_refuted(a, b, ("z",))
        ledger.record_refuted(a, b, ("a", "a"))  # longer: ignored
        assert ledger.refutation(a, b) == ("z",)
        ledger.record_refuted(a, b, ("a",))  # same length, lex-smaller: wins
        assert ledger.refutation(b, a) == ("a",)

    def test_capacity_reset_keeps_soundness(self):
        ledger = VerdictLedger(capacity=4)
        exprs = [sym(f"cap{i}") for i in range(8)]
        for left, right in zip(exprs, exprs[1:]):
            ledger.record_equal(left, right)
        assert ledger.resets > 0
        # Whatever survived the reset must still answer consistently.
        for left, right in zip(exprs, exprs[1:]):
            assert ledger.infer(left, right) in (("equal", None), None)

    def test_contradictions_raise(self):
        a, b, c = _assoc_family(3)
        ledger = VerdictLedger()
        ledger.record_equal(a, b)
        with pytest.raises(VerdictContradictionError):
            ledger.record_refuted(a, b, ("w",))
        with pytest.raises(VerdictContradictionError):
            ledger.record_refuted(a, a, ("w",))
        ledger.record_refuted(b, c, ("w",))
        with pytest.raises(VerdictContradictionError):
            ledger.record_equal(a, c)

    def test_snapshot_restore_round_trip(self):
        members = _assoc_family(4)
        tail = sym("tail-sym")
        ledger = VerdictLedger()
        for left, right in zip(members, members[1:]):
            ledger.record_equal(left, right)
        ledger.record_refuted(members[0], tail, ("t", "t"))
        classes, refutations = ledger.snapshot()
        restored = VerdictLedger()
        restored.restore(classes, refutations)
        assert restored.snapshot() == (classes, refutations)
        assert restored.infer(members[0], members[-1]) == ("equal", None)
        assert restored.infer(members[-1], tail) == ("refuted", ("t", "t"))


class TestEngineInference:
    def test_inferred_equal_zero_compiles_zero_decisions(self):
        a, b, c = _assoc_family(3, seed=21)
        engine = NKAEngine("infer-eq", infer_verdicts=True)
        assert engine.equal(a, b) and engine.equal(b, c)
        decisions = engine.stats()["decisions"]
        compilations = engine.compilations
        result = engine.equal_detailed(a, c)
        assert result.equal and result.reason == INFERRED_EQUAL_REASON
        assert engine.stats()["decisions"] == decisions
        assert engine.compilations == compilations
        assert engine.stats()["verdicts"]["inferred_equal"] == 1

    def test_inferred_refutation_matches_direct_witness(self):
        a, b, _ = _assoc_family(3, seed=22)
        tail = a * sym("refuter")
        oracle = NKAEngine("infer-oracle")
        direct = oracle.equal_detailed(b, tail)
        assert not direct.equal
        engine = NKAEngine("infer-ref", infer_verdicts=True)
        engine.equal(a, b)
        engine.equal(a, tail)
        inferred = engine.equal_detailed(b, tail)
        assert not inferred.equal
        assert inferred.counterexample == direct.counterexample
        assert inferred.reason.startswith("inferred:")
        # The transferred word really distinguishes the two series.
        word = inferred.counterexample
        assert engine.coefficient(b, word) != engine.coefficient(tail, word)

    def test_env_and_configure_toggles(self, monkeypatch):
        assert NKAEngine("inf-def").stats()["verdicts"]["infer_enabled"] is False
        monkeypatch.setenv("REPRO_VERDICT_INFER", "1")
        assert NKAEngine("inf-env").stats()["verdicts"]["infer_enabled"] is True
        monkeypatch.setenv("REPRO_VERDICT_INFER", "off")
        assert NKAEngine("inf-env2").stats()["verdicts"]["infer_enabled"] is False
        # Explicit kwarg beats the environment either way.
        monkeypatch.setenv("REPRO_VERDICT_INFER", "1")
        assert (
            NKAEngine("inf-kw", infer_verdicts=False).stats()["verdicts"][
                "infer_enabled"
            ]
            is False
        )
        engine = NKAEngine("inf-cfg")
        a, b, c = _assoc_family(3, seed=23)
        engine.equal(a, b), engine.equal(b, c)
        # Verdicts recorded while inference was off become usable the
        # moment it is switched on: recording is unconditional.
        engine.configure(infer_verdicts=True)
        decisions = engine.stats()["decisions"]
        assert engine.equal_detailed(a, c).reason == INFERRED_EQUAL_REASON
        assert engine.stats()["decisions"] == decisions

    def test_warm_state_round_trips_union_find(self, tmp_path):
        a, b, c = _assoc_family(3, seed=24)
        tail = a * sym("warm-tail")
        warm = NKAEngine("warm-src", infer_verdicts=True)
        warm.equal(a, b), warm.equal(b, c), warm.equal(a, tail)
        root = str(tmp_path / "store")
        assert warm.export_to_store(root)["ledger"] is True
        assert describe_store(root)["fingerprints"][pipeline_fingerprint()]["ledger"]

        fresh = NKAEngine("warm-dst", infer_verdicts=True, store=root)
        # Neither pair was decided at the source, so neither has a verdict
        # entry: only the restored ledger can answer them.
        result = fresh.equal_detailed(a, c)
        assert result.reason == INFERRED_EQUAL_REASON
        refuted = fresh.equal_detailed(c, tail)
        assert refuted.reason.startswith("inferred:")
        stats = fresh.stats()
        assert stats["decisions"] == 0
        assert stats["verdicts"]["classes"] == 1
        assert stats["verdicts"]["refuted_pairs"] == 1

    def test_export_merges_the_stored_ledger(self, tmp_path):
        """Re-exporting from an engine that never consulted the ledger must
        not shrink the snapshot an earlier export wrote."""
        a, b, c = _assoc_family(3, seed=25)
        root = str(tmp_path / "store")
        first = NKAEngine("ledger-first", infer_verdicts=True)
        first.equal(a, b), first.equal(b, c)
        first.export_to_store(root)
        second = NKAEngine("ledger-second", store=root)  # inference off
        second.equal(a, sym("other"))
        second.export_to_store(root)
        third = NKAEngine("ledger-third", infer_verdicts=True, store=root)
        assert third.equal_detailed(a, c).reason == INFERRED_EQUAL_REASON
        assert third.stats()["decisions"] == 0

    def test_ledger_section_in_stats_json(self):
        import json

        engine = NKAEngine("stats-verdicts")
        section = json.loads(engine.stats_json())["verdicts"]
        for key in (
            "infer_enabled", "direct", "cache_hits", "inferred_equal",
            "inferred_refuted", "store_hits", "worker_store_hits",
            "published", "classes", "largest_class", "resets",
        ):
            assert key in section, key


class TestVerdictStore:
    def test_pair_key_is_unordered(self):
        key = verdict_pair_key("b" * 64, "a" * 64)
        assert key == verdict_pair_key("a" * 64, "b" * 64)
        assert key == "a" * 64 + "-" + "b" * 64

    def test_round_trip_and_corruption_as_miss(self, tmp_path):
        store = CompileStore(str(tmp_path))
        a, b = _assoc_family(2, seed=31)
        result = NKAEngine("vs-oracle").equal_detailed(a, b)
        da, db = expr_digest(a), expr_digest(b)
        assert store.get_verdict(da, db) is None
        assert store.publish_verdict(da, db, result) is True
        assert store.publish_verdict(db, da, result) is False  # symmetric dup
        fresh = CompileStore(str(tmp_path))
        served = fresh.get_verdict(db, da)
        assert pickle.dumps(served) == pickle.dumps(result)
        # Corrupt the entry: silently a miss, counted, unlinked.
        path = fresh._entry_path(verdict_pair_key(da, db))
        with open(path, "wb") as handle:
            handle.write(b"torn")
        mangled = CompileStore(str(tmp_path))
        assert mangled.get_verdict(da, db) is None
        assert mangled.stats()["corrupt_skipped"] == 1
        assert not os.path.exists(path)

    def test_verdict_entries_evict_under_byte_budget(self, tmp_path):
        store = CompileStore(str(tmp_path))
        oracle = NKAEngine("vs-evict-oracle")
        pairs = random_pairs(seed=932, count=12, depth=2, equal_fraction=0.0)
        for left, right in pairs:
            if left is right:
                continue
            result = oracle.equal_detailed(left, right)
            store.publish_verdict(
                expr_digest(left), expr_digest(right), result
            )
        published = store.stats()["verdict_publishes"]
        assert published > 4
        evicted = store.evict(max_bytes=0)
        assert evicted == published
        store.clear_lookup_cache()
        left, right = next((l, r) for l, r in pairs if l is not r)
        assert store.get_verdict(expr_digest(left), expr_digest(right)) is None

    def test_contains_digests_batches_probes(self, tmp_path):
        store = CompileStore(str(tmp_path))
        engine = NKAEngine("vs-contains", store=store)
        exprs = [sym(f"cd{i}") for i in range(4)]
        for expr in exprs[:2]:
            engine.compile(expr)
        digests = {expr_digest(expr) for expr in exprs}
        present = store.contains_digests(digests)
        assert present == {expr_digest(expr) for expr in exprs[:2]}
        # Both outcomes are now TTL-cached: a repeat probe stats nothing.
        calls = []
        original = os.path.exists

        def counting_exists(path):
            calls.append(path)
            return original(path)

        os.path.exists, _saved = counting_exists, os.path.exists
        try:
            again = store.contains_digests(digests)
        finally:
            os.path.exists = _saved
        assert again == present
        assert calls == []

    def test_describe_splits_wfa_and_verdict_entries(self, tmp_path):
        root = str(tmp_path)
        store = CompileStore(root)
        engine = NKAEngine("vs-describe", store=store)
        a, b = _assoc_family(2, seed=33)
        result = engine.equal_detailed(a, b)
        description = describe_store(root)
        assert description["wfa_entries"] == 2
        assert description["verdict_entries"] == 1
        assert description["entries"] == 3
        assert description["verdict_bytes"] > 0
        assert description["bytes"] == (
            description["wfa_bytes"] + description["verdict_bytes"]
        )

    def test_pool_workers_serve_verdicts(self, tmp_path):
        """A worker probes the verdict store before deciding: pre-published
        pairs come back without a compile or a Tzeng run, flagged in the
        outcome so the parent never re-publishes them."""
        pairs = [
            pair
            for pair in random_pairs(seed=934, count=10, depth=2, equal_fraction=0.2)
            if pair[0] is not pair[1]
        ]
        store = CompileStore(str(tmp_path))
        oracle = NKAEngine("vs-pool-oracle")
        expected = {}
        for task_id, (left, right) in enumerate(pairs):
            result = oracle.equal_detailed(left, right)
            expected[task_id] = result
            store.publish_verdict(expr_digest(left), expr_digest(right), result)
        pool = WorkerPool(
            1, pipeline_fingerprint(), store_spec=store.spec()
        )
        try:
            chunks = [
                [(task_id, left, right)]
                for task_id, (left, right) in enumerate(pairs)
            ]
            verdicts, outcome = pool.run_batch(chunks, decide_pure)
        finally:
            pool.close()
        assert outcome.verdict_store_task_ids == set(expected)
        for task_id, result in expected.items():
            assert pickle.dumps(verdicts[task_id]) == pickle.dumps(result)


class TestStoreBackedInference:
    def test_store_hits_seed_the_ledger_for_inference(self, tmp_path):
        """Replica chains: verdicts served off the store are recorded in
        the replica's ledger, so closure pairs it has *never seen
        published* are inferred locally."""
        family = _assoc_family(4, seed=41)
        root = str(tmp_path)
        publisher = NKAEngine("sbi-pub", store=root)
        for left, right in zip(family, family[1:]):
            publisher.equal(left, right)

        replica = NKAEngine("sbi-sub", store=root, infer_verdicts=True)
        for left, right in zip(family, family[1:]):
            replica.equal(left, right)  # all served from the verdict store
        assert replica.stats()["decisions"] == 0
        assert replica.compilations == 0
        closure = replica.equal_detailed(family[0], family[-1])
        assert closure.equal and closure.reason == INFERRED_EQUAL_REASON
        assert replica.stats()["decisions"] == 0
        assert replica.compilations == 0
        # Inferred verdicts are never published back to the fleet.
        assert replica.stats()["verdicts"]["published"] == 0
