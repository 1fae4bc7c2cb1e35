"""Differential gate for the vectorized (numpy) kernels.

The kernel protocol (:mod:`repro.linalg.kernels`) promises that every
vectorized fast path either returns **exactly** what the pure-python
oracle returns or declines back to it, and that declines are *observable*
(per-op fallback counters).  This suite holds both promises to the flame:

* operation-level parity on seeded random inputs — ``star``, ``mul``,
  ``reachable`` and NFA subset steps;
* boundary cases that MUST decline: ``∞`` weights, entries at/beyond the
  float64 exact-integer range (2⁵³), closures whose path counts overflow
  it — each asserted to take the fallback path via
  :func:`repro.linalg.kernels.fallback_count` *and* to produce the
  oracle's bytes anyway;
* pipeline-level parity — the :mod:`tests.gen` property workload decided
  by a default engine and by one under the ``python_kernel`` fixture
  (``tests/conftest.py``): verdicts and counterexample words must be
  pickled-bytes-identical, and compiled automata semantically equal.
"""

import pickle
import random

import pytest

from gen import random_int_entries, random_pairs

from repro.core.expr import Product, Star, Sum, Symbol
from repro.core.semiring import ExtNat, INF, ONE
from repro.engine import NKAEngine
from repro.linalg import BOOL, EXT_NAT, SparseMatrix, kernels, reachable
from repro.linalg.kernels import numpy_backend

pytestmark = pytest.mark.skipif(
    not numpy_backend.available(), reason="numpy not importable"
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    kernels.reset_kernel_stats()
    yield
    kernels.reset_kernel_stats()


def _ext_nat_matrix(rng, n, density=0.3, hi=3, inf_fraction=0.0):
    matrix = SparseMatrix(n, n, EXT_NAT)
    for i, j, value in random_int_entries(rng, n, n, density, 1, hi):
        weight = INF if rng.random() < inf_fraction else ExtNat(value)
        matrix.add_entry(i, j, weight)
    return matrix


def _chain_matrix(length, weight=2):
    """0 → 1 → … → length with constant weight: closure[0][length] = wᵏ."""
    matrix = SparseMatrix(length + 1, length + 1, EXT_NAT)
    for i in range(length):
        matrix.add_entry(i, i + 1, ExtNat(weight))
    return matrix


class TestBackendSelection:
    def test_numpy_is_the_default_when_importable(self):
        assert kernels.backend_name() == "numpy"
        assert kernels.vectorized_active()

    def test_python_kernel_fixture_pins_and_restores(self, python_kernel):
        with python_kernel():
            assert kernels.backend_name() == "python"
            assert not kernels.vectorized_active()
        assert kernels.backend_name() == "numpy"

    def test_numpy_loads_on_first_kernel_call_not_at_engine_construction(self):
        """numpy's import is a start-up cost that ``import repro`` and
        building an engine must not pay; the first compile does."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "from repro.engine import NKAEngine\n"
            "from repro.core.expr import Star, Symbol\n"
            "engine = NKAEngine()\n"
            "print('numpy' in sys.modules)\n"
            "engine.compile(Star(Star(Symbol('a'))))\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]

    def test_engine_stats_expose_kernel_section(self):
        with NKAEngine("kernel-stats") as engine:
            a, b = Symbol("a"), Symbol("b")
            engine.equal(Star(Sum(a, b)), Star(Sum(b, a)))
            section = engine.stats()["kernel"]
        assert section["backend"] == "numpy"
        assert section["numpy_available"] is True
        assert set(section["ops"]) == {"star", "mul", "reachable", "nfa_successors"}
        for counts in section["ops"].values():
            assert counts["fallback_total"] == sum(counts["fallbacks"].values())

    def test_default_engine_stats_report_numpy_and_count_compiles(self):
        """A default engine reports the kernel that actually ran, and its
        vectorized counter moves when a compile takes the fast path."""
        a, b = Symbol("a"), Symbol("b")
        with NKAEngine("kernel-report") as engine:
            before = engine.stats()["kernel"]
            engine.compile(Star(Product(Star(Sum(a, b)), Star(a))))
            after = engine.stats()["kernel"]
        assert before["backend"] == after["backend"] == "numpy"
        assert "configured" not in after
        assert after["ops"]["star"]["vectorized"] > before["ops"]["star"]["vectorized"]


class TestStarParity:
    def test_random_ext_nat_matrices_match_oracle(self, python_kernel):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(numpy_backend.STAR_MIN_STATES, 24)
            matrix = _ext_nat_matrix(rng, n, density=0.25, hi=3)
            if rng.random() < 0.5:
                matrix.add_entry(rng.randrange(n), rng.randrange(n), ONE)
            with python_kernel():
                oracle = matrix.star()
            fast = matrix.star()
            assert fast == oracle
        assert kernels.kernel_stats()["ops"]["star"]["vectorized"] > 0

    def test_bool_star_matches_oracle(self, python_kernel):
        rng = random.Random(72)
        for _ in range(30):
            n = rng.randint(numpy_backend.STAR_MIN_STATES, 30)
            matrix = SparseMatrix(n, n, BOOL)
            for i, j, _ in random_int_entries(rng, n, n, 0.2, 1, 1):
                matrix.add_entry(i, j, True)
            with python_kernel():
                oracle = matrix.star()
            fast = matrix.star()
            assert fast == oracle

    def test_infinite_weight_takes_fallback_and_matches(self, python_kernel):
        rng = random.Random(73)
        matrix = _ext_nat_matrix(rng, 12, density=0.3, inf_fraction=0.2)
        matrix.add_entry(0, 1, INF)  # at least one ∞ guaranteed
        before = kernels.fallback_count("star", "infinite_weight")
        fast = matrix.star()
        # The oracle's recursive block decomposition may re-enter try_star
        # on ∞-carrying sub-blocks, so the counter moves by at least one.
        assert kernels.fallback_count("star", "infinite_weight") > before
        with python_kernel():
            assert fast == matrix.star()

    def test_wide_entry_takes_fallback_and_matches(self, python_kernel):
        matrix = _chain_matrix(6)
        matrix.add_entry(2, 3, ExtNat(numpy_backend.MAX_EXACT_INT))
        before = kernels.fallback_count("star", "wide_weight")
        fast = matrix.star()
        assert kernels.fallback_count("star", "wide_weight") > before
        with python_kernel():
            assert fast == matrix.star()

    def test_overflow_boundary_vectorizes_below_and_declines_above(self, python_kernel):
        # 2^52 < 2^53: exactly representable, must vectorize and be exact.
        below = _chain_matrix(52)
        fast = below.star()
        assert kernels.fallback_count("star", "overflow") == 0
        assert kernels.kernel_stats()["ops"]["star"]["vectorized"] == 1
        assert fast.get(0, 52) == ExtNat(2 ** 52)
        # 2^54 ≥ 2^53: the closure check must refuse the float64 result.
        above = _chain_matrix(54)
        fast = above.star()
        assert kernels.fallback_count("star", "overflow") == 1
        assert fast.get(0, 54) == ExtNat(2 ** 54)  # oracle bytes anyway
        with python_kernel():
            assert fast == above.star()

    def test_small_matrices_decline_below_threshold(self):
        tiny = SparseMatrix(2, 2, EXT_NAT)
        tiny.add_entry(0, 1, ONE)
        starred = tiny.star()
        assert kernels.fallback_count("star", "below_threshold") == 1
        assert starred.get(0, 1) == ONE


class TestMulReachableParity:
    def test_large_mul_matches_oracle(self, python_kernel):
        rng = random.Random(74)
        n = 40  # 1600 cells ≥ MUL_MIN_CELLS
        a = _ext_nat_matrix(rng, n, density=0.15, hi=4)
        b = _ext_nat_matrix(rng, n, density=0.15, hi=4)
        with python_kernel():
            oracle = a.mul(b)
        fast = a.mul(b)
        assert fast == oracle
        assert kernels.kernel_stats()["ops"]["mul"]["vectorized"] == 1

    def test_reachable_matches_oracle_on_large_graphs(self, python_kernel):
        rng = random.Random(75)
        for _ in range(10):
            n = rng.randint(numpy_backend.REACHABLE_MIN_STATES, 140)
            adjacency = SparseMatrix(n, n, BOOL)
            for i, j, _ in random_int_entries(rng, n, n, 0.02, 1, 1):
                adjacency.add_entry(i, j, True)
            seeds = {s for s in range(n) if rng.random() < 0.05}
            with python_kernel():
                oracle = reachable(adjacency, set(seeds))
            fast = reachable(adjacency, set(seeds))
            assert fast == oracle
        assert kernels.kernel_stats()["ops"]["reachable"]["vectorized"] > 0


class TestNfaSuccessorsParity:
    def _random_nfa(self, rng, n):
        from repro.automata.nfa import NFA

        nfa = NFA(num_states=n, alphabet=frozenset({"a", "b"}))
        for _ in range(3 * n):
            nfa.add_transition(
                rng.randrange(n), rng.choice(("a", "b")), rng.randrange(n)
            )
        return nfa

    def test_subset_steps_match_oracle(self, python_kernel):
        rng = random.Random(76)
        n = numpy_backend.NFA_MIN_STATES + 16
        nfa = self._random_nfa(rng, n)
        for _ in range(20):
            states = frozenset(
                s for s in range(n) if rng.random() < 0.2
            )
            letter = rng.choice(("a", "b"))
            with python_kernel():
                oracle = nfa.successors(states, letter)
            fast = nfa.successors(states, letter)
            assert fast == oracle
        assert kernels.kernel_stats()["ops"]["nfa_successors"]["vectorized"] > 0

    def test_add_transition_invalidates_bitset_cache(self, python_kernel):
        rng = random.Random(77)
        n = numpy_backend.NFA_MIN_STATES + 8
        nfa = self._random_nfa(rng, n)
        states = frozenset(range(0, n, 3))
        nfa.successors(states, "a")  # populate the bitset cache
        nfa.add_transition(0, "a", n - 1)
        after = nfa.successors(states, "a")
        with python_kernel():
            nfa_fresh = self._random_nfa(random.Random(77), n)
            nfa_fresh.add_transition(0, "a", n - 1)
            oracle = nfa_fresh.successors(states, "a")
        assert after == oracle
        assert n - 1 in after  # the new edge is visible through the cache


# One batch of the gen.py property workload, shared by the engine tests.
PIPELINE_SPECS = (
    dict(seed=9001, count=40, letters=("a", "b"), depth=4,
         equal_fraction=0.15, star_bias=0.3),
    dict(seed=9002, count=40, letters=("a", "b", "c"), depth=3,
         equal_fraction=0.1, star_bias=0.25),
    dict(seed=9003, count=20, letters=("a",), depth=5,
         equal_fraction=0.1, star_bias=0.35),
)


@pytest.fixture(scope="module")
def pipeline_corpus():
    pairs = []
    for spec in PIPELINE_SPECS:
        pairs.extend(random_pairs(**spec))
    return pairs


class TestEnginePipelineParity:
    def test_verdicts_and_counterexamples_bytes_identical(
        self, pipeline_corpus, python_kernel
    ):
        with python_kernel(), NKAEngine("kernel-py", workers=1) as py_engine:
            py_verdicts = py_engine.equal_many_detailed(pipeline_corpus)
        kernels.reset_kernel_stats()
        with NKAEngine("kernel-np") as np_engine:
            np_verdicts = np_engine.equal_many_detailed(pipeline_corpus)
            stats = np_engine.stats()["kernel"]
        for index, (oracle, fast) in enumerate(zip(py_verdicts, np_verdicts)):
            assert pickle.dumps(oracle) == pickle.dumps(fast), (
                f"pair #{index}: {oracle} != {fast}"
            )
            assert oracle.counterexample == fast.counterexample
        # The run must actually have exercised the vectorized paths.
        assert stats["ops"]["star"]["vectorized"] > 0

    def test_compiled_automata_semantically_equal(
        self, pipeline_corpus, python_kernel
    ):
        from repro.automata.wfa import expr_to_wfa

        exprs = {expr for pair in pipeline_corpus[:30] for expr in pair}
        for expr in exprs:
            with python_kernel():
                oracle = expr_to_wfa(expr)
            fast = expr_to_wfa(expr)
            assert fast.num_states == oracle.num_states
            assert fast.initial == oracle.initial
            assert fast.final == oracle.final
            assert fast.matrices == oracle.matrices

    def test_infinity_heavy_expressions_agree(self, python_kernel):
        # {{1*}}[ε] = ∞ and friends: the ∞-support machinery must agree
        # across backends even though the vectorized star *produces* ∞
        # weights (cyclic ε-components) rather than declining on them.
        from repro.core.expr import One

        a = Symbol("a")
        pairs = [
            (Star(One()), Star(Star(One()))),
            (Star(Sum(One(), a)), Star(a)),
            (Product(Star(One()), a), Product(a, Star(One()))),
        ]
        with python_kernel(), NKAEngine("inf-py", workers=1) as py_engine:
            oracle = py_engine.equal_many_detailed(pairs)
        with NKAEngine("inf-np") as np_engine:
            fast = np_engine.equal_many_detailed(pairs)
        assert [pickle.dumps(v) for v in oracle] == [pickle.dumps(v) for v in fast]


class TestThreadSafety:
    """Regression: the kernel counters are process-global state read by
    ``engine.stats()`` from serving threads while *other* threads compile.
    An unlocked snapshot fails the counter hammer with ``RuntimeError:
    dictionary changed size during iteration``."""

    def test_kernel_stats_snapshot_survives_concurrent_fallbacks(self):
        import threading

        kernels.reset_kernel_stats()
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    kernels.kernel_stats()
                    kernels.fallback_count("star")
                except RuntimeError as error:
                    errors.append(error)
                    return

        def writer():
            try:
                # Fresh reason strings grow the per-op fallbacks dict on
                # every record — exactly what tears an unlocked snapshot.
                for index in range(4000):
                    kernels.record_fallback("star", f"hammer-reason-{index}")
                    kernels.record_vectorized("mul")
            finally:
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        kernels.reset_kernel_stats()
        assert not errors, f"kernel_stats raced a recording thread: {errors[0]}"

    def test_engine_stats_concurrent_with_decisions(self):
        """The user-visible face of the same race: ``stats()`` polled from
        one thread while another runs ``equal_detailed``."""
        import threading

        engine = NKAEngine("stats-hammer")
        pairs = random_pairs(seed=77, count=30, depth=3, equal_fraction=0.2)
        errors = []
        done = threading.Event()

        def poll_stats():
            while not done.is_set():
                try:
                    engine.stats()
                except Exception as error:
                    errors.append(error)
                    return

        def decide():
            try:
                for left, right in pairs:
                    engine.equal_detailed(left, right)
            finally:
                done.set()

        poller = threading.Thread(target=poll_stats)
        decider = threading.Thread(target=decide)
        poller.start()
        decider.start()
        decider.join(60)
        poller.join(60)
        assert not errors, f"stats() raced equal_detailed: {errors[0]}"
