"""Weighted finite automata over the extended naturals ``N̄``.

A rational power series over ``N̄`` (paper Appendix A) is exactly the
behaviour of a finite automaton whose transition, initial and final weights
live in ``N̄``.  This module provides:

* :class:`WFA` — the automaton representation (vector/matrix form), with
  transition matrices stored as :class:`repro.linalg.SparseMatrix` over the
  ``EXT_NAT`` semiring — Thompson-style automata carry ~2 non-zeros per
  row, so every pipeline stage walks supports instead of n² cells;
* :func:`matrix_star` / :func:`matrix_mul` / :func:`matrix_add` — thin
  dense-list wrappers over :mod:`repro.linalg` kept for callers/tests that
  speak list-of-lists; the star uses the sparse kernel's block
  decomposition (valid because ``N̄`` is a complete star semiring) with its
  loop-free short-circuit;
* :func:`expr_to_wfa` — compilation of an NKA expression to a WFA by a
  Thompson-style construction followed by exact ε-elimination (the ε-closure
  is ``E*`` for the ε-weight matrix ``E``, so ε-cycles — which arise from
  ``e*`` when ``{{e}}[ε] ≥ 1`` — correctly produce ``∞`` weights, e.g.
  ``{{1*}}[ε] = ∞``).  The construction is *compositional*: each subterm
  compiles to a relocatable :class:`_Fragment` (states numbered locally,
  start = 0, end = 1) memoized per hash-consed expression node, so shared
  subautomata are built once per process and spliced by offsetting;
* :func:`infinity_support_nfa` — the Boolean NFA recognising the words whose
  coefficient is ``∞`` (used by the equality check);
* :func:`drop_infinite_weights` / :func:`restrict_to_dfa` — the surgery
  needed to reduce ``N̄``-equality to exact rational equivalence.

The weight of a word ``w = a1…ak`` is ``α · M(a1) · … · M(ak) · η`` where
``α`` is the initial row vector, ``M(a)`` the transition matrix of letter
``a`` and ``η`` the final column vector; all arithmetic is in ``N̄``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.core.expr import (
    Expr,
    One,
    Product,
    Star,
    Sum,
    Symbol,
    Zero,
    alphabet as expr_alphabet,
)
from repro.core.semiring import ExtNat, INF, ONE, ZERO
from repro.linalg import BOOL, EXT_NAT, SparseMatrix, reachable, vec_mat
from repro.automata.nfa import DFA, NFA, determinize
from repro.util.cache import LRUCache

__all__ = [
    "WFA",
    "matrix_star",
    "matrix_mul",
    "matrix_add",
    "expr_to_wfa",
    "thompson_state_estimate",
    "infinity_support_nfa",
    "drop_infinite_weights",
    "restrict_to_dfa",
]

Matrix = List[List[ExtNat]]


def matrix_add(a: Matrix, b: Matrix) -> Matrix:
    """Dense-list façade for sparse addition over ``N̄``."""
    left = SparseMatrix.from_dense(a, EXT_NAT)
    return left.add(SparseMatrix.from_dense(b, EXT_NAT)).to_dense()


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense-list façade for sparse multiplication over ``N̄``."""
    left = SparseMatrix.from_dense(a, EXT_NAT)
    return left.mul(SparseMatrix.from_dense(b, EXT_NAT)).to_dense()


def matrix_star(m: Matrix) -> Matrix:
    """``m* = Σ_k m^k`` for a square dense-list matrix over ``N̄``.

    Thin wrapper over :meth:`repro.linalg.SparseMatrix.star`, which keeps
    the classical recursive 2×2 block decomposition (valid in any complete
    star semiring) but prunes all-zero blocks and short-circuits loop-free
    matrices to a finite nilpotent sum.
    """
    return SparseMatrix.from_dense(m, EXT_NAT).star().to_dense()


@dataclass
class WFA:
    """A weighted finite automaton over ``N̄`` in vector/matrix form.

    ``matrices`` maps each letter to a sparse ``num_states × num_states``
    transition matrix (:class:`repro.linalg.SparseMatrix` over ``EXT_NAT``);
    ``initial``/``final`` stay dense lists — they are length-n and almost
    always dense after trimming.
    """

    num_states: int
    alphabet: FrozenSet[str]
    initial: List[ExtNat]
    final: List[ExtNat]
    matrices: Dict[str, SparseMatrix] = field(default_factory=dict)
    _support_dfa: "DFA" = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # A frozenset's iteration order depends on its construction
        # history, so the default pickle of two equal automata — or of one
        # automaton before and after a store round trip — need not be
        # byte-identical.  Pickled-byte identity of WFAs is a conformance
        # surface (the compile store, warm state, the differential
        # suites), so set-valued fields serialize in sorted order.
        state = dict(self.__dict__)
        state["alphabet"] = sorted(state["alphabet"])
        return state

    def __setstate__(self, state):
        state["alphabet"] = frozenset(state["alphabet"])
        self.__dict__.update(state)

    def support_dfa(self) -> DFA:
        """The determinized infinity-support automaton, computed once.

        The decision procedure's WFA cache keeps compiled automata alive
        across queries, so memoizing the subset construction here lets every
        later equivalence query against this automaton skip it entirely.
        """
        if self._support_dfa is None:
            self._support_dfa = determinize(infinity_support_nfa(self))
        return self._support_dfa

    def matrix(self, letter: str) -> SparseMatrix:
        if letter not in self.matrices:
            self.matrices[letter] = SparseMatrix(
                self.num_states, self.num_states, EXT_NAT
            )
        return self.matrices[letter]

    def weight(self, word: Sequence[str]) -> ExtNat:
        """The series coefficient of ``word`` (exact ``N̄`` arithmetic).

        Computed by sparse left-vector propagation: the running vector only
        carries states with non-zero weight, so a k-letter word costs
        ``O(k · nnz(reached rows))`` rather than ``k · n²``.
        """
        row = {
            i: value for i, value in enumerate(self.initial) if not value.is_zero
        }
        for letter in word:
            matrix = self.matrices.get(letter)
            if matrix is None or not row:
                return ZERO
            row = vec_mat(row, matrix)
        total = ZERO
        for i, value in row.items():
            total = total + value * self.final[i]
        return total

    def _support_adjacency(self) -> SparseMatrix:
        """Boolean union of the letter supports (edge iff some weight ≠ 0)."""
        adjacency = SparseMatrix(self.num_states, self.num_states, BOOL)
        for matrix in self.matrices.values():
            for i, row in matrix.rows.items():
                target = adjacency.rows.setdefault(i, {})
                for j in row:
                    target[j] = True
        return adjacency

    def trim(self) -> "WFA":
        """Remove states that are unreachable or cannot reach a final weight.

        Both directions are Boolean-semiring reachability over the support
        adjacency — the ``BOOL`` instance of the shared sparse kernel.
        """
        adjacency = self._support_adjacency()
        forward = reachable(
            adjacency, (i for i, w in enumerate(self.initial) if not w.is_zero)
        )
        backward = reachable(
            adjacency.transpose(),
            (i for i, w in enumerate(self.final) if not w.is_zero),
        )
        keep = sorted(forward & backward)
        if len(keep) == self.num_states:
            return self
        index = {old: new for new, old in enumerate(keep)}
        kept = set(keep)
        trimmed = WFA(
            num_states=len(keep),
            alphabet=self.alphabet,
            initial=[self.initial[old] for old in keep],
            final=[self.final[old] for old in keep],
        )
        for letter, matrix in self.matrices.items():
            new_matrix = SparseMatrix(len(keep), len(keep), EXT_NAT)
            for old_i, row in matrix.rows.items():
                if old_i not in kept:
                    continue
                picked = {
                    index[old_j]: value for old_j, value in row.items() if old_j in kept
                }
                if picked:
                    new_matrix.rows[index[old_i]] = picked
            trimmed.matrices[letter] = new_matrix
        return trimmed


# -- Thompson construction -----------------------------------------------------


@dataclass(frozen=True)
class _Fragment:
    """A relocatable ε-automaton for one subexpression.

    States are ``0..count-1`` with the convention start = 0, end = 1, so a
    fragment can be spliced into a parent by shifting every state by an
    offset.  ``epsilon`` is a *multiset* of edges (duplicates carry weight —
    multiplicities matter over ``N̄``).  Fragments are immutable and memoized
    per hash-consed expression node, so repeated compilations — and repeated
    *subterms* within one compilation — reuse the same tuples.
    """

    count: int
    epsilon: Tuple[Tuple[int, int], ...]
    letters: Tuple[Tuple[int, str, int], ...]


# Deliberate trade-off: composing fragments copies every descendant edge at
# each level, i.e. Θ(Σ subtree sizes) versus the linear appends of a mutable
# builder.  At any automaton size this pipeline can feasibly ε-eliminate,
# the copying is sub-millisecond noise, and in exchange fragments are
# immutable, memoizable, and shared across compilations.


_FRAGMENT_CACHE = LRUCache("wfa.fragments", maxsize=1 << 14)


def _fragment(expr: Expr) -> _Fragment:
    """Thompson fragment of ``expr`` (memoized on the interned node)."""
    if isinstance(expr, Zero):
        return _Fragment(2, (), ())  # no path from start to end
    if isinstance(expr, One):
        return _Fragment(2, ((0, 1),), ())
    if isinstance(expr, Symbol):
        return _Fragment(2, (), ((0, expr.name, 1),))
    cached = _FRAGMENT_CACHE.get(expr)
    if cached is not None:
        return cached
    if isinstance(expr, Sum):
        left, right = _fragment(expr.left), _fragment(expr.right)
        left_at, right_at = 2, 2 + left.count
        epsilon = (
            (0, left_at), (left_at + 1, 1),
            (0, right_at), (right_at + 1, 1),
        ) + _shift_eps(left, left_at) + _shift_eps(right, right_at)
        letters = _shift_letters(left, left_at) + _shift_letters(right, right_at)
        result = _Fragment(right_at + right.count, epsilon, letters)
    elif isinstance(expr, Product):
        left, right = _fragment(expr.left), _fragment(expr.right)
        left_at, right_at = 2, 2 + left.count
        epsilon = (
            (0, left_at), (left_at + 1, right_at), (right_at + 1, 1),
        ) + _shift_eps(left, left_at) + _shift_eps(right, right_at)
        letters = _shift_letters(left, left_at) + _shift_letters(right, right_at)
        result = _Fragment(right_at + right.count, epsilon, letters)
    elif isinstance(expr, Star):
        body = _fragment(expr.body)
        body_at = 2
        epsilon = (
            (0, 1), (0, body_at), (body_at + 1, body_at), (body_at + 1, 1),
        ) + _shift_eps(body, body_at)
        result = _Fragment(body_at + body.count, epsilon, _shift_letters(body, body_at))
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown expression node {expr!r}")
    _FRAGMENT_CACHE.put(expr, result)
    return result


def thompson_state_estimate(expr: Expr) -> int:
    """Pre-ε-elimination state count of the Thompson fragment of ``expr``.

    A cheap, monotone proxy for compilation and equivalence cost, used by
    the engine's query planner to order batch work cheapest-first.  It rides
    the fragment memo, so estimating a batch costs at most one fragment
    construction per distinct subterm — work compilation would do anyway.
    """
    return _fragment(expr).count


def _shift_eps(fragment: _Fragment, offset: int) -> Tuple[Tuple[int, int], ...]:
    return tuple((i + offset, j + offset) for i, j in fragment.epsilon)


def _shift_letters(
    fragment: _Fragment, offset: int
) -> Tuple[Tuple[int, str, int], ...]:
    return tuple((i + offset, a, j + offset) for i, a, j in fragment.letters)


def expr_to_wfa(
    expr: Expr, extra_alphabet: FrozenSet[str] = frozenset()
) -> WFA:
    """Compile an NKA expression to an ε-free WFA over ``N̄``.

    The behaviour of the result equals the series ``{{expr}}`` of
    Definition A.4: for every word ``w``, ``result.weight(w) = {{expr}}[w]``.
    ε-elimination computes the exact ε-closure ``C = E*`` (sparse matrix
    star — the ε-matrix of a Thompson fragment has ≤ 4 entries per row, and
    star-free subterms hit the loop-free fast path), then sets ``α' = α·C``
    and ``M'(a) = M(a)·C`` so that
    ``α'·M'(a1)…M'(ak)·η = α·C·M(a1)·C·…·M(ak)·C·η``, the sum over all runs
    interleaved with arbitrarily many ε-steps.

    Subautomata are memoized: the Thompson fragment of every composite
    subterm is cached per interned node (see :class:`_Fragment`), so only
    the ε-elimination — which depends on the whole expression — runs anew.
    Callers wanting whole-result caching should go through
    :func:`repro.core.decision.nka_equal` and friends, which keep compiled
    automata in a bounded LRU.
    """
    sigma = frozenset(expr_alphabet(expr)) | extra_alphabet
    fragment = _fragment(expr)
    n = fragment.count
    start, end = 0, 1

    eps = SparseMatrix(n, n, EXT_NAT)
    for i, j in fragment.epsilon:
        eps.add_entry(i, j, ONE)
    closure_rows = eps.star().rows

    initial = [ZERO] * n
    for j, value in closure_rows.get(start, {}).items():
        initial[j] = value
    wfa = WFA(
        num_states=n,
        alphabet=sigma,
        initial=initial,
        final=[ONE if i == end else ZERO for i in range(n)],
    )
    for source, letter, target in fragment.letters:
        matrix = wfa.matrix(letter)
        closure_row = closure_rows.get(target)
        if closure_row:
            row = matrix.rows.get(source)
            if row is None:
                # Thompson letter edges have distinct sources, so the whole
                # closure row transfers as one dict copy.
                matrix.rows[source] = dict(closure_row)
            else:  # pragma: no cover - defensive (shared source state)
                for j, value in closure_row.items():
                    matrix.add_entry(source, j, value)
    return wfa.trim()


# -- surgery for the equality check ---------------------------------------------


def infinity_support_nfa(wfa: WFA) -> NFA:
    """The NFA accepting ``{w : wfa.weight(w) = ∞}``.

    A word has infinite coefficient iff some accepting run with all factors
    positive contains an ``∞`` factor (initial weight, transition weight or
    final weight) — a word only has finitely many runs, so no other source
    of infinity exists.  States are pairs ``(q, seen_infinity_bit)``.
    """
    n = wfa.num_states

    def pack(state: int, bit: bool) -> int:
        return state * 2 + (1 if bit else 0)

    nfa = NFA(num_states=2 * n, alphabet=wfa.alphabet)
    for state, weight in enumerate(wfa.initial):
        if not weight.is_zero:
            nfa.initial.add(pack(state, weight.is_infinite))
    for state, weight in enumerate(wfa.final):
        if not weight.is_zero:
            if weight.is_infinite:
                nfa.accepting.add(pack(state, False))
            nfa.accepting.add(pack(state, True))
    for letter, matrix in wfa.matrices.items():
        for i, j, weight in matrix.entries():
            for bit in (False, True):
                nfa.add_transition(
                    pack(i, bit), letter, pack(j, bit or weight.is_infinite)
                )
    return nfa


def drop_infinite_weights(wfa: WFA) -> WFA:
    """Zero out every ``∞`` weight, keeping only the finite behaviour.

    On any word *outside* the infinity support the result computes the same
    (finite) coefficient as ``wfa``: a run through an ``∞``-weight on such a
    word would put the word in the infinity support, so no positive run of
    ``wfa`` on it touches an ``∞`` weight.
    """
    cleaned = WFA(
        num_states=wfa.num_states,
        alphabet=wfa.alphabet,
        initial=[ZERO if w.is_infinite else w for w in wfa.initial],
        final=[ZERO if w.is_infinite else w for w in wfa.final],
    )
    for letter, matrix in wfa.matrices.items():
        finite = SparseMatrix(wfa.num_states, wfa.num_states, EXT_NAT)
        for i, row in matrix.rows.items():
            picked = {j: w for j, w in row.items() if not w.is_infinite}
            if picked:
                finite.rows[i] = picked
        cleaned.matrices[letter] = finite
    return cleaned


def restrict_to_dfa(wfa: WFA, dfa: DFA) -> WFA:
    """The Hadamard product of ``wfa`` with the characteristic series of ``dfa``.

    The result's coefficient on ``w`` is ``wfa.weight(w)`` if ``dfa`` accepts
    ``w`` and ``0`` otherwise.  Letters of ``wfa`` missing from the DFA's
    alphabet are treated as rejected by the DFA (weight 0).  Only the
    non-zero transitions of ``wfa`` are enumerated, so the product costs
    ``O(m · nnz)`` rather than ``m · n²`` per letter.
    """
    n, m = wfa.num_states, dfa.num_states

    def pack(state: int, dstate: int) -> int:
        return state * m + dstate

    product = WFA(
        num_states=n * m,
        alphabet=wfa.alphabet,
        initial=[ZERO for _ in range(n * m)],
        final=[ZERO for _ in range(n * m)],
    )
    for state, weight in enumerate(wfa.initial):
        product.initial[pack(state, dfa.initial)] = weight
    for state, weight in enumerate(wfa.final):
        for dstate in dfa.accepting:
            product.final[pack(state, dstate)] = weight
    for letter, matrix in wfa.matrices.items():
        if letter not in dfa.alphabet:
            continue
        target = product.matrix(letter)
        for dstate in range(m):
            dnext = dfa.step(dstate, letter)
            for i, row in matrix.rows.items():
                packed_row = target.rows.setdefault(pack(i, dstate), {})
                for j, weight in row.items():
                    packed_row[pack(j, dnext)] = weight
    return product.trim()
