"""Numpy kernels for ``BOOL`` and the finite part of ``EXT_NAT``.

Exactness contract
------------------

Every function here either returns exactly what the pure-python oracle in
:mod:`repro.linalg.sparse` would, or declines (returns ``None``) and
records why.  The arithmetic runs in float64, which represents every
integer below ``2**53`` exactly, and all the quantities involved are
**non-negative path counts**: each intermediate of a matrix product or
closure is a partial sum of the final entry it contributes to, so it is
bounded by the final matrix maximum.  One ``max() < 2**53`` check on the
result therefore certifies that *no* intermediate ever rounded.  Inputs
carrying ``∞`` or integers at/above ``2**53`` are declined up front
(``infinite_weight`` / ``wide_weight``), keeping the oracle the sole
authority on unbounded arithmetic.

The ε-closure (``star``) is not the textbook 2×2 block recursion — on
Thompson-sized matrices (tens to hundreds of states, ~2 nnz/row) the
recursion's per-level python overhead swamps the BLAS gain.  Instead it
exploits the graph structure directly:

1. Boolean reflexive-transitive closure ``R`` by log-many matrix
   squarings; a state is *cyclic* iff the strict closure ``B·R`` has a
   true diagonal there (it lies on a cycle).
2. Over ``N̄``, a cyclic state has **infinitely many** paths to everything
   it reaches (pump the cycle), so its closure row is ``∞`` exactly on its
   reach set.  An acyclic state's entry is ``∞`` iff some path to the
   target passes through a cyclic state — one boolean matrix product —
   and otherwise the *finite* count of paths avoiding cyclic states.
3. Those finite counts live in the cyclic-state-free submatrix, which is
   nilpotent: after a topological permutation it is strictly upper
   triangular and its closure ``(I − W)⁻¹ = Σ Wᵏ`` falls to blocked
   back-substitution — a handful of BLAS products instead of ``n`` python
   row operations.

Everything else (``mul``, reachability and NFA-step bitsets) is a
straightforward vectorization of the same oracle semantics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

try:  # the container bakes numpy in; gate anyway so the oracle never breaks
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

from repro.core.semiring import ExtNat, INF
from repro.util.errors import DecisionError

__all__ = [
    "available",
    "star",
    "mul",
    "reachable",
    "MAX_EXACT_INT",
    "STAR_MIN_STATES",
    "MUL_MIN_CELLS",
    "REACHABLE_MIN_STATES",
]

# float64 represents every integer strictly below 2**53 exactly.
MAX_EXACT_INT = 1 << 53
_MAX_EXACT_FLOAT = float(MAX_EXACT_INT)

# Routing thresholds (measured on the engine benchmark workload, see
# kernels.compile_cost_estimate): below these sizes the dict-of-rows
# oracle wins on constant factors and the dispatcher declines with reason
# "below_threshold" — a routing decision, not an exactness fallback.
STAR_MIN_STATES = 4
MUL_MIN_CELLS = 1024
REACHABLE_MIN_STATES = 64
NFA_MIN_STATES = 64

# Back-substitution block width for the nilpotent closure.
_STAR_BLOCK = 48

# Small non-negative integers dominate closure entries (path counts start
# at 1); sharing ExtNat instances for them skips most object churn.
# ExtNat is immutable, so sharing is safe — and pickles identically.
_EXTNAT_SMALL: List[ExtNat] = []


def available() -> bool:
    return _np is not None


def _record(op: str, reason: Optional[str]) -> None:
    from repro.linalg import kernels

    if reason is None:
        kernels.record_vectorized(op)
    else:
        kernels.record_fallback(op, reason)


def _extnat(value: int) -> ExtNat:
    if not _EXTNAT_SMALL:
        _EXTNAT_SMALL.extend(ExtNat(v) for v in range(1024))
    if value < 1024:
        return _EXTNAT_SMALL[value]
    return ExtNat(value)


def _semiring_kind(semiring) -> Optional[str]:
    name = getattr(semiring, "name", None)
    if name == "ExtNat":
        return "ext_nat"
    if name == "bool":
        return "bool"
    return None


def _dense_ext_nat(matrix) -> Optional[Any]:
    """Float64 dense copy of an all-finite ``EXT_NAT`` sparse matrix.

    Declines (``None``) on ``∞`` entries or integers ≥ 2**53 — the oracle
    must own those.
    """
    dense = _np.zeros((matrix.nrows, matrix.ncols))
    for i, row in matrix.rows.items():
        for j, value in row.items():
            if value.is_infinite:
                return None
            finite = value.finite_value
            if finite >= MAX_EXACT_INT:
                return None
            dense[i, j] = float(finite)
    return dense


def _dense_bool(matrix) -> Any:
    dense = _np.zeros((matrix.nrows, matrix.ncols))
    for i, row in matrix.rows.items():
        for j in row:
            dense[i, j] = 1.0
    return dense


def _sparse_from_bool(dense, semiring, sparse_cls):
    result = sparse_cls(dense.shape[0], dense.shape[1], semiring)
    rows = result.rows
    for i in range(dense.shape[0]):
        cols = _np.flatnonzero(dense[i])
        if cols.size:
            rows[i] = dict.fromkeys(cols.tolist(), True)
    return result


def _sparse_from_ext_nat(finite, inf_mask, semiring, sparse_cls):
    result = sparse_cls(finite.shape[0], finite.shape[1], semiring)
    rows = result.rows
    nonzero = inf_mask | (finite > 0)
    row_idx, col_idx = _np.nonzero(nonzero)
    values = finite[row_idx, col_idx].astype(_np.int64).tolist()
    infinite = inf_mask[row_idx, col_idx].tolist()
    small = _extnat(0) and _EXTNAT_SMALL  # force-populate the cache
    current_i = -1
    current_row: dict = {}
    for i, j, is_inf, value in zip(
        row_idx.tolist(), col_idx.tolist(), infinite, values
    ):
        if i != current_i:
            current_row = rows[i] = {}
            current_i = i
        current_row[j] = INF if is_inf else (
            small[value] if value < 1024 else ExtNat(value)
        )
    return result


def _bit_indices(mask: int) -> List[int]:
    """Set-bit positions of a python-int bitset, ascending."""
    if mask >> 64:
        # Wide masks: unpack in C via numpy (little-endian bit order keeps
        # positions ascending).
        data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        bits = _np.unpackbits(
            _np.frombuffer(data, dtype=_np.uint8), bitorder="little"
        )
        return _np.flatnonzero(bits).tolist()
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- boolean closure helpers ---------------------------------------------------


def _reflexive_closure(adjacency) -> Any:
    """Reflexive-transitive closure of a 0/1 float matrix (squaring)."""
    n = adjacency.shape[0]
    closure = (adjacency + _np.eye(n)) > 0
    reached = 1  # path length coverage doubles per squaring
    while reached < n:
        closure = (closure.astype(_np.float64) @ closure.astype(_np.float64)) > 0
        reached *= 2
    return closure


def _nilpotent_closure(strict_upper) -> Any:
    """``Σ Wᵏ`` for a strictly upper-triangular float matrix, blockwise.

    Blocks are processed back-to-front along the diagonal; a block's local
    closure uses the doubling identity ``N_{2m} = N_m + Wᵐ·N_m``, and its
    off-diagonal rows are one product against the already-closed suffix.
    """
    m = strict_upper.shape[0]
    closure = _np.eye(m)
    for start in range(((m - 1) // _STAR_BLOCK) * _STAR_BLOCK, -1, -_STAR_BLOCK):
        stop = min(start + _STAR_BLOCK, m)
        block = strict_upper[start:stop, start:stop]
        local = _np.eye(stop - start)
        power = block
        while power.any():
            local = local + power @ local
            power = power @ power
        closure[start:stop, start:stop] = local
        if stop < m:
            closure[start:stop, stop:] = local @ (
                strict_upper[start:stop, stop:] @ closure[stop:, stop:]
            )
    return closure


def _scc_condensation(n: int, rows: Dict[int, Dict[int, Any]]) -> List[List[int]]:
    """SCCs of the support digraph of ``rows``, in **topological order**.

    Iterative Tarjan (no recursion limit risk at Thompson sizes).  Tarjan
    emits components in reverse topological order of the condensation DAG,
    so the returned list is the reversal: every support edge crosses from
    an earlier component to a later one (or stays inside its component).
    """
    successors = {i: list(row) for i, row in rows.items()}
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, progress = work[-1]
            if progress == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            descended = False
            succ = successors.get(node, ())
            for position in range(progress, len(succ)):
                target = succ[position]
                if index[target] == -1:
                    work[-1] = (node, position + 1)
                    work.append((target, 0))
                    descended = True
                    break
                if on_stack[target] and index[target] < low[node]:
                    low[node] = index[target]
            if descended:
                continue
            if low[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    components.reverse()
    return components


# -- kernels -------------------------------------------------------------------


def star(matrix) -> Optional[Any]:
    """Vectorized ``matrix.star()``; ``None`` = caller runs the oracle.

    The ``EXT_NAT`` path works on the SCC condensation: Tarjan
    (:func:`_scc_condensation`) classifies states as cyclic or acyclic and
    yields a topological order; python-int bitset DP over the
    condensation DAG computes each state's reach set and ∞-mask in
    ``O(states + edges)`` word operations; the only dense float work is the
    nilpotent closure of the acyclic submatrix — the actual path counting.
    """
    kind = _semiring_kind(matrix.semiring)
    if kind is None:
        _record("star", "unsupported_semiring")
        return None
    n = matrix.nrows
    if n != matrix.ncols:
        raise DecisionError(
            f"matrix star requires a square matrix, got ({n}, {matrix.ncols})"
        )
    if n < STAR_MIN_STATES:
        _record("star", "below_threshold")
        return None
    from repro.linalg.sparse import SparseMatrix

    if kind == "bool":
        closure = _reflexive_closure(_dense_bool(matrix))
        _record("star", None)
        return _sparse_from_bool(closure, matrix.semiring, SparseMatrix)

    # One scan: decline on ∞ / wide entries, drop explicit zeros from the
    # support (a stored zero is not an edge).
    support_rows: dict = {}
    for i, row in matrix.rows.items():
        pruned = {}
        for j, value in row.items():
            if value.is_infinite:
                _record("star", "infinite_weight")
                return None
            finite_value = value.finite_value
            if finite_value >= MAX_EXACT_INT:
                _record("star", "wide_weight")
                return None
            if finite_value:
                pruned[j] = finite_value
        if pruned:
            support_rows[i] = pruned

    components = _scc_condensation(n, support_rows)

    comp_of = [0] * n
    cyclic_comp = [False] * len(components)
    cyclic_nodes: List[int] = []
    acyclic_order: List[int] = []  # topological, inherited from condensation
    for ci, comp in enumerate(components):
        node = comp[0]
        if len(comp) > 1 or node in support_rows.get(node, ()):
            cyclic_comp[ci] = True
            cyclic_nodes.extend(comp)
        else:
            acyclic_order.append(node)
        for member in comp:
            comp_of[member] = ci

    # Reverse-topological bitset DP over the condensation DAG:
    # ``reach_comp`` = states reachable from the component (incl. itself),
    # ``inf_comp`` = targets with ∞ many paths.  A cyclic component pumps
    # its cycle, so everything it reaches is ∞; an acyclic state inherits
    # the union of its successors' ∞-sets (any ∞ route leaves it first).
    inf_comp = [0] * len(components)
    if cyclic_nodes:
        reach_comp = [0] * len(components)
        for ci in range(len(components) - 1, -1, -1):
            reach = 0
            infinite = 0
            for node in components[ci]:
                reach |= 1 << node
                for succ in support_rows.get(node, ()):
                    cj = comp_of[succ]
                    if cj != ci:
                        reach |= reach_comp[cj]
                        infinite |= inf_comp[cj]
            if cyclic_comp[ci]:
                infinite = reach
            reach_comp[ci] = reach
            inf_comp[ci] = infinite

    # Finite path counts: nilpotent closure of the acyclic submatrix,
    # already strictly upper triangular under the topological order.
    m = len(acyclic_order)
    closed = None
    if m:
        position = {node: p for p, node in enumerate(acyclic_order)}
        sub = _np.zeros((m, m))
        for node, p in position.items():
            for j, weight in support_rows.get(node, {}).items():
                q = position.get(j)
                if q is not None:
                    sub[p, q] = float(weight)
        closed = _nilpotent_closure(sub)
        if closed.max() >= _MAX_EXACT_FLOAT:
            _record("star", "overflow")
            return None

    result = SparseMatrix(n, n, matrix.semiring)
    out_rows = result.rows
    for node in cyclic_nodes:
        out_rows[node] = dict.fromkeys(
            _bit_indices(reach_comp[comp_of[node]]), INF
        )
    if m:
        if not _EXTNAT_SMALL:
            _extnat(0)
        small = _EXTNAT_SMALL
        row_idx, col_idx = _np.nonzero(closed)
        values = closed[row_idx, col_idx].astype(_np.int64).tolist()
        current_p = -1
        inf_bits = 0
        row_out: dict = {}
        for p, q, value in zip(row_idx.tolist(), col_idx.tolist(), values):
            if p != current_p:
                current_p = p
                node = acyclic_order[p]
                inf_bits = inf_comp[comp_of[node]]
                row_out = out_rows[node] = (
                    dict.fromkeys(_bit_indices(inf_bits), INF)
                    if inf_bits
                    else {}
                )
            target = acyclic_order[q]
            if not (inf_bits >> target) & 1:
                row_out[target] = (
                    small[value] if value < 1024 else ExtNat(value)
                )
    _record("star", None)
    return result


def mul(a, b) -> Optional[Any]:
    """Vectorized ``a.mul(b)``; ``None`` = caller runs the oracle."""
    kind = _semiring_kind(a.semiring)
    if kind is None:
        _record("mul", "unsupported_semiring")
        return None
    if a.nrows * b.ncols < MUL_MIN_CELLS:
        _record("mul", "below_threshold")
        return None
    from repro.linalg.sparse import SparseMatrix

    if kind == "bool":
        product = (_dense_bool(a) @ _dense_bool(b)) > 0
        _record("mul", None)
        return _sparse_from_bool(product, a.semiring, SparseMatrix)

    left = _dense_ext_nat(a)
    right = _dense_ext_nat(b)
    if left is None or right is None:
        _record("mul", "infinite_weight")
        return None
    # k·maxA·maxB bounds every inner-product partial sum; staying below
    # 2**53 certifies the float64 product is exact.
    bound = float(a.ncols) * float(left.max(initial=0.0)) * float(
        right.max(initial=0.0)
    )
    if bound >= _MAX_EXACT_FLOAT:
        _record("mul", "overflow")
        return None
    product = left @ right
    _record("mul", None)
    return _sparse_from_ext_nat(
        product,
        _np.zeros(product.shape, dtype=bool),
        a.semiring,
        SparseMatrix,
    )


def nfa_successors(nfa, letter: str, states: Iterable[int]) -> Optional[Any]:
    """Bitset step of an NFA state set; ``None`` = caller runs the set walk.

    Per-letter row bitmasks are cached on the NFA (invalidated by
    ``add_transition`` alongside the letter matrices); stepping a subset is
    then one C-level bignum ``or`` per member instead of per-target set
    inserts.  The result is the identical successor set.
    """
    if nfa.num_states < NFA_MIN_STATES:
        _record("nfa_successors", "below_threshold")
        return None
    caches = getattr(nfa, "_successor_masks", None)
    if caches is None:
        caches = {}
        nfa._successor_masks = caches
    masks = caches.get(letter)
    if masks is None:
        masks = {}
        for i, row in nfa.letter_matrix(letter).rows.items():
            mask = 0
            for j in row:
                mask |= 1 << j
            masks[i] = mask
        caches[letter] = masks
    union = 0
    for state in states:
        union |= masks.get(state, 0)
    _record("nfa_successors", None)
    return frozenset(_bit_indices(union))


def reachable(adjacency, seeds: Iterable[int]) -> Optional[Set[int]]:
    """Bitset BFS over the sparse rows; ``None`` = caller runs the oracle.

    Python bignum bitsets union a whole successor row in one C-level
    ``or``, replacing the per-element set inserts of the oracle worklist.
    The result is the identical reach set.
    """
    n = adjacency.nrows
    if n < REACHABLE_MIN_STATES:
        _record("reachable", "below_threshold")
        return None
    rows = adjacency.rows
    row_masks: dict = {}
    seen_mask = 0
    frontier: List[int] = []
    for seed in seeds:
        bit = 1 << seed
        if not seen_mask & bit:
            seen_mask |= bit
            frontier.append(seed)
    while frontier:
        state = frontier.pop()
        row = rows.get(state)
        if not row:
            continue
        mask = row_masks.get(state)
        if mask is None:
            mask = 0
            for j in row:
                mask |= 1 << j
            row_masks[state] = mask
        fresh = mask & ~seen_mask
        seen_mask |= mask
        while fresh:
            low = fresh & -fresh
            frontier.append(low.bit_length() - 1)
            fresh ^= low
    result: Set[int] = set()
    index = 0
    while seen_mask:
        if seen_mask & 1:
            result.add(index)
        seen_mask >>= 1
        index += 1
    _record("reachable", None)
    return result
