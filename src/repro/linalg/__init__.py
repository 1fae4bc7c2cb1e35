"""Semiring-generic sparse linear algebra for the NKA decision pipeline.

Why this package exists
-----------------------

The paper's decision procedure (Remark 2.1, Bloom–Ésik) reduces NKA
equality to weighted-automata equivalence over ``N̄ = N ∪ {∞}``.  Every
matrix that pipeline touches is *sparse*: the Thompson construction emits
~2 transitions per state, ε-closures stay band-like, and the Hadamard
products used for infinity-support surgery only multiply supports.  Dense
list-of-lists matrices made ``matrix_star`` Θ(n³) regardless, which capped
the system at roughly 500 automaton states.  This package is the shared
backend every layer compiles down to instead of rolling its own arrays.

The semiring protocol
---------------------

All kernels are generic over :class:`repro.linalg.semiring.SemiringSpec`,
a record of ``(zero, one, add, mul, is_zero, star)``.  Two instances
cover the whole pipeline, which is the point — weighted and Boolean
reasoning are the *same algorithms* at different weights:

===============  =====================================  =========================
instance         coefficients                           used by
===============  =====================================  =========================
``EXT_NAT``      ``N̄`` (:class:`~repro.core.semiring.   ε-elimination & series
                 ExtNat`), complete star semiring       weights (``automata.wfa``)
``BOOL``         ``{0,1}``, star ≡ 1                    reachability / trimming
                                                        (``automata.nfa``, WFA)
===============  =====================================  =========================

Following the weighted-KAT line of work (Gomes–Madeira–Barbosa), nothing
in the kernels assumes ``N̄``: plugging in a new weight domain (tropical
costs, probabilities, …) means writing one ``SemiringSpec``.

Backend choice
--------------

* :class:`repro.linalg.sparse.SparseMatrix` — dict-of-rows (CSR-style)
  storage holding only non-zeros.  ``star`` keeps the classical 2×2 block
  decomposition but short-circuits loop-free (acyclic-support, hence
  nilpotent) matrices to a finite sum and skips all-zero off-diagonal
  blocks.  This is the production representation.
* :mod:`repro.linalg.dense` — the unclever list-of-lists reference the
  sparse kernels are property-tested against, also serving as the dense
  baseline in ``benchmarks/bench_scalability.py``.
* :class:`repro.linalg.rowspace.RowSpace` — exact incremental row spaces
  for Tzeng's algorithm, with a fraction-free integer fast path (the
  vectors start as small naturals) falling back to ``Fraction`` echelon
  only when a non-integral vector appears.

The pure-python kernels above are the *oracle*: total, exact over
unbounded integers and ``∞``.  :mod:`repro.linalg.kernels` adds
**vectorized** fast paths, on whenever numpy imports, for the ``BOOL``
and finite-``EXT_NAT`` hot loops (ε-closure stars, matrix products,
reachability and NFA-step bitsets).  Every vectorized kernel either
returns the oracle's exact bytes or declines — ``∞`` weights, integers
beyond the float64 exact range — back to the python code, so exactness
(what makes the procedure a *decision* procedure) is never traded for
speed; see ``src/repro/linalg/README.md``.

Everything validates shapes eagerly and raises
:class:`repro.util.errors.DecisionError` carrying the offending shapes —
dimension bugs surface at the call boundary, not as ``IndexError`` three
stack frames deep.
"""

from repro.linalg import kernels
from repro.linalg.dense import (
    dense_add,
    dense_identity,
    dense_mul,
    dense_shape,
    dense_star,
    dense_zeros,
)
from repro.linalg.rowspace import (
    RowSpace,
    Vector,
    add,
    dot,
    is_zero,
    scale,
    sub,
    vector,
)
from repro.linalg.semiring import (
    BOOL,
    EXT_NAT,
    SemiringSpec,
    register_semiring,
    semiring_by_name,
)
from repro.linalg.sparse import (
    SparseMatrix,
    SparseVec,
    mat_vec,
    reachable,
    vec_dot,
    vec_mat,
)

__all__ = [
    "kernels",
    "SemiringSpec",
    "EXT_NAT",
    "BOOL",
    "register_semiring",
    "semiring_by_name",
    "SparseMatrix",
    "SparseVec",
    "vec_mat",
    "mat_vec",
    "vec_dot",
    "reachable",
    "dense_shape",
    "dense_zeros",
    "dense_identity",
    "dense_add",
    "dense_mul",
    "dense_star",
    "RowSpace",
    "Vector",
    "vector",
    "dot",
    "scale",
    "add",
    "sub",
    "is_zero",
]
