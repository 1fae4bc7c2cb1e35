"""Independent verdict oracle: the truncated power series of ``repro.series``.

:func:`repro.series.series_of_expr` evaluates the semantics of Definition
A.4 by direct recursion over the expression, sharing no code with the
automaton pipeline (Thompson, ε-elimination, Tzeng) the benchmark times.
A refutation is accepted only if the series really differ on its
counterexample; an equal verdict only if the series agree on every word up
to :func:`equal_check_length`.

A counterexample can be long (13 letters has been seen), and the series
of every word up to that length took minutes for a single pair, so a
refutation is checked with :func:`coefficient_of_word` instead: the same
operations of Definition A.3 over ``N̄``, kept to the factors of the word.
"""

from __future__ import annotations

from repro.core.expr import One, Product, Star, Sum, Symbol, Zero, alphabet
from repro.core.semiring import ONE, ZERO
from repro.series import series_of_expr


def equal_check_length(letters: int) -> int:
    """Words checked for an equal verdict: every word of at most this length
    (63 words over two letters, 121 over three, 85 over four)."""
    if letters <= 2:
        return 5
    if letters == 3:
        return 4
    return 3


def coefficient_of_word(expr, word):
    """``{{expr}}[word]`` (Definition A.4), tracking only the factors of ``word``.

    The coefficient of a factor of ``word`` in ``f + g``, ``f · g`` or
    ``f*`` depends only on coefficients of factors of ``word``, so dropping
    every other word keeps these exact.  The star is normalised as in
    :meth:`repro.series.TruncatedSeries.star`: ``f = c·ε + f'`` gives
    ``f* = (c*·f')*·c*``, and the proper star needs ``len(word)`` rounds.
    """
    word = tuple(word)
    factors = {word[i:j] for i in range(len(word) + 1) for j in range(i, len(word) + 1)}

    def add(left, right):
        merged = dict(left)
        for key, value in right.items():
            merged[key] = merged.get(key, ZERO) + value
        return merged

    def multiply(left, right):
        result = {}
        for left_word, left_value in left.items():
            for right_word, right_value in right.items():
                joined = left_word + right_word
                if joined in factors:
                    value = left_value * right_value
                    if not value.is_zero:
                        result[joined] = result.get(joined, ZERO) + value
        return result

    def star(series):
        scalar = series.get((), ZERO).star()
        proper = {key: scalar * value for key, value in series.items() if key}
        total = power = {(): ONE}
        for _ in range(len(word)):
            power = multiply(power, proper)
            if not power:
                break
            total = add(total, power)
        return {key: scalar * value for key, value in total.items()}

    memo = {}

    def evaluate(node):
        found = memo.get(node)
        if found is not None:
            return found
        if isinstance(node, Zero):
            found = {}
        elif isinstance(node, One):
            found = {(): ONE}
        elif isinstance(node, Symbol):
            found = {(node.name,): ONE} if (node.name,) in factors else {}
        elif isinstance(node, Sum):
            found = add(evaluate(node.left), evaluate(node.right))
        elif isinstance(node, Product):
            found = multiply(evaluate(node.left), evaluate(node.right))
        elif isinstance(node, Star):
            found = star(evaluate(node.body))
        else:
            raise TypeError(f"unknown expression node {node!r}")
        memo[node] = found
        return found

    return evaluate(expr).get(word, ZERO)


class SeriesOracle:
    """Checks verdicts; series are memoized per ``(expression, length)``."""

    def __init__(self):
        self._series = {}
        self._coefficient = {}
        self.checked = 0

    def _coefficients(self, expr, length):
        key = (expr, length)
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = series_of_expr(expr, length).as_dict()
        return found

    def forget(self):
        """Drop memoized series (between iterations with fresh inputs)."""
        self._series.clear()
        self._coefficient.clear()

    def _coefficient_of_word(self, expr, word):
        key = (expr, word)
        found = self._coefficient.get(key)
        if found is None:
            found = self._coefficient[key] = coefficient_of_word(expr, word)
        return found

    def mismatch(self, left, right, result):
        """``None`` if ``result`` is right for ``left = right``, else why not."""
        self.checked += 1
        if result.equal:
            if left is right:
                return None
            length = equal_check_length(len(alphabet(left) | alphabet(right)))
            if self._coefficients(left, length) != self._coefficients(right, length):
                return f"verdict equal, but the series differ below length {length + 1}"
            return None
        word = result.counterexample
        if word is None:
            return "refutation without a counterexample"
        word = tuple(word)
        left_value = self._coefficient_of_word(left, word)
        if left_value == self._coefficient_of_word(right, word):
            return f"refuted on {' '.join(word) or 'ε'}, but both coefficients are {left_value}"
        return None
