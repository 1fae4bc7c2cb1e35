"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Checks that every workload finishes in both modes, prints every metric of
``BENCHMARK.json`` with its unit, and has error rate 0; that the oracle
catches planted wrong verdicts, both directly and through a whole run
whose engine answers one pair wrongly; and that the oracle's single-word
coefficient agrees with the full truncated series.  Exits 0 when all checks pass.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert any(line.startswith("error_rate: 0.000000 fraction") for line in lines), lines
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}, result["metrics"]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"], (metric, value)
        assert any(line.startswith(f"{workload} {metric['name']}: ") and line.endswith(metric["unit"])
                   for line in lines), metric
    if not trace:
        for name, value in result["metrics"].items():
            assert value["value"] > 0, (workload, name)


def planted_verdicts_are_caught():
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]
    from oracle import SeriesOracle
    from repro.automata.equivalence import EquivalenceResult
    from repro.core.parser import parse
    from repro.engine import NKAEngine

    engine, oracle = NKAEngine(), SeriesOracle()
    sliding = (parse("(a b)* a"), parse("a (b a)*"))
    idempotence = (parse("a + a"), parse("a"))
    for left, right in (sliding, idempotence):
        right_verdict = engine.equal_detailed(left, right)
        assert oracle.mismatch(left, right, right_verdict) is None
        planted = EquivalenceResult(
            equal=not right_verdict.equal,
            counterexample=None if right_verdict.equal is False else ("a", "b"),
            reason="planted",
        )
        assert oracle.mismatch(left, right, planted) is not None, (left, right)
    # A refutation must name a word where the coefficients differ.
    wrong_word = EquivalenceResult(equal=False, counterexample=("b",), reason="planted")
    assert oracle.mismatch(*idempotence, wrong_word) is not None


def word_coefficients_agree():
    """The refutation check's factor-restricted coefficient equals the full
    truncated series on every word up to length 4 of random expressions."""
    import random

    from gen import random_expr
    from oracle import coefficient_of_word
    from repro.core.expr import alphabet
    from repro.core.semiring import ZERO
    from repro.series import all_words, series_of_expr

    rng = random.Random(5)
    for _ in range(100):
        expr = random_expr(rng, depth=rng.randint(1, 4))
        letters = sorted(alphabet(expr)) or ["a"]
        series = series_of_expr(expr, 4, letters).as_dict()
        for word in all_words(letters, 4):
            assert coefficient_of_word(expr, word) == series.get(word, ZERO), (str(expr), word)


def planted_run_fails():
    """A whole run whose engine flips one verdict must be refused."""
    import run
    from repro.engine import NKAEngine

    original = NKAEngine.equal_many_detailed

    def flip_first(self, pairs, *args, **kwargs):
        results = original(self, pairs, *args, **kwargs)
        first = results[0]
        word = () if first.equal else None
        results[0] = type(first)(equal=not first.equal, counterexample=word, reason="planted")
        return results

    NKAEngine.equal_many_detailed = flip_first
    try:
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            code = run.main(["--workload", "cold_batch", "--seed", "3", "--seconds", "0.1",
                             "--trace", "1", "--tiny"])
    finally:
        NKAEngine.equal_many_detailed = original
    result = json.loads(output.getvalue().strip().splitlines()[-1])
    assert code != 0 and not result["correct"] and result["failed"] >= 1, result


def main():
    for workload in [entry["name"] for entry in SPEC["workloads"]]:
        for trace in (0, 1):
            run_tiny(workload, trace)
            print(f"ok  {workload} --trace {trace}")
    planted_verdicts_are_caught()
    print("ok  oracle rejects planted verdicts")
    word_coefficients_agree()
    print("ok  word coefficients agree with the truncated series")
    planted_run_fails()
    print("ok  a run with a planted wrong verdict fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
