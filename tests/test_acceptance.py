"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
the printed lines land on the terminal even under capture."""

import random
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from fmmkit.algebra import (
    direct_sum,
    embed_and_add,
    hopcroft_rank_bound,
    kronecker,
    mask_embedding,
    serendipity_find,
)
from fmmkit.cli import main
from fmmkit.datasets import expected_info
from fmmkit.evaluate import (
    MultiplicationCounter,
    count_multiplications,
    epsilon_error_scan,
    multiply_recursive,
)
from fmmkit.io import load_tensor
from fmmkit.matrices import Matrix
from fmmkit.tensor import (
    Term,
    classical_tensor,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

DATA = resources.files("fmmkit") / "data"
USER_DATA = Path(__file__).resolve().parent.parent / "data" / "user"
USER_40 = USER_DATA / "2x5x5_40.fmm"
USER_34 = USER_DATA / "3x3x5_34.fmm"


def report(capsys, num, ok, detail=""):
    line = "criterion %d %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    with capsys.disabled():
        print(line)
    assert ok, line


def _mutations(t):
    """Every tensor obtained by perturbing one coefficient of one factor."""
    for ti, term in enumerate(t.terms):
        for slot in "PQS":
            factor = getattr(term, slot)
            for r in range(factor.rows):
                for c in range(factor.cols):
                    for delta in (Fraction(1), Fraction(-1, 2)):
                        cells = [
                            [factor[(rr, cc)] for cc in range(factor.cols)]
                            for rr in range(factor.rows)
                        ]
                        cells[r][c] = cells[r][c] + delta
                        mutated = Matrix(cells)
                        if not mutated:
                            continue
                        parts = {s: getattr(term, s) for s in "PQS"}
                        parts[slot] = mutated
                        terms = list(t.terms)
                        terms[ti] = Term(parts["P"], parts["Q"], parts["S"])
                        yield t.with_terms(terms)


def test_criterion_1_strassen_verification(capsys, strassen):
    start = time.perf_counter()
    rep = verify_exact(strassen)
    elapsed = time.perf_counter() - start
    ok = rep.passed and rep.total_equations == 64 and elapsed < 0.1
    mutants = 0
    undetected = 0
    for bad in _mutations(strassen):
        mutants += 1
        if verify_exact(bad).passed:
            undetected += 1
    ok = ok and mutants >= 84 and undetected == 0
    report(capsys, 1, ok,
           "64/64 in %.4fs; %d mutations, %d undetected" % (elapsed, mutants, undetected))


def test_criterion_2_headline_tensor(capsys):
    start = time.perf_counter()
    t = load_tensor(DATA / "3x5x5_58.fmm")
    rep = verify_exact(t)
    tp = type_polynomial(t)
    elapsed = time.perf_counter() - start
    expected = expected_info("3x5x5_58")["type"]
    ok = (
        rep.passed
        and rep.total_equations == 5625
        and tp.as_dict() == expected
        and tp.total() == 58
        and elapsed < 5.0
    )
    report(capsys, 2, ok, "5625/5625, type sum 58, %.2fs" % elapsed)


def test_criterion_3_serendipity_counts(capsys, t58, teps):
    big = len(serendipity_find(t58))
    small = len(serendipity_find(teps))
    ok = big == 8 and small == 4
    report(capsys, 3, ok, "58-term tensor: %d groups, approximate tensor: %d" % (big, small))


def test_criterion_4_approximate_tensor(capsys):
    start = time.perf_counter()
    t = load_tensor(DATA / "teps.fmm")
    masked = sum(1 for row in t.support for v in row if not v)
    rep = verify_approximate(t)
    tp = type_polynomial(t)
    elapsed = time.perf_counter() - start
    expected = expected_info("teps")["type"]
    ok = (
        masked == 9
        and rep.valid
        and rep.discrepancy_order >= 1
        and tp.as_dict() == expected
        and tp.total() == 55
        and elapsed < 10.0
    )
    report(capsys, 4, ok,
           "9 masked entries, order %s, type sum 55, %.2fs" % (rep.discrepancy_order, elapsed))


def test_criterion_5_compositions(capsys, strassen, t58, teps):
    square = kronecker(strassen, strassen)
    ok_kron = square.dims == (4, 4, 4) and square.rank == 49 and verify_exact(square).passed

    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    ok_dsum = t108.dims == (5, 5, 5) and t108.rank == 108 and verify_exact(t108).passed

    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    ok_embed = t100.dims == (5, 5, 5) and t100.rank == 100 and verify_approximate(t100).valid

    ok_count = count_multiplications([strassen, t108]) == 7 * 108

    optional = "optional tier skipped (no user-supplied files)"
    ok_optional = True
    if USER_40.exists() and USER_34.exists():
        t98 = direct_sum(t58, load_tensor(USER_40), axis="M")
        t89 = embed_and_add(teps, load_tensor(USER_34), mask_embedding(teps))
        ok_optional = (
            t98.rank == 98 and verify_exact(t98).passed
            and t89.rank == 89 and verify_approximate(t89).valid
            and count_multiplications([strassen, t98]) == 686
        )
        optional = "user files reproduce 98/89: %s" % ok_optional

    ok = ok_kron and ok_dsum and ok_embed and ok_count and ok_optional
    report(capsys, 5, ok,
           "kron 49 %s, dsum 108 %s, embed 100 %s, count 756 %s; %s"
           % (ok_kron, ok_dsum, ok_embed, ok_count, optional))


def _random_matrix(rng, rows, cols, ints_only=False):
    if ints_only:
        return Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                       for _ in range(rows)])
    return Matrix([[Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(cols)]
                   for _ in range(rows)])


def test_criterion_6_evaluator_oracle(capsys, strassen, t58):
    rng = random.Random(2024)
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    schedules = [
        ([strassen], False),
        ([t58], False),
        ([strassen, strassen], False),
        ([strassen, t108], True),  # 10x10 two-level run, integer entries
    ]
    mismatches = 0
    count_errors = 0
    runs = 0
    for levels, ints_only in schedules:
        M = N = P = 1
        for t in levels:
            M *= t.dims.m
            N *= t.dims.n
            P *= t.dims.p
        expected = count_multiplications(levels)
        for _ in range(100):
            A = _random_matrix(rng, M, N, ints_only)
            B = _random_matrix(rng, N, P, ints_only)
            counter = MultiplicationCounter()
            C = multiply_recursive(levels, A, B, counter=counter)
            runs += 1
            if C != A @ B:
                mismatches += 1
            if counter.count != expected:
                count_errors += 1
    two_level = count_multiplications([strassen, t108])
    ok_two_level = two_level == 756
    optional = "686 two-level check skipped (no user 98-rank composition)"
    ok_optional = True
    if USER_40.exists():
        t98 = direct_sum(t58, load_tensor(USER_40), axis="M")
        ok_optional = count_multiplications([strassen, t98]) == 686
        optional = "686 two-level check: %s" % ok_optional
    ok = mismatches == 0 and count_errors == 0 and ok_two_level and ok_optional
    report(capsys, 6, ok,
           "%d products bit-exact, %d count mismatches, bundled two-level count %d; %s"
           % (runs, count_errors, two_level, optional))


def test_criterion_7_epsilon_scan(capsys, teps):
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    symbolic = verify_approximate(t100).discrepancy_order
    rng = random.Random(7)
    A = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]
    B = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]
    scan = epsilon_error_scan(t100, A, B, [1e-1, 1e-2, 1e-3, 1e-4])
    ok = scan.fitted_slope is not None and abs(scan.fitted_slope - symbolic) <= 0.3
    report(capsys, 7, ok,
           "slope %.4f vs discrepancy order %s" % (scan.fitted_slope, symbolic))


def _run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_8_als_rediscovery(capsys, tmp_path):
    out_path = tmp_path / "found.fmm"
    argv = ["search", "--dims", "2", "2", "2", "--rank", "7",
            "--restarts", "100", "--seed", "1", "--out", str(out_path)]
    start = time.perf_counter()
    code1, out1, err1 = _run_cli(argv, capsys)
    code2, out2, err2 = _run_cli(argv, capsys)
    found = load_tensor(out_path)
    ok_found = (
        code1 == 0
        and "found verified <2,2,2;7>" in out1
        and found.dims == (2, 2, 2)
        and found.rank == 7
        and verify_exact(found).passed
    )
    ok_det = out1 == out2 and err1 == err2
    code6, out6, _ = _run_cli(
        ["search", "--dims", "2", "2", "2", "--rank", "6",
         "--restarts", "100", "--seed", "1"], capsys)
    elapsed = time.perf_counter() - start
    ok_rank6 = code6 == 1 and out6.startswith("no verified decomposition")
    ok = ok_found and ok_det and ok_rank6 and elapsed < 300.0
    report(capsys, 8, ok,
           "rank 7 found+verified %s, deterministic %s, rank 6 exhausts %s, %.1fs"
           % (ok_found, ok_det, ok_rank6, elapsed))


def test_criterion_9_hopcroft_bound(capsys):
    got = (hopcroft_rank_bound(5, 5), hopcroft_rank_bound(3, 5), hopcroft_rank_bound(2, 2))
    ok = got == (40, 25, 7)
    report(capsys, 9, ok, "(5,5)->%d (3,5)->%d (2,2)->%d" % got)


def test_criterion_10_property_suites(capsys):
    from test_properties import (
        test_als_block_descent_is_monotone,
        test_kernel_field_axioms,
        test_serialization_round_trip,
        test_transforms_preserve_verification,
    )

    start = time.perf_counter()
    test_kernel_field_axioms()
    test_serialization_round_trip()
    test_transforms_preserve_verification()
    test_als_block_descent_is_monotone()
    elapsed = time.perf_counter() - start
    ok = True  # a failing suite raises out of the calls above
    report(capsys, 10, ok, "4 suites x 1000 cases in %.1fs" % elapsed)
