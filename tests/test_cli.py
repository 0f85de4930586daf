import random
import time
from importlib import resources

import pytest

from fmmkit import cli
from fmmkit.algebra import direct_sum
from fmmkit.cli import main
from fmmkit.io import load_matrix, load_tensor, save_matrix, save_tensor, write_matrix
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import Term, classical_tensor, verify_approximate, verify_exact

from helpers import third_of_one_term

DATA = resources.files("fmmkit") / "data"
STRASSEN = str(DATA / "strassen.fmm")
T58 = str(DATA / "3x5x5_58.fmm")
TEPS = str(DATA / "teps.fmm")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_exact_pass(capsys):
    code, out, err = run(capsys, "verify", STRASSEN)
    assert code == 0
    assert out.strip() == "PASS 64/64 equations"


def test_verify_exact_large(capsys):
    code, out, _ = run(capsys, "verify", T58)
    assert code == 0
    assert out.strip() == "PASS 5625/5625 equations"


def test_verify_approx_autodetect(capsys):
    code, out, _ = run(capsys, "verify", TEPS)
    assert code == 0
    assert out.strip() == "VALID discrepancy_order 1"


def test_verify_forced_approx_mode(capsys):
    code, out, _ = run(capsys, "verify", STRASSEN, "--approx")
    assert code == 0
    assert out.strip() == "VALID discrepancy_order inf"


def test_verify_failure_exits_one(capsys, tmp_path, strassen):
    bad = strassen.with_terms(
        [strassen.terms[0]._replace(P=strassen.terms[0].P.scale(2))]
        + list(strassen.terms[1:])
    )
    path = tmp_path / "bad.fmm"
    save_tensor(bad, path)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAIL ")


def test_verify_explain_names_the_scaled_term(capsys, tmp_path, t58):
    # t108 with term 5's P scaled by 1/3: every failing equation is one
    # that term 5 touches
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    path = str(tmp_path / "third.fmm")
    save_tensor(third_of_one_term(t108, 4), path)
    code, plain, _ = run(capsys, "verify", path)
    assert (code, plain) == (1, "FAIL 15601/15625 equations\n")
    assert run(capsys, "verify", path, "--explain", "0")[:2] == (1, plain)
    code, out, _ = run(capsys, "verify", path, "--explain", "2")
    assert code == 1
    assert out == plain + ("(0,1),(1,1),(0,0) residual -2/3 terms 5,40\n"
                           "(0,1),(1,1),(0,1) residual -2/3 terms 3,5,40,51\n")
    code, out, _ = run(capsys, "verify", path, "--explain", str(10**30))
    lines = out.splitlines()[1:]
    assert len(lines) == 24
    assert all("5" in line.split(" terms ")[1].split(",") for line in lines)


def test_verify_explain_on_an_approximate_report(capsys, tmp_path, teps):
    e = Laurent.monomial(1, 1)
    path = str(tmp_path / "teps_e.fmm")
    save_tensor(teps.with_terms([Term(t.P.map(lambda x: x * e), t.Q, t.S)
                                 for t in teps.terms]), path)
    code, out, _ = run(capsys, "verify", path, "--explain", "2")
    assert code == 1
    assert out == ("INVALID discrepancy_order 0\n"
                   "(0,0),(0,0),(0,0) residual -1 + 1*e^1 terms 52\n"
                   "(0,0),(0,1),(1,0) residual -1 + 1*e^1 terms 1\n")
    code, out, _ = run(capsys, "verify", path, "--mode", "scaled", "--explain", "2")
    assert (code, out) == (0, "VALID discrepancy_order 1 scaling e^1\n")


@pytest.mark.parametrize("value", ["-1", "x", "1.5", "nan", ""])
def test_verify_explain_needs_a_count(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", STRASSEN, "--explain", value])
    assert exc.value.code == 2
    assert "--explain: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["search", "--dims", "2", "2", "2", "--rank", "7"],
                                  ["errscan", TEPS]])
def test_negative_seed_is_refused_by_name(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-5"])
    assert exc.value.code == 2
    assert "--seed: expected a non-negative integer, got '-5'" in capsys.readouterr().err


def test_verify_scaled_huge_exponent_is_bounded(capsys, tmp_path):
    path = tmp_path / "huge.fmm"
    path.write_text("fmm 1\ndims 1 1 1\nrank 1\nfield laurent\n"
                    "term 1\n2*e^99999999\n1\n1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--mode", "scaled")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out.startswith("INVALID ")


def test_type_huge_exponent_is_fast(capsys, tmp_path):
    path = tmp_path / "huge.fmm"
    path.write_text("fmm 1\ndims 2 2 1\nrank 1\nfield laurent\n"
                    "term 1\n1*e^1000000, 1\n1, 1\n1\n1\n1, 1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "type", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "X^2*Y*Z"


def test_type_command(capsys):
    code, out, _ = run(capsys, "type", STRASSEN)
    assert code == 0
    assert out.strip() == "X^2*Y^2*Z^2 + 6*X*Y*Z"


def test_compose_dsum(capsys, tmp_path, strassen):
    out_path = tmp_path / "sum.fmm"
    code, out, err = run(capsys, "compose", "--op", "dsum",
                         "--inputs", "%s,%s" % (STRASSEN, STRASSEN),
                         "--axis", "P", "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<2,2,4;14> rational"
    assert "wrote" in err
    assert verify_exact(load_tensor(out_path)).passed
    # a rational and a laurent input sum to a laurent tensor
    from fmmkit.tensor import LAURENT, FmmTensor

    lifted = tmp_path / "lifted.fmm"
    save_tensor(FmmTensor(strassen.dims, LAURENT, strassen.terms), lifted)
    code, out, _ = run(capsys, "compose", "--op", "dsum",
                       "--inputs", "%s,%s" % (STRASSEN, lifted), "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<4,2,2;14> laurent"
    assert verify_approximate(load_tensor(out_path)).valid


def test_compose_kron(capsys, tmp_path):
    out_path = tmp_path / "k.fmm"
    code, out, _ = run(capsys, "compose", "--op", "kron",
                       "--inputs", "%s,%s" % (STRASSEN, STRASSEN),
                       "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<4,4,4;49> rational"
    assert verify_exact(load_tensor(out_path)).passed


def test_compose_rotate_and_transpose(capsys):
    code, out, _ = run(capsys, "compose", "--op", "rotate", "--inputs", T58, "--steps", "2")
    assert code == 0
    assert out.strip() == "<5,3,5;58> rational"
    code, out, _ = run(capsys, "compose", "--op", "transpose", "--inputs", T58)
    assert code == 0
    assert out.strip() == "<3,5,5;58> rational"


def test_compose_isotropy(capsys, tmp_path):
    u = tmp_path / "u.mat"
    v = tmp_path / "v.mat"
    w = tmp_path / "w.mat"
    save_matrix(Matrix([[1, 1], [0, 1]]), u)
    save_matrix(Matrix([[2, 0], [0, 1]]), v)
    save_matrix(Matrix([[1, 0], [1, 1]]), w)
    out_path = tmp_path / "iso.fmm"
    code, out, _ = run(capsys, "compose", "--op", "isotropy", "--inputs", STRASSEN,
                       "--u", str(u), "--v", str(v), "--w", str(w),
                       "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<2,2,2;7> rational"
    assert verify_exact(load_tensor(out_path)).passed


def test_compose_isotropy_requires_matrices(capsys):
    code, _, err = run(capsys, "compose", "--op", "isotropy", "--inputs", STRASSEN)
    assert code == 2
    assert "error:" in err


def test_compose_serendipity_list(capsys):
    code, out, _ = run(capsys, "compose", "--op", "serendipity", "--inputs", T58)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "8 groups"
    assert len(lines) == 9
    assert lines[0].startswith("group 1: slot ")


def test_compose_serendipity_up_to_scale_laurent(capsys, tmp_path):
    from fmmkit.scalars import Laurent
    from fmmkit.tensor import LAURENT, FmmTensor, Term

    e = Laurent.monomial(1, 1)
    path = tmp_path / "scaled.fmm"
    save_tensor(FmmTensor((1, 2, 1), LAURENT, [
        Term(Matrix([[1 + e, 1]]), Matrix([[1], [0]]), Matrix([[1]])),
        Term(Matrix([[2 + 2 * e, 2]]), Matrix([[0], [1]]), Matrix([[2]])),
    ]), path)
    code, out, _ = run(capsys, "compose", "--op", "serendipity", "--inputs", str(path),
                       "--up-to-scale")
    assert code == 0
    assert out.splitlines() == ["group 1: slot P terms 1,2", "group 2: slot S terms 1,2",
                                "2 groups"]


def test_compose_serendipity_apply(capsys, tmp_path):
    mix = tmp_path / "m.mat"
    code, out, _ = run(capsys, "compose", "--op", "serendipity", "--inputs", T58)
    assert code == 0
    size = len(out.splitlines()[0].split("terms")[1].split(","))
    save_matrix(
        Matrix([[1 if c >= r else 0 for c in range(size)] for r in range(size)]),
        mix,
    )
    out_path = tmp_path / "mixed.fmm"
    code, out, _ = run(capsys, "compose", "--op", "serendipity", "--inputs", T58,
                       "--group", "1", "--mix", str(mix), "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<3,5,5;58> rational"
    assert verify_exact(load_tensor(out_path)).passed


def test_compose_embed(capsys, tmp_path):
    block = tmp_path / "block.fmm"
    from fmmkit.tensor import classical_tensor

    save_tensor(classical_tensor((3, 3, 5)), block)
    out_path = tmp_path / "full.fmm"
    code, out, _ = run(capsys, "compose", "--op", "embed",
                       "--inputs", "%s,%s" % (TEPS, str(block)),
                       "--out", str(out_path))
    assert code == 0
    assert out.strip() == "<5,5,5;100> laurent"
    report = verify_approximate(load_tensor(out_path))
    assert report.valid


def test_compose_input_arity(capsys):
    code, _, err = run(capsys, "compose", "--op", "dsum", "--inputs", STRASSEN)
    assert code == 2
    assert "error:" in err


def test_multiply_schedule(capsys, tmp_path):
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    A = Matrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    B = Matrix([[1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 1, 0], [0, 3, 0, 1]])
    save_matrix(A, a)
    save_matrix(B, b)
    code, out, err = run(capsys, "multiply",
                         "--schedule", "%s,%s" % (STRASSEN, STRASSEN),
                         "--a", str(a), "--b", str(b))
    assert code == 0
    assert out == write_matrix(A @ B)
    assert "multiplications 49" in err
    out_path = tmp_path / "c.mat"
    code, out, err = run(capsys, "multiply",
                         "--schedule", "%s,%s" % (STRASSEN, STRASSEN),
                         "--a", str(a), "--b", str(b), "--out", str(out_path))
    assert code == 0
    assert load_matrix(out_path) == A @ B


def test_multiply_forty_digit_integers(capsys, tmp_path):
    # Python-int run: 40-digit entries are far above the int64 bound
    rng = random.Random(40)
    rows = [[rng.choice((1, -1)) * rng.randrange(10**39, 10**40) for _ in range(4)]
            for _ in range(4)]
    A, B = Matrix(rows), Matrix([list(r) for r in zip(*rows)][::-1])
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    save_matrix(A, a)
    save_matrix(B, b)
    code, out, err = run(capsys, "multiply", "--schedule", "%s,%s" % (STRASSEN, STRASSEN),
                         "--a", str(a), "--b", str(b))
    assert code == 0
    schoolbook = [[sum(x * y for x, y in zip(row, col)) for col in zip(*B.data)]
                  for row in A.data]
    assert out == write_matrix(Matrix(schoolbook))
    assert "multiplications 49" in err


def test_schedule_parses_and_verifies_a_repeated_file_once(capsys, tmp_path, monkeypatch):
    from fmmkit import evaluate, io

    calls = {"parse": 0, "verify": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(io, "parse_tensor", counted("parse", io.parse_tensor))
    monkeypatch.setattr(evaluate, "verify_exact", counted("verify", evaluate.verify_exact))
    a = tmp_path / "a.mat"
    A = Matrix([[i * j - 3 for j in range(16)] for i in range(16)])
    save_matrix(A, a)
    code, out, err = run(capsys, "multiply", "--schedule", ",".join([STRASSEN] * 4),
                         "--a", str(a), "--b", str(a))
    assert code == 0
    assert out == write_matrix(A @ A)
    assert calls == {"parse": 1, "verify": 1}


def test_unwritable_result_leaves_out_file_unchanged(capsys, tmp_path):
    # 3,000-digit entries whose products have more digits than Python
    # converts to text (4,300)
    big = "3" * 3000
    one = tmp_path / "one.fmm"
    one.write_text("fmm 1\ndims 1 1 1\nrank 1\nfield rational\nterm 1\n1\n1\n1\n")
    big_fmm = tmp_path / "big.fmm"
    big_fmm.write_text(one.read_text().replace("term 1\n1\n", "term 1\n%s\n" % big))
    big_mat = tmp_path / "big.mat"
    big_mat.write_text("1 1\n%s\n" % big)
    out = tmp_path / "out"
    for argv in (("compose", "--op", "kron", "--inputs", "%s,%s" % (big_fmm, big_fmm)),
                 ("multiply", "--schedule", str(one), "--a", str(big_mat),
                  "--b", str(big_mat))):
        out.write_text("previous contents\n")
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert "error: " in err
        assert out.read_text() == "previous contents\n"


def test_multiply_dimension_error(capsys, tmp_path):
    a = tmp_path / "a.mat"
    save_matrix(Matrix([[1, 2], [3, 4]]), a)
    code, _, err = run(capsys, "multiply", "--schedule", STRASSEN,
                       "--a", str(a), "--b", str(a))
    assert code == 0  # 2x2 through one strassen level is fine
    code, _, err = run(capsys, "multiply",
                       "--schedule", "%s,%s" % (STRASSEN, STRASSEN),
                       "--a", str(a), "--b", str(a))
    assert code == 2
    assert "error:" in err


def test_unverified_schedule_is_refused(capsys, tmp_path, strassen):
    # one coefficient of Strassen with its sign flipped fails 4 of 64 equations
    term = strassen.terms[0]
    cells = [list(row) for row in term.P.data]
    cells[0][0] = -cells[0][0]
    bad = strassen.with_terms([term._replace(P=Matrix(cells))] + list(strassen.terms[1:]))
    path = str(tmp_path / "bad.fmm")
    save_tensor(bad, path)
    a = tmp_path / "a.mat"
    save_matrix(Matrix([[1, 2], [3, 4]]), a)
    code, out, err = run(capsys, "multiply", "--schedule", path, "--a", str(a), "--b", str(a))
    assert code == 1
    assert out == ""
    assert "schedule level 1 fails verification: FAIL 60/64 equations" in err
    code, out, err = run(capsys, "count", "--schedule", "%s,%s" % (STRASSEN, path))
    assert code == 1
    assert out == ""
    assert "schedule level 2 fails verification: FAIL 60/64 equations" in err


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--schedule", "%s,%s" % (STRASSEN, STRASSEN))
    assert code == 0
    assert out.strip() == "49"


def test_errscan_command(capsys):
    code, out, _ = run(capsys, "errscan", TEPS, "--eps", "1e-1,1e-2,1e-3,1e-4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("fitted slope ")
    slope = float(lines[-1].split()[-1])
    assert abs(slope - 1.0) <= 0.3


def test_errscan_default_eps_fits_the_order(capsys, monkeypatch, teps):
    # teps is parsed once; what is under test is the default --eps list
    monkeypatch.setattr(cli, "load_tensor", lambda path: teps)
    off = []
    for seed in range(100):
        code, out, _ = run(capsys, "errscan", TEPS, "--seed", str(seed))
        slope = float(out.strip().splitlines()[-1].split()[-1])
        if code != 0 or abs(slope - 1.0) > 0.3:
            off.append((seed, slope))
    assert off == []


def test_errscan_overflowing_eps_records_inf(capsys):
    # e^-3 at eps 1e-200 overflows a float: the sample is inf, not a traceback
    code, out, _ = run(capsys, "errscan", TEPS, "--eps", "1e-2,1e-200")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split() == ["eps", "1.000e-200", "rel_error", "inf"]
    assert lines[-1] == "fitted slope undefined"


def test_errscan_rejects_bad_eps(capsys):
    for eps in ("1e-2,1e-1", "1e-2,nan", "inf"):
        code, _, err = run(capsys, "errscan", TEPS, "--eps", eps)
        assert code == 2
        assert "error:" in err


def test_search_quick_success(capsys, tmp_path):
    out_path = tmp_path / "found.fmm"
    code, out, err = run(capsys, "search", "--dims", "1", "2", "1",
                         "--rank", "2", "--seed", "5", "--restarts", "4",
                         "--out", str(out_path))
    assert code == 0
    assert out.strip() == "found verified <1,2,1;2> rational"
    assert "sweep" in err
    assert verify_exact(load_tensor(out_path)).passed


def test_search_failure_exit_code(capsys):
    code, out, _ = run(capsys, "search", "--dims", "2", "2", "2",
                       "--rank", "3", "--seed", "1", "--restarts", "1",
                       "--max-sweeps", "30")
    assert code == 1
    assert out.startswith("no verified decomposition; best residual ")


def test_search_bad_grid(capsys):
    # a grid without 0, a zero denominator, a value past the float range
    for grid in ("1,-1", "0,1/0", "0,1e400"):
        code, _, err = run(capsys, "search", "--dims", "1", "1", "1",
                           "--rank", "1", "--grid", grid)
        assert code == 2
        assert err.startswith("error: ")


def test_search_huge_max_sweeps_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--dims", "2", "1", "1", "--rank", "1",
                         "--max-sweeps", str(10**30))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_sweeps %d exceeds the sweep limit" % 10**30)


def test_search_too_many_restarts_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--dims", "2", "2", "2", "--rank", "7",
                         "--restarts", "1001", "--max-sweeps", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: restarts 1001 exceeds the restart limit")


def test_search_grid_past_the_grid_limit_exits_two(capsys):
    grid = ",".join(str(v) for v in range(17))
    code, out, err = run(capsys, "search", "--dims", "2", "2", "2", "--rank", "7",
                         "--grid", grid)
    assert code == 2
    assert out == ""
    assert err == ("error: snap_grid of 17 values exceeds the grid limit 16; "
                   "set allow_large=True to proceed\n")


def test_search_rank_above_the_classical_rank_exits_two_at_once(capsys):
    for extra in ([], ["--allow-large"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "search", "--dims", "2", "2", "2",
                             "--rank", "1000000000000", *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: rank 1000000000000 exceeds the classical rank 8")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "no-such-file.fmm")
    assert code == 2
    assert "error:" in err


def test_malformed_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "junk.fmm"
    header = "fmm 1\ndims 1 1 1\nrank 1\nfield laurent\nterm 1\n"
    # the last two hold integers too long for Python to convert
    for text in ("fmm 2\n", header + "1%s\n1\n1\n" % ("0" * 5000),
                 header + "1*e^%s\n1\n1\n" % ("1" * 5000)):
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: line ")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_the_parser_built_once_reads_each_call_alike(capsys):
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--explain", "-1", STRASSEN])
        return exc.value.code, capsys.readouterr()

    first = usage_error()
    assert run(capsys, "verify", STRASSEN) == (0, "PASS 64/64 equations\n", "")
    assert usage_error() == first
    code, (out, err) = first
    assert code == 2 and not out
    assert "argument --explain: expected a non-negative integer, got '-1'" in err
    assert cli._build_parser() is cli._build_parser()
