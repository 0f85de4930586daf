import importlib.util
from pathlib import Path

import pytest

from fmmkit import datasets
from fmmkit.io import write_tensor
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import LAURENT, FmmTensor, Term, type_polynomial, verify_approximate, verify_exact

from helpers import laurent_copy


def test_dataset_names():
    assert datasets.dataset_names() == ("strassen", "3x5x5_58", "teps")


@pytest.mark.parametrize("name", datasets.dataset_names())
def test_bundled_datasets_are_clean(name):
    assert datasets.check_dataset(name) == []


def _load_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_bundled_data.py"
    spec = importlib.util.spec_from_file_location("make_bundled_data", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_bundled_files_match_their_generator():
    # the generator rebuilds every bundled file byte for byte, in memory
    tool = _load_generator()
    built = tool.schemes()
    assert tuple(built) == datasets.dataset_names()
    for name, t in built.items():
        assert write_tensor(t) == datasets.dataset_text(name)
        assert datasets.check_dataset(name, t) == []


def test_generator_writes_nothing_when_a_scheme_fails(tmp_path, monkeypatch, capsys):
    tool = _load_generator()
    real = tool.schemes()
    # Strassen's first term with Q = b12 instead of b12 - b22
    broken = ["a11 | b12 | c21 + c22"] + tool.STRASSEN[1:]
    monkeypatch.setattr(tool, "schemes", lambda: dict(
        real, strassen=tool.build((2, 2, 2), "rational", broken)))
    # the tool writes under <its directory>/../src/fmmkit/data
    monkeypatch.setattr(tool, "__file__", str(tmp_path / "tools" / "make_bundled_data.py"))
    assert tool.main() == 1
    assert list(tmp_path.rglob("*")) == []
    out = capsys.readouterr()
    assert "verification failed" in out.out
    assert "nothing written" in out.err


def test_check_dataset_checks_the_given_tensor(strassen, t58):
    assert datasets.check_dataset("strassen", strassen) == []
    problems = datasets.check_dataset("strassen", t58)
    assert any(p.startswith("rank 58 != expected 7") for p in problems)


def test_expected_info_is_copied():
    info = datasets.expected_info("strassen")
    info["rank"] = 99
    assert datasets.expected_info("strassen")["rank"] == 7
    with pytest.raises(KeyError):
        datasets.expected_info("nope")


def test_strassen_contents(strassen):
    assert strassen.dims == (2, 2, 2)
    assert strassen.rank == 7
    assert verify_exact(strassen).passed
    assert type_polynomial(strassen).as_dict() == {(2, 2, 2): 1, (1, 1, 1): 6}


def test_58_term_tensor_contents(t58):
    assert t58.dims == (3, 5, 5)
    assert t58.rank == 58
    report = verify_exact(t58)
    assert report.passed
    assert report.total_equations == 5625
    assert type_polynomial(t58).total() == 58


def test_approx_tensor_contents(teps):
    assert teps.dims == (5, 5, 5)
    assert teps.rank == 55
    assert teps.support is not None
    masked = sum(1 for row in teps.support for v in row if not v)
    assert masked == 9
    report = verify_approximate(teps)
    assert report.valid and report.discrepancy_order == 1
    assert type_polynomial(teps).total() == 55


ONE = Matrix([[1]])


def at_one(*factors):
    """The laurent <1,1,1> tensor with one term per given P factor."""
    return FmmTensor((1, 1, 1), LAURENT, [Term(P, ONE, ONE) for P in factors])


def e_to(k):
    return Matrix([[Laurent.monomial(1, k)]])


@pytest.mark.parametrize("name, build, problem", [
    ("teps", lambda t: datasets.load_dataset("strassen"), "field mode rational != expected laurent"),
    ("teps", lambda t: at_one(ONE, ONE),
     "approximate verification failed: INVALID discrepancy_order 0"),
    ("teps", lambda t: at_one(ONE, e_to(2)), "discrepancy order 2 != expected 1"),
    ("teps", lambda t: at_one(ONE), "discrepancy order inf != expected 1"),
    ("teps", lambda t: at_one(ONE, e_to(1)), "masked entries 0 != expected 9"),
], ids=["field mode", "invalid", "order 2", "exact", "unmasked"])
def test_check_dataset_reports_each_mismatch(name, build, problem):
    assert problem in datasets.check_dataset(name, build(datasets.load_dataset(name)))


def test_a_laurent_tensor_is_listed_against_an_exact_dataset(strassen):
    # the exact check needs a rational tensor, so the field mode is the
    # mismatch reported, not a refusal from verify_exact
    assert datasets.check_dataset("strassen", laurent_copy(strassen)) == [
        "field mode laurent != expected rational"]


@pytest.mark.parametrize("read", [datasets.expected_info, datasets.dataset_text,
                                  datasets.load_dataset, datasets.check_dataset])
def test_unknown_dataset_is_refused(read):
    with pytest.raises(KeyError) as exc:
        read("nope")
    assert exc.value.args == ("unknown dataset 'nope'; bundled: %s"
                              % ", ".join(datasets.dataset_names()),)
