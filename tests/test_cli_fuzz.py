"""Fuzz fmmkit.cli.main with argv built from its seven subcommands and flags.

Files are bundled, small hand-written, mutated or missing; flag values
include negative, huge, nan, inf and empty strings.  Whatever the argv,
main returns 0, 1 or 2, argparse exits with 0 or 2, and nothing else
escapes.  Searches stay small: dims at most 2, at most 20 sweeps and 2
restarts, so the suite runs in a few seconds."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.cli import main
from fmmkit.datasets import dataset_text

UNIT = "fmm 1\ndims 1 1 1\nrank 1\nfield rational\nterm 1\n1\n1\n1\n"
# <1,2,1;1> computing only A[0,0] B[0,0]: completed by UNIT under --op embed
MASKED = ("fmm 1\ndims 1 2 1\nrank 1\nfield rational\nsupport\n10\n"
          "term 1\n1, 0\n1\n0\n1\n")
# the same with P = (1 + e, 0): approximate, discrepancy order 1
APPROX = MASKED.replace("rational", "laurent").replace("1, 0", "1 + 1*e^1, 0")
MATRICES = {
    "eye2": "2 2\n1 0\n0 1\n",
    "one": "1 1\n3\n",
    "four": "4 4\n1 2 3 4\n-1 0 1/2 5\n7 -3 0 1\n2 2 -2 9\n",
    "singular": "2 2\n1 2\n2 4\n",
}
TENSORS = {"strassen": dataset_text("strassen"), "unit": UNIT, "masked": MASKED,
           "approx": APPROX}
TEXTS = dict(MATRICES, **TENSORS)

# characters of both file formats, and a few that have no place in them
ALPHABET = "0123456789-+/*^e ,\n#dfmrst\tx."

# values every numeric or list option is tried with
ODD = ("", "-1", "0", "nan", "inf", "-inf", "1e400", str(10**30), "x")

# a placeholder "@name" stands for a file of the pool, "@mutated" and
# "@mutmatrix" for this case's mutated copies
TENSOR = st.sampled_from(("@strassen", "@unit", "@masked", "@approx", "@mutated",
                          "@missing", ""))
MATRIX = st.sampled_from(("@eye2", "@one", "@four", "@singular", "@mutmatrix",
                          "@missing", ""))
OUT = st.sampled_from(("@out", "@dir", ""))


def one(strategy):
    return strategy.map(lambda v: [v])


def odd(*good):
    return one(st.sampled_from(good + ODD))


def joined(files):
    return one(st.lists(files, max_size=3).map(",".join))


FLAG = st.just([])

# per subcommand: positional arguments, required options (each left out
# now and then), optional options; a value strategy draws the option's
# arguments, FLAG none
COMMANDS = {
    "verify": ([TENSOR], {}, {
        "--approx": FLAG,
        "--mode": one(st.sampled_from(("strict", "scaled", "loose", ""))),
        "--explain": odd("3", str(10**30)),
    }),
    "type": ([TENSOR], {}, {}),
    "compose": ([], {
        "--op": one(st.sampled_from(("dsum", "kron", "rotate", "transpose", "isotropy",
                                     "serendipity", "embed", "bogus"))),
        "--inputs": joined(TENSOR),
    }, {
        "--axis": one(st.sampled_from(("M", "N", "P", "Q"))),
        "--steps": odd("1", "2", "-4"),
        "--u": one(MATRIX),
        "--v": one(MATRIX),
        "--w": one(MATRIX),
        "--up-to-scale": FLAG,
        "--group": odd("1", "2", "3"),
        "--mix": one(MATRIX),
        "--out": one(OUT),
    }),
    "multiply": ([], {
        "--schedule": joined(TENSOR),
        "--a": one(MATRIX),
        "--b": one(MATRIX),
    }, {
        "--out": one(OUT),
    }),
    "count": ([], {"--schedule": joined(TENSOR)}, {}),
    "errscan": ([TENSOR], {}, {
        "--eps": odd("3e-2,1e-2,3e-3", "1e-3", "1e-200,1e-300", "1,1", ",,"),
        "--seed": odd("5"),
    }),
    "search": ([], {
        "--dims": st.lists(st.sampled_from(("1", "2", "0", "-1", "nan", "")),
                           min_size=3, max_size=3),
        "--rank": one(st.sampled_from(("1", "2", "6", "7", "0", "-1", "nan", "",
                                       "1000000000000"))),
    }, {
        "--seed": odd("3"),
        "--restarts": one(st.sampled_from(("1", "2", "0", "-1", "inf", ""))),
        "--grid": odd("0,1,-1", "0,1/2,-1/2", "1", "1/0", "0,1e400", "0,1/" + "9" * 400),
        "--allow-large": FLAG,
        "--out": one(OUT),
    }),
}
# at the default of 2000 sweeps a search leaves the time budget
SWEEPS = one(st.sampled_from(("1", "7", "20", "", "-1", "0", "nan", "inf", "x")))


@st.composite
def mutated(draw, name):
    text = list(TEXTS[name])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "insert")))
        if kind == "delete":
            del text[i]
        elif kind == "replace":
            text[i] = draw(st.sampled_from(ALPHABET))
        else:
            text.insert(i, draw(st.sampled_from(ALPHABET)))
    return "".join(text)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"]))
    if command == "bogus":
        return [command]
    positional, required, optional = COMMANDS[command]
    argv = [command] + [draw(s) for s in positional]
    for flag in required:
        if draw(st.integers(0, 9)):
            argv += [flag] + draw(required[flag])
    if command == "search":
        argv += ["--max-sweeps"] + draw(SWEEPS)
    if optional:
        for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True,
                                  max_size=3)):
            argv += [flag] + draw(optional[flag])
    return argv


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    paths = {"missing": str(root / "missing.fmm"), "out": str(root / "out"),
             "dir": str(root), "mutated": str(root / "mutated.fmm"),
             "mutmatrix": str(root / "mutmatrix.txt")}
    for name, text in TEXTS.items():
        paths[name] = str(root / name)
        (root / name).write_text(text, encoding="utf-8")
    return paths


def resolve(arg, paths):
    return ",".join(paths[part[1:]] if part.startswith("@") else part
                    for part in arg.split(","))


@settings(max_examples=200)
@given(argv=argvs(), tensor=st.sampled_from(sorted(TENSORS)).flatmap(mutated),
       matrix=st.sampled_from(sorted(MATRICES)).flatmap(mutated))
def test_cli_main_exits_0_1_or_2(pool, argv, tensor, matrix):
    with open(pool["mutated"], "w", encoding="utf-8") as f:
        f.write(tensor)
    with open(pool["mutmatrix"], "w", encoding="utf-8") as f:
        f.write(matrix)
    argv = [resolve(arg, pool) for arg in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, sink.getvalue()[-2000:])
