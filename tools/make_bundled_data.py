#!/usr/bin/env python3
"""Regenerate the bundled scheme files from their transcription tables.

Each table row is one rank-one term written as  P | Q | S  where every
factor is a signed sum of matrix entries: `a24` puts a 1 at row 2,
column 4 of P (1-based), `b13+b22-b24` sums unit entries of Q, and a
trailing `e^k` scales an entry or a parenthesized group by that power
of e.  Letters fix the slot: a -> P, b -> Q, c -> S; `cKI` lands at
S[K][I] so that the S factor is the transpose of the output pattern.

A leading minus on a printed summand is carried by the Q factor, and a
printed e-power multiplying a whole factor is likewise folded into Q
(or, for an output-side prefactor, kept on S); the stored factors
therefore differ from the printed layout of a summand only by where
the unit scale sits, never in the term's value.

The script rebuilds every file and checks it with
fmmkit.datasets.check_dataset (verification, rank and the expected type
polynomial), printing any mismatch.  Only when every scheme passes does
it write the canonical serializations to src/fmmkit/data/, the one
stored copy; otherwise it writes nothing and exits 1.
"""

import pathlib
import re
import sys
from fractions import Fraction

from fmmkit.datasets import check_dataset
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import FmmTensor, Term
from fmmkit.io import write_tensor

_TOKEN = re.compile(r"\s*(\()|\s*(\))|\s*(\+)|\s*(-)|\s*([abc][1-9][1-9])|\s*(e\^-?\d+)|\s*(e\b)")


def _tokenize(src):
    out, pos = [], 0
    src = src.strip()
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ValueError("bad linear form %r near %r" % (src, src[pos:]))
        out.append(next(g for g in m.groups() if g))
        pos = m.end()
    return out


class _FormParser:
    """Signed sums of entries with optional e^k postfix scales."""

    def __init__(self, src):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        form = self.form()
        if self.peek() is not None:
            raise ValueError("trailing %r in %r" % (self.peek(), self.src))
        return form

    def form(self):
        acc = {}
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        self._add(acc, self.primary(), sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            self._add(acc, self.primary(), sign)
        return acc

    def primary(self):
        tok = self.take()
        if tok == "(":
            inner = self.form()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses in %r" % self.src)
            scale = self.eps_opt()
            return {k: v * scale for k, v in inner.items()}
        if tok and tok[0] in "abc":
            key = (tok[0], int(tok[1]), int(tok[2]))
            return {key: self.eps_opt()}
        raise ValueError("expected entry or group in %r, got %r" % (self.src, tok))

    def eps_opt(self):
        tok = self.peek()
        if tok == "e":
            self.take()
            return Laurent.monomial(1, 1)
        if tok and tok.startswith("e^"):
            self.take()
            return Laurent.monomial(1, int(tok[2:]))
        return Laurent.monomial(1, 0)

    @staticmethod
    def _add(acc, part, sign):
        for key, val in part.items():
            if sign < 0:
                val = -val
            cur = acc.get(key)
            new = val if cur is None else cur + val
            if new:
                acc[key] = new
            else:
                acc.pop(key, None)


def _factor(form, slot, rows, cols):
    cells = [[Fraction(0) for _ in range(cols)] for _ in range(rows)]
    for (who, r, c), val in form.items():
        if who != slot:
            raise ValueError("entry %s%d%d in the %s factor" % (who, r, c, slot))
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ValueError("entry %s%d%d outside %dx%d" % (who, r, c, rows, cols))
        cells[r - 1][c - 1] = cells[r - 1][c - 1] + val
    return Matrix(cells)


def build(dims, field_mode, rows, support=None):
    m, n, p = dims
    terms = []
    for row in rows:
        p_src, q_src, s_src = (part.strip() for part in row.split("|"))
        P = _factor(_FormParser(p_src).parse(), "a", m, n)
        Q = _factor(_FormParser(q_src).parse(), "b", n, p)
        S = _factor(_FormParser(s_src).parse(), "c", p, m)
        terms.append(Term(P, Q, S))
    return FmmTensor(dims, field_mode, terms, support)


STRASSEN = [
    "a11 | b12 - b22 | c21 + c22",
    "a11 + a12 | b22 | -c11 + c21",
    "a21 + a22 | b11 | c12 - c22",
    "a12 - a22 | b21 + b22 | c11",
    "a11 + a22 | b11 + b22 | c11 + c22",
    "a22 | -b11 + b21 | c11 + c12",
    "-a11 + a21 | b11 + b12 | c22",
]

R58 = [
    "a24 | b13 + b22 + b23 - b24 + b33 - b35 - b43 + b44 + b45 | c41 + c42",
    "a14 - a24 | -(b14 - b32 + b34 + b41 + b42 - b44 + b51 - b54 - b55) | c41",
    "a12 - a22 - a25 | b22 - b24 | c12 + c32 + c42",
    "a12 + a14 - a15 | b41 | c11 + c31 + c12",
    "a12 - a22 + a23 | b22 + b31 | c11 + c12 + c21 + c41",
    "a32 - a22 + a23 | b22 - b33 | c23 + c43 - c32 - c33",
    "a33 + a15 + a35 | b52 - b31 | c11 + c21 + c41 - c13",
    "a13 + a14 + a34 | b42 + b33 + b35 | c31 + c23 - c33 + c43",
    "a25 - a31 - a35 | b14 + b55 | c52 - c42 - c43",
    "a24 - a11 - a14 | b14 - b35 + b45 | c52 - c41 - c42",
    "a21 + a12 - a22 | b11 + b25 | c11 + c51 + c12",
    "a21 - a22 + a32 | b13 - b25 | c32 + c33 - c53",
    "a31 + a15 + a35 | b55 - b11 | c11 + c51 - c13",
    "a12 + a24 | b43 + b24 - b22 - b13 - b23 - b33 | c41 + c32 + c42",
    "a11 + a14 + a34 | b13 - b35 + b45 | c31 - c33 + c53",
    "a13 + a14 - a21 - a23 - a24 | b12 + b35 | c51 - c21 - c22",
    "a24 - a14 + a15 | -b41 - b51 + b54 + b55 | c41 - c12",
    "a34 + a15 | b41 + b53 | c31 + c13",
    "a32 + a25 | b22 - b24 + b53 | c32 - c43",
    "a33 - a25 + a35 | b12 - b32 + b52 + b34 | c43 - c22",
    "a13 + a14 - a24 | b34 + b42 - b32 | c41 - c22",
    "a13 - a23 + a33 + a14 - a24 - a25 + a35 | b12 - b32 + b34 | c22",
    "a13 + a14 | -(b42 + b35) | c31 - c21 - c22 + c23 - c33 + c43",
    "a13 + a15 + a22 + a33 + a35 - a12 - a23 | b31 | c21 + c11 + c41",
    "a23 + a32 - a13 - a22 - a14 - a33 - a34 | b33 | c23 - c33 + c43",
    "a11 - a21 + a31 + a14 - a24 - a25 + a35 | b14 | c52 - c42",
    "a11 - a21 + a31 - a12 + a22 + a15 + a35 | b11 | c11 + c51",
    "a21 + a32 - a11 - a14 - a22 - a31 - a34 | b13 | c53 - c33",
    "a22 - a23 | b22 | c11 + c12 + c21 + c22 + c23 - c32 - c33 + c41 + c42 + c43",
    "a31 + a35 | -b55 | c11 - c13 + c42 + c43 + c51 - c52 - c53",
    "a11 + a14 | b35 - b45 | c31 - c33 + c41 + c42 - c51 - c52 + c53",
    "a22 - a21 | b25 | c11 + c12 - c32 - c33 + c51 + c52 + c53",
    "a33 + a35 | -b52 | c11 + c21 + c41 - c22 - c13 - c23",
    "a22 - a32 + a24 | b22 + b13 + b23 + b33 - b24 | c32",
    "a12 + a14 + a34 | -(b41 + b13 + b33 - b43) | c31",
    "a15 | b41 + b51 - b52 - b55 | c11 + c41 - c13",
    "a25 | b22 - b24 + b54 + b55 | c12 + c42 + c43",
    "a25 - a35 | b12 + b14 - b32 + b34 + b52 + b53 - b54 | c43",
    "a32 | b21 - b53 | c13",
    "a12 | -(-b21 + b41 + b22 + b25) | c11 + c12",
    "a32 | b22 + b23 - b53 + b25 | c32 + c33",
    "a34 | b42 + b43 + b53 + b45 | c33 - c31",
    "a13 | b32 - b31 - b42 | c21 + c41",
    "a33 | b32 + b33 + b35 - b12 - b52 | c23 + c43",
    "a23 | b22 + b34 | c22 + c42",
    "a31 | b13 + b15 - b55 | c53",
    "a21 | b14 + b15 + b25 - b35 | c52",
    "a11 | b12 + b15 + b35 - b11 - b45 | c51",
    "a34 | b44 + b53 - b42 | c43",
    "a15 + a35 | -(b11 + b31 - b51 + b53) | c13",
    "a22 - a12 | b11 + b21 + b31 + b22 - b24 | c12",
    "a31 + a33 | b12 | c23",
    "a21 + a23 + a24 - a11 - a13 - a14 | b12 | c51 - c21",
    "a21 + a23 + a24 | b35 | c51 + c52 - c21 - c22",
    "a33 + a34 | b35 | c53 - c23 - c43",
    "a12 | b13 + b23 + b33 - b43 | c31 + c41 + c32 + c42",
    "a24 + a15 - a14 - a25 | b54 + b55 - b51 | c12",
    "a32 - a34 + a35 | b53 | c13 + c33 + c43",
]

TEPS = [
    "a11 - a22 e^3 | b12 - b21 - b11 e^3 | c21 + c12 e^-3",
    "a11 + a52 e^3 | b41 + b51 - b31 + b15 e^-2 + b21 e^-3 - b13 e^-3 | c15 + c51 e^2",
    "a11 + a53 + a52 e^3 | b13 + b31 e^3 | c31 + c51 e^-1 + c15 e^-3",
    "a41 - a43 + a55 e^-3 | b34 + b53 e^3 | c35 - c44 - c45 e^3",
    "a11 - a54 + a51 e + a52 e^3 | b14 - b41 e^3 | c41 + c15 e^-3",
    "a21 + a54 | b42 - b45 e^-1 + b14 e^-3 | c25 + c42 e^3",
    "a21 - a53 | b13 + b35 e^2 - b32 e^3 | c32 + c52 e^-1 + c25 e^-3",
    "a22 + a45 | b55 + b23 e^-3 | c54 + c32 e^3",
    "a32 + a44 | b41 + b24 e^-3 | c14 + c43 e^3",
    "a12 + a43 | b32 + b25 e^-3 | c24 + c51 e^3",
    "a22 + a41 | b15 + b22 e^-3 | c54 + c22 e^3",
    "a43 - a52 | b33 + b25 e^-3 | c34 - c55 e^3",
    "a45 - a32 | b51 + b23 e^-3 | c14 - c33 e^3",
    "a41 - a32 | b11 + b22 e^-3 | c14 - c23 e^3",
    "a22 + a44 | b45 - b24 e^-3 | c54 - c42 e^3",
    "a41 + a52 | b13 - b22 e^-3 | c34 - c25 e^3",
    "a12 + a44 | b42 - b24 e^-3 | c24 - c41 e^3",
    "a32 + a43 | b31 - b25 e^-3 | c14 - c53 e^3",
    "a44 - a52 | b43 - b24 e^-3 | c34 + c45 e^3",
    "a45 - a12 | b52 - b23 e^-3 | c24 + c31 e^3",
    "a51 e^-2 - a31 e^-3 - a53 e^-3 | b13 | c15 + c55 e - c53 e^2 - c33 e^3",
    "a31 - a54 | b14 | c43 - c15 e^-3 - c55 e^-2",
    "a55 e^-3 - a11 e^-3 - a51 e^-2 - a52 | b14 + b15 e + b51 e^3 | c15",
    "a41 + a55 e^-3 | b14 + b34 - b54 + b15 e + b55 e^2 | c44",
    "a21 + a55 | -b14 e^-3 - b15 e^-2 - b55 e^-1 + b52 | c25",
    "a32 | b21 e^-3 + b22 e^-3 + b23 e^-3 - b24 e^-3 + b25 e^-3 - b41 | c14",
    "a51 + a54 e^-3 | b14 - b45 e^2 + b44 e^3 | c45",
    "a51 + a53 e^-3 | b13 + b34 + b35 e^2 + b33 e^3 | c35",
    "a52 | b33 + b43 - b13 - b53 + (b22 + b23 - b24 + b25) e^-3 | c34",
    "a12 | -(b32 + b42 - b12 - b52 + (b22 + b23 - b24 + b25) e^-3) | c24",
    "a22 | -(b15 + b45 + b55 - b35 + (b22 + b23 - b24 + b25) e^-3) | c54",
    "a53 | b13 + b35 e^2 | c32 - c33 - c31 + (c52 - c53 - c51) e^-1 + c55 e^-2 + (c25 - c35) e^-3",
    "a21 | b32 e^2 - b42 e^2 - b52 e^2 + b15 + b55 e + b45 e - b35 e + b12 e^-1 - b13 e^-1 | c52 + c25 e^-2",
    "a54 | b45 e^2 - b14 | c42 - c41 - c43 + c55 e^-2 + c25 e^-3 + c45 e^-3",
    "a55 | b14 e^-2 + b15 e^-1 + b55 | c25 e^-1 - c44 e^-1 + c55",
    "a42 + a22 e^-3 - a43 e^-3 | b25 - b35 e^3 | c54 + c52 e^3",
    "a45 + a52 - a42 e^3 | b23 - b53 e^3 | c35 - c34 e^-3",
    "a43 - a41 - a51 - a53 e^-3 - a55 e^-3 | b34 | c35 - c45 e^3",
    "a41 + a45 + a55 e^-3 | b54 + b53 e^3 | c44 + c45 e^3",
    "a42 + a12 e^-3 - a41 e^-3 | b22 - b12 e^3 | c24 + c21 e^3",
    "a31 - a55 | b14 e^-2 + b15 e^-1 | c15 e^-1 + c55",
    "a51 + a22 - a11 e^-3 - a21 e^-3 | b12 - b11 e^3 | c12",
    "a43 | b25 | c52 + c55 - c51 - c53 + (c14 + c54 - c24 - c34) e^-3",
    "a41 | -b22 | c22 + c25 - c21 - c23 + (c14 + c54 - c24 - c34) e^-3",
    "a45 | -b23 | c32 + c35 - c31 - c33 + (c14 + c54 - c24 - c34) e^-3",
    "a44 | -b24 | c43 + (c14 - c24 - c34 - c44 - c54) e^-3",
    "a11 | -b21 | c51 e^-1 + (c11 + c15 - c12) e^-3",
    "a31 | b11 | c13 + c55 - c53 e + c15 e^-1",
    "a21 - a51 e^3 | b12 | c22 - c52 e^-1 - c25 e^-3 + c12 e^-3",
    "a51 - a31 e^-1 | b15 + b11 e - b13 e^-1 | c55 - c53 e + c15 e^-1",
    "a42 - a44 e^-3 | b24 - b44 e^3 | c44 + c41 e^3 + c42 e^3 - c45 e^3",
    "a11 + a12 e^3 | b11 e^3 + b21 | c11 e^-3 + c21",
    "a32 - a42 e^3 | b11 - b31 + b51 - b21 e^-3 | c14 - c13 e^3",
    "a54 | b43 | c35",
    "a31 | b12 | c23",
]

TEPS_SUPPORT = (
    (True, True, False, False, False),
    (True, True, False, False, False),
    (True, True, False, False, False),
    (True, True, True, True, True),
    (True, True, True, True, True),
)

def schemes():
    """The bundled schemes by dataset name, rebuilt from their tables."""
    return {
        "strassen": build((2, 2, 2), "rational", STRASSEN),
        "3x5x5_58": build((3, 5, 5), "rational", R58),
        "teps": build((5, 5, 5), "laurent", TEPS, TEPS_SUPPORT),
    }


def main():
    built = schemes()
    ok = True
    for name, t in built.items():
        problems = check_dataset(name, t)
        print("%-10s rank %-3d %s" % (name, t.rank, "; ".join(problems) or "OK"))
        ok = ok and not problems
    if not ok:
        print("FAILED: fix the tables before shipping; nothing written", file=sys.stderr)
        return 1

    target = pathlib.Path(__file__).resolve().parent.parent / "src" / "fmmkit" / "data"
    target.mkdir(parents=True, exist_ok=True)
    for name, t in built.items():
        (target / (name + ".fmm")).write_text(write_tensor(t), encoding="utf-8")
    print("wrote %d files to %s" % (len(built), target))
    return 0


if __name__ == "__main__":
    sys.exit(main())
