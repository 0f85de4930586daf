"""Command-line interface.

Exit codes: 0 success / verified, 1 verification or search failure
(including a multiply or count schedule whose scheme fails verification),
2 usage or input errors.  Reports go to stdout, diagnostics and the
search trace to stderr.
"""

import argparse
import functools
import sys

from .algebra import (
    IsotropyElement,
    direct_sum,
    embed_and_add,
    isotropy_apply,
    kronecker,
    mask_embedding,
    serendipity_find,
    serendipity_transform,
    symmetry_apply,
)
from .io import (
    TensorFormatError,
    load_matrix,
    load_tensor,
    save_matrix,
    save_tensor,
    write_matrix,
)
from .scalars import format_scalar, rational
from .tensor import (
    LAURENT,
    UnverifiedSchemeError,
    explain,
    type_polynomial,
    verify_approximate,
    verify_exact,
)


def _signature(t):
    m, n, p = t.dims
    return "<%d,%d,%d;%d> %s" % (m, n, p, t.rank, t.field_mode)


def _cmd_verify(args):
    t = load_tensor(args.file)
    if args.approx or t.field_mode == LAURENT:
        report = verify_approximate(t, mode=args.mode)
        ok = report.valid
    else:
        report = verify_exact(t)
        ok = report.passed
    print(report)
    if args.explain:
        for ((i, j), (j2, k), (k2, i2)), value, terms in explain(t, report, args.explain):
            print("(%d,%d),(%d,%d),(%d,%d) residual %s terms %s" % (
                i, j, j2, k, k2, i2, format_scalar(value),
                ",".join(map(str, terms)) or "none"))
    return 0 if ok else 1


def _nonnegative_int(text):
    """argparse type of a non-negative integer option."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _cmd_type(args):
    t = load_tensor(args.file)
    print(type_polynomial(t))
    return 0


def _require(args, names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise ValueError(
            "--op %s requires %s" % (args.op, ", ".join("--" + n for n in missing))
        )


def _cmd_compose(args):
    files = [s for s in args.inputs.split(",") if s]
    tensors = [load_tensor(f) for f in files]

    def one():
        if len(tensors) != 1:
            raise ValueError("--op %s takes exactly one input file" % args.op)
        return tensors[0]

    def two():
        if len(tensors) != 2:
            raise ValueError("--op %s takes exactly two input files" % args.op)
        return tensors

    if args.op == "dsum":
        t1, t2 = two()
        out = direct_sum(t1, t2, axis=args.axis)
    elif args.op == "kron":
        t1, t2 = two()
        out = kronecker(t1, t2)
    elif args.op == "rotate":
        out = symmetry_apply(one(), rotation=args.steps % 3)
    elif args.op == "transpose":
        out = symmetry_apply(one(), transpose=True)
    elif args.op == "isotropy":
        _require(args, ["u", "v", "w"])
        g = IsotropyElement(
            load_matrix(args.u), load_matrix(args.v), load_matrix(args.w)
        )
        out = isotropy_apply(one(), g)
    elif args.op == "serendipity":
        t = one()
        groups = serendipity_find(t, up_to_scale=args.up_to_scale)
        if args.group is None:
            for k, g in enumerate(groups, start=1):
                terms = ",".join(str(i + 1) for i in g.term_indices)
                print("group %d: slot %s terms %s" % (k, g.slot, terms))
            print("%d groups" % len(groups))
            return 0
        if not 1 <= args.group <= len(groups):
            raise ValueError(
                "--group %d out of range; tensor has %d groups"
                % (args.group, len(groups))
            )
        _require(args, ["mix"])
        out = serendipity_transform(t, groups[args.group - 1], load_matrix(args.mix))
    else:  # embed: argparse's choices admit no other --op
        partial, block = two()
        out = embed_and_add(partial, block, mask_embedding(partial))

    print(_signature(out))
    if args.out:
        save_tensor(out, args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    return 0


def _load_schedule(spec):
    """The schedule's tensors; a path named more than once is parsed once,
    so its levels are one object, which the schedule check verifies once."""
    files = [s for s in spec.split(",") if s]
    if not files:
        raise ValueError("--schedule needs at least one tensor file")
    loaded = {f: load_tensor(f) for f in dict.fromkeys(files)}
    return [loaded[f] for f in files]


def _cmd_multiply(args):
    from .evaluate import MultiplicationCounter, multiply_recursive

    levels = _load_schedule(args.schedule)
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    counter = MultiplicationCounter()
    C = multiply_recursive(levels, A, B, counter)
    if args.out:
        save_matrix(C, args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    else:
        sys.stdout.write(write_matrix(C))
    print("multiplications %d" % counter.count, file=sys.stderr)
    return 0


def _cmd_count(args):
    from .evaluate import count_multiplications

    levels = _load_schedule(args.schedule)
    print(count_multiplications(levels))
    return 0


def _cmd_errscan(args):
    import numpy as np

    from .evaluate import epsilon_error_scan

    t = load_tensor(args.file)
    eps_values = [float(s) for s in args.eps.split(",") if s]
    m, n, p = t.dims
    rng = np.random.default_rng(args.seed)
    A = rng.uniform(-1.0, 1.0, (m, n))
    B = rng.uniform(-1.0, 1.0, (n, p))
    for i, j in t.masked_out():
        A[i, j] = 0.0
    scan = epsilon_error_scan(t, A, B, eps_values)
    print(scan)
    return 0


def _parse_grid(spec):
    vals = [rational(s, "--grid value") for s in spec.split(",") if s]
    if not vals:
        raise ValueError("--grid needs at least one rational value")
    return tuple(vals)


def _cmd_search(args):
    from .search import DEFAULT_GRID, SearchConfig, search

    cfg = SearchConfig(
        dims=tuple(args.dims),
        rank=args.rank,
        snap_grid=DEFAULT_GRID if args.grid is None else _parse_grid(args.grid),
        max_sweeps=args.max_sweeps,
        restarts=args.restarts,
        seed=args.seed,
        allow_large=args.allow_large,
    )
    res = search(cfg, progress=lambda line: print(line, file=sys.stderr))
    for sweep, residual, lam in res.trace:
        print("sweep %d residual %.17g lambda %.17g" % (sweep, residual, lam), file=sys.stderr)
    if res.rationalized is None:
        print("no verified decomposition; best residual %.17g" % res.best_residual)
        return 1
    t = res.rationalized
    print("found verified %s" % _signature(t))
    if args.out:
        save_tensor(t, args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first call and kept for the
    process: parse_args reads it and changes nothing in it, so in-process
    callers of main (tests, the benchmark) skip rebuilding every
    subcommand's parser on each call."""
    ap = argparse.ArgumentParser(
        prog="fmmkit",
        description="Workbench for exact and approximate matrix-multiplication tensors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a tensor against its multiplication equations")
    p.add_argument("file")
    p.add_argument("--approx", action="store_true", help="force approximate verification")
    p.add_argument("--mode", choices=("strict", "scaled"), default="strict")
    p.add_argument("--explain", type=_nonnegative_int, metavar="K",
                   help="list the first K failing equations: 0-based coordinates, "
                        "residual and the 1-based terms touching each")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("type", help="print the type polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("compose", help="combine or transform tensors")
    p.add_argument(
        "--op",
        required=True,
        choices=("dsum", "kron", "rotate", "transpose", "isotropy", "serendipity", "embed"),
    )
    p.add_argument("--inputs", required=True, help="comma-separated tensor files")
    p.add_argument("--axis", choices=("M", "N", "P"), default="M", help="dsum axis")
    p.add_argument("--steps", type=int, default=1, help="rotate steps")
    p.add_argument("--u", help="isotropy U matrix file")
    p.add_argument("--v", help="isotropy V matrix file")
    p.add_argument("--w", help="isotropy W matrix file")
    p.add_argument("--up-to-scale", action="store_true", help="serendipity grouping up to scale")
    p.add_argument("--group", type=int, help="serendipity group number (1-based) to transform")
    p.add_argument("--mix", help="serendipity mixing matrix file")
    p.add_argument("--out", help="write the result tensor here")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("multiply", help="multiply two matrices through a schedule of tensors")
    p.add_argument("--schedule", required=True, help="comma-separated tensor files, outer first")
    p.add_argument("--a", required=True, help="left matrix file")
    p.add_argument("--b", required=True, help="right matrix file")
    p.add_argument("--out", help="write the product here instead of stdout")
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("count", help="print the scalar multiplication count of a schedule")
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("errscan", help="numeric error scan of an approximate tensor")
    p.add_argument("file")
    p.add_argument("--eps", default="3e-2,1e-2,3e-3,1e-3,3e-4", help="comma-separated decreasing values")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_errscan)

    p = sub.add_parser("search", help="regularized ALS search for a decomposition")
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("M", "N", "P"))
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--max-sweeps", type=int, default=2000)
    p.add_argument("--grid", help="comma-separated snap grid rationals")
    p.add_argument("--allow-large", action="store_true", help="lift the desk-size and sweep-count caps")
    p.add_argument("--out", help="write the rationalized tensor here")
    p.set_defaults(func=_cmd_search)

    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UnverifiedSchemeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (TensorFormatError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
