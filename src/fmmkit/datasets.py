"""Bundled tensors and their expected regression metadata.

Three multiplication schemes ship inside the package: Strassen's
<2,2,2;7>, the exact <3,5,5;58>, and the order-1 approximate <5,5,5;55>
partial scheme (masked A block).  Each carries an expected block (verify
status, rank, type polynomial) that check_dataset re-derives from scratch;
the tests run every bundled dataset through it as a standing regression,
and tools/make_bundled_data.py runs the tensors it rebuilds through it.
"""

from importlib import resources

from .io import parse_tensor
from .tensor import (
    LAURENT,
    RATIONAL,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

BUNDLED = ("strassen", "3x5x5_58", "teps")

_EXPECTED = {
    "strassen": {
        "dims": (2, 2, 2),
        "rank": 7,
        "field_mode": RATIONAL,
        "verify": "exact",
        "type": {(2, 2, 2): 1, (1, 1, 1): 6},
    },
    "3x5x5_58": {
        "dims": (3, 5, 5),
        "rank": 58,
        "field_mode": RATIONAL,
        "verify": "exact",
        "type": {
            (2, 2, 2): 17,
            (1, 4, 1): 2,
            (3, 2, 1): 1,
            (1, 2, 3): 1,
            (3, 1, 1): 5,
            (1, 1, 3): 5,
            (2, 2, 1): 2,
            (1, 2, 2): 2,
            (1, 3, 1): 1,
            (2, 1, 1): 1,
            (1, 1, 2): 1,
            (1, 2, 1): 13,
            (1, 1, 1): 7,
        },
    },
    "teps": {
        "dims": (5, 5, 5),
        "rank": 55,
        "field_mode": LAURENT,
        "verify": "approximate",
        "discrepancy_order": 1,
        "masked_entries": 9,
        "type": {
            (2, 2, 2): 20,
            (2, 2, 1): 3,
            (2, 1, 2): 2,
            (1, 2, 2): 4,
            (2, 1, 1): 7,
            (1, 2, 1): 6,
            (1, 1, 2): 8,
            (1, 1, 1): 5,
        },
    },
}


def dataset_names():
    return BUNDLED


def expected_info(name):
    if name not in _EXPECTED:
        raise KeyError("unknown dataset %r; bundled: %s" % (name, ", ".join(BUNDLED)))
    info = dict(_EXPECTED[name])
    info["type"] = dict(info["type"])
    return info


def dataset_text(name):
    if name not in _EXPECTED:
        raise KeyError("unknown dataset %r; bundled: %s" % (name, ", ".join(BUNDLED)))
    return (resources.files("fmmkit") / "data" / (name + ".fmm")).read_text()


def load_dataset(name):
    return parse_tensor(dataset_text(name))


def check_dataset(name, t=None):
    """Re-derive dataset name's expected block from t, the bundled tensor
    when omitted; returns a list of mismatch messages, empty when t passes."""
    info = expected_info(name)
    if t is None:
        t = load_dataset(name)
    problems = []
    if tuple(t.dims) != info["dims"]:
        problems.append("dims %r != expected %r" % (tuple(t.dims), info["dims"]))
    if t.rank != info["rank"]:
        problems.append("rank %d != expected %d" % (t.rank, info["rank"]))
    if t.field_mode != info["field_mode"]:
        problems.append(
            "field mode %s != expected %s" % (t.field_mode, info["field_mode"])
        )
    if info["verify"] == "exact":
        # only a rational tensor has an exact check; a Laurent one is
        # listed by its field mode above
        if t.field_mode == RATIONAL:
            report = verify_exact(t)
            if not report.passed:
                problems.append("verification failed: %s" % report)
    else:
        report = verify_approximate(t)
        if not report.valid:
            problems.append("approximate verification failed: %s" % report)
        elif report.discrepancy_order != info["discrepancy_order"]:
            problems.append(
                "discrepancy order %s != expected %d"
                % (report.discrepancy_order, info["discrepancy_order"])
            )
        masked = len(t.masked_out())
        if masked != info.get("masked_entries", 0):
            problems.append(
                "masked entries %d != expected %d"
                % (masked, info.get("masked_entries", 0))
            )
    ty = type_polynomial(t)
    if ty.as_dict() != info["type"]:
        problems.append("type polynomial %s != expected counts" % ty)
    if ty.total() != info["rank"]:
        problems.append("type coefficient sum %d != rank %d" % (ty.total(), info["rank"]))
    return problems
