"""The records of the package: constructors, attributes and reprs, and the
immutability, hashing and value equality of `Quaternion` and `Coin`."""

import copy
import math
import os
import pickle

import numpy as np
import pytest

from qqwalk import (
    Coin,
    CompareResult,
    Distribution,
    EigenPair,
    LimitDensity,
    MoveOperators,
    PathSum,
    Quaternion,
    WalkState,
    hadamard_coin,
    limit_compare,
)
from qqwalk.coin import load_coin

S = math.sqrt(0.5)

# class, field names, one value per field
RECORDS = [
    (Coin, ("a", "b", "c", "d"), (Quaternion(S), Quaternion(S), Quaternion(S), Quaternion(-S))),
    (MoveOperators, ("p", "q"), (np.zeros((2, 2, 4)), np.ones((2, 2, 4)))),
    (PathSum, ("l", "m", "matrix"), (2, 5, [[[0.0] * 4] * 2] * 2)),
    (EigenPair, ("theta", "lam", "value", "vector", "residual"),
     (0.4, 0.5, complex(math.cos(0.5), math.sin(0.5)), np.eye(4)[0], 1e-16)),
    (LimitDensity, ("r", "g"), (0.5, 1.25)),
    (CompareResult, ("kolmogorov", "r", "g", "weight_c"), (0.01, 0.5, 1.25, -0.3)),
    (WalkState, ("n", "phi"), (1, np.zeros((2, 4), dtype=complex))),
    (Distribution, ("n", "probs"), (2, [0.25, 0.5, 0.25])),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_constructors(cls, names, values):
    for rec in (cls(*values), cls(**dict(zip(names, values)))):
        for name, value in zip(names, values):
            assert getattr(rec, name) is value


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_path_sum_position():
    assert PathSum(2, 5, []).position == 3


def test_quaternion_constructor_and_repr():
    assert Quaternion() == Quaternion(0.0, 0.0, 0.0, 0.0)
    q = Quaternion(x2=2.0, x0=1.0)
    assert (q.x0, q.x1, q.x2, q.x3) == (1.0, 0.0, 2.0, 0.0)
    assert repr(q) == "Quaternion(1.0, 0.0, 2.0, 0.0)"
    assert eval(repr(q)) == q


VALUE_RECORDS = [
    (lambda: Quaternion(1.0, 2.0, 3.0, 4.0), ("x0", "x1", "x2", "x3"),
     Quaternion(1.0, 2.0, 3.0, -4.0)),
    (hadamard_coin, ("a", "b", "c", "d"),
     Coin(Quaternion(S), Quaternion(S), Quaternion(-S), Quaternion(S))),
]


@pytest.mark.parametrize("make, names, other", VALUE_RECORDS, ids=("Quaternion", "Coin"))
def test_value_records_are_immutable(make, names, other):
    rec = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1.0
    assert rec == make()


@pytest.mark.parametrize("make, names, other", VALUE_RECORDS, ids=("Quaternion", "Coin"))
def test_value_records_hash_and_compare_by_value(make, names, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    assert a != other
    assert a != tuple(getattr(a, name) for name in names)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)


def test_library_example_prints_compare_result():
    # README's library example prints this repr
    coin = load_coin(os.path.join(os.path.dirname(__file__), os.pardir, "coins",
                                  "tracefree_ij.json"))
    printed = repr(limit_compare(coin, Quaternion(1), Quaternion(), 100))
    assert printed.startswith("CompareResult(kolmogorov=")
    assert ", r=" in printed and ", g=" in printed and ", weight_c=" in printed
