"""The contract of qgame's value types: keyword construction, frozen
fields, equality and hashing where callers rely on them, and a repr
that shows the fields. None of them is a dataclass: they are defined
without code generated per class."""

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil

import numpy as np
import pytest

import qgame
from qgame import (
    FLIP,
    AngleTransform,
    ClassicalGame,
    EwlGame,
    GameFile,
    GameMapping,
    GridEquilibria,
    LiftedMapping,
    LiftReport,
    MixedProfile2x2,
    ParamGrid,
    StrategySpace,
    SU2Params,
)
from qgame._value import Record
from qgame.cli import RunReport
from qgame.lift import IdentityCheck, IdentitySuiteReport
from qgame.linalg import TWO_PI
from qgame.search import EpsEquilibrium

FULL = StrategySpace.FULL_SU2
LABELS = (("t", "b"), ("l", "r"))
PAYOFFS = [[(3.0, 3.0), (0.0, 5.0)], [(5.0, 0.0), (1.0, 1.0)]]
GAME = ClassicalGame(LABELS, PAYOFFS)
CHECK = IdentityCheck(name="(a)", max_error=0.0, passed=True)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


# type, keyword arguments, equality ("value", "identity" or None where
# nothing compares them), hashable, frozen, and the repr when it does not
# show every field
CASES = [
    (SU2Params, dict(theta=1.0, alpha=0.5, beta=2.0), "value", True, True, None),
    (ClassicalGame, dict(labels=LABELS, payoffs=PAYOFFS), "value", False, True,
     "ClassicalGame(players=2, shape=(2, 2))"),
    (GameMapping, dict(eta=(1, 0), phi=((1, 0), (0, 1))), "value", True, True, None),
    (ParamGrid, dict(theta=9, alpha=17, beta=3), "value", True, True, None),
    (EwlGame, dict(base=GAME, spaces=(FULL, FULL)), "identity", True, True,
     "EwlGame(base=ClassicalGame(players=2, shape=(2, 2)), "
     "spaces=(<StrategySpace.FULL_SU2: 'full'>, <StrategySpace.FULL_SU2: 'full'>))"),
    (AngleTransform, dict(reflect=True, alpha_shift=TWO_PI, beta_shift=math.pi), "value", True, True, None),
    (LiftedMapping, dict(eta=(1, 0), transforms=(FLIP, FLIP)), "value", True, True, None),
    (RunReport, dict(command="iso a b", seed=3, tolerances={"eps": 0.5}, lines=["x"], rows=(), verdict="v"),
     "value", False, False, None),
    (GameFile, dict(game=GAME, spaces=(FULL, FULL)), "value", False, True, None),
    (MixedProfile2x2, dict(p=0.25, q=1.0, continuum=True), "value", True, True, None),
    (EpsEquilibrium, dict(profile=(SU2Params(1.0), SU2Params(2.0)), eps=0.0, payoffs=(1.0, 2.0)),
     "value", True, True, None),
    (GridEquilibria, dict(angles=(np.zeros((2, 3)),), index=np.zeros((1, 1), dtype=int),
                          eps=np.zeros(1), payoffs=np.ones((1, 1))), None, False, True, None),
    (LiftReport, dict(passed=True, max_deviation=1e-15, space_escapes=(1,), samples=10, seed=7,
                      tolerance=1e-10), "value", True, True, None),
    (IdentityCheck, dict(name="(a)", max_error=0.0, passed=True), "value", True, True, None),
    (IdentitySuiteReport, dict(checks=(CHECK,), draws=5, seed=2, tolerance=1e-12), "value", True, True, None),
]
IDS = [case[0].__name__ for case in CASES]


def _classes() -> list[type]:
    """Every class defined in a qgame module (`__main__` runs the CLI
    when imported and defines none)."""
    found = []
    for mod in pkgutil.iter_modules(qgame.__path__):
        if mod.name != "__main__":
            module = importlib.import_module(f"qgame.{mod.name}")
            found += [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
    return found


def test_cases_cover_every_value_type():
    # the `Record` types with fields, and the named tuples
    found = {c for c in _classes() if (issubclass(c, Record) and c.__slots__) or hasattr(c, "_fields")}
    assert {case[0] for case in CASES} == found
    assert len(CASES) == 15


def test_no_class_is_a_dataclass():
    classes = _classes()
    assert SU2Params in classes and RunReport in classes
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []


@pytest.mark.parametrize("cls, kwargs, equality, hashable, frozen, shown", CASES, ids=IDS)
class TestValueType:
    def test_keyword_construction(self, cls, kwargs, equality, hashable, frozen, shown):
        value = cls(**kwargs)
        for k, v in kwargs.items():
            assert _same(getattr(value, k), v), k
        # the same fields by position
        assert all(_same(getattr(cls(*kwargs.values()), k), v) for k, v in kwargs.items())

    def test_assignment(self, cls, kwargs, equality, hashable, frozen, shown):
        value = cls(**kwargs)
        for k in kwargs:
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(value, k, getattr(value, k))
            else:
                setattr(value, k, getattr(value, k))
        with pytest.raises(AttributeError):
            value.not_a_field = 1

    def test_equality_and_hash(self, cls, kwargs, equality, hashable, frozen, shown):
        a, b = cls(**kwargs), cls(**kwargs)
        if equality == "value":
            assert a == b and not a != b
            assert a != object()
        elif equality == "identity":
            assert a == a and a != b
        if hashable:
            assert hash(a) == (hash(b) if equality == "value" else hash(a))
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_pickle_and_copy(self, cls, kwargs, equality, hashable, frozen, shown):
        value = cls(**kwargs)
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(again) is cls
            assert all(_same(getattr(again, k), v) for k, v in kwargs.items())

    def test_repr_shows_the_fields(self, cls, kwargs, equality, hashable, frozen, shown):
        text = repr(cls(**kwargs))
        if shown is None:
            fields = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
            shown = f"{cls.__name__}({fields})"
        assert text == shown


def test_values_differing_in_one_field_differ():
    assert SU2Params(1.0, 0.5) != SU2Params(1.0, 0.25)
    assert GameMapping((0, 1), ((0, 1), (1, 0))) != GameMapping((0, 1), ((0, 1), (0, 1)))
    assert ParamGrid(9, 17, 1) != ParamGrid(9, 17, 3)
    assert AngleTransform() != FLIP
    assert LiftedMapping((0, 1), (FLIP, FLIP)) != LiftedMapping((1, 0), (FLIP, FLIP))
    assert ClassicalGame(LABELS, PAYOFFS) != ClassicalGame(LABELS, np.zeros((2, 2, 2)))


def test_su2_params_equal_after_phase_reduction():
    a, b = SU2Params(1.0, TWO_PI, -TWO_PI), SU2Params(1.0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_values_of_different_types_differ():
    # same field values, another type
    assert ParamGrid(3, 1, 2) != SU2Params(3.0, 1.0, 2.0)
    assert SU2Params(1.0) != (1.0, 0.0, 0.0)
