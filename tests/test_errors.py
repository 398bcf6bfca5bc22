"""One contract for every public scalar parameter.

Each integer goes through errors._int and each number through
errors._number, so every one refuses a bool, a str, None, NaN, +-Inf, a
value past its bound and, where an integer belongs, any float, with
InvalidArgumentError and never with a TypeError or numpy's ValueError;
a number refuses an int beyond the float range too.  Python values and
numpy scalars within the bound are accepted.
"""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttapprox import (
    BenchPlan,
    InvalidArgumentError,
    SketchConfig,
    TruncationSpec,
    add_awgn,
    gaussian_matrix,
    power_function_tensor,
    spectrum_decay_tensor,
)

T33 = np.arange(1.0, 10.0).reshape(3, 3)


class Param(NamedTuple):
    call: Callable  # call(value) passes value to the parameter under test
    kind: str  # "int" or "number"
    low: float  # the least value accepted, or the bound a number must exceed
    strict: bool = False  # a number must exceed low
    none_ok: bool = False  # None is a value of the parameter


def plan(dataset=None, **over):
    d = dict(dataset={"kind": "spectrum", "n": 4, "T": 2, "D": 1.0}, methods=["svd"],
             ranks=[2], seeds=[0])
    if dataset is not None:
        d["dataset"] = dataset
    return BenchPlan.from_dict({**d, **over})


def spectrum(**over):
    return plan({"kind": "spectrum", "n": 4, "T": 2, "D": 1.0, **over})


def powerfn(**over):
    return plan({"kind": "powerfn", "dims": [3, 3], "h": 2.0, **over})


PARAMS = {
    "spectrum_decay_tensor n": Param(lambda v: spectrum_decay_tensor(v, 1, 1.0), "int", 1),
    "spectrum_decay_tensor T": Param(lambda v: spectrum_decay_tensor(3, v, 1.0), "int", 1),
    "spectrum_decay_tensor D": Param(lambda v: spectrum_decay_tensor(3, 1, v), "number", 0, True),
    "power_function_tensor dims": Param(lambda v: power_function_tensor((3, v), 2.0), "int", 1),
    "power_function_tensor h": Param(lambda v: power_function_tensor((3, 3), v), "number", 0, True),
    "add_awgn snr_db": Param(lambda v: add_awgn(T33, v, 0), "number", -math.inf),
    "add_awgn seed": Param(lambda v: add_awgn(T33, 5.0, v), "int", 0),
    "gaussian_matrix rows": Param(lambda v: gaussian_matrix(v, 2, 0), "int", 1),
    "gaussian_matrix cols": Param(lambda v: gaussian_matrix(2, v, 0), "int", 1),
    "gaussian_matrix seed": Param(lambda v: gaussian_matrix(2, 2, v), "int", 0),
    "TruncationSpec epsilon": Param(lambda v: TruncationSpec(epsilon=v), "number", 0),
    "SketchConfig p": Param(lambda v: SketchConfig((2,), p=v), "int", 0),
    "SketchConfig q": Param(lambda v: SketchConfig((2,), q=v), "int", 1),
    "SketchConfig seed": Param(lambda v: SketchConfig((2,), seed=v), "int", 0),
    "plan n": Param(lambda v: spectrum(n=v), "int", 1),
    "plan T": Param(lambda v: spectrum(T=v), "int", 1),
    "plan D": Param(lambda v: spectrum(D=v), "number", 0, True),
    "plan dims": Param(lambda v: powerfn(dims=[3, v]), "int", 1),
    "plan h": Param(lambda v: powerfn(h=v), "number", 0, True),
    "plan p": Param(lambda v: plan(p=v), "int", 0),
    "plan q": Param(lambda v: plan(q=v), "int", 1),
    "plan q entry": Param(lambda v: plan(q=[9, v]), "int", 1),
    "plan seeds entry": Param(lambda v: plan(seeds=[9, v]), "int", 0),
    "plan snr_db": Param(lambda v: plan(snr_db=v), "number", -math.inf, none_ok=True),
    "plan snr_db entry": Param(lambda v: plan(snr_db=[5.0, v]), "number", -math.inf, none_ok=True),
    "plan rank entry": Param(lambda v: plan(ranks=[v]), "int", 1),
    "plan rank list entry": Param(lambda v: plan(ranks=[[2, v]]), "int", 1),
}

# refused by every parameter (None where it is no value of the parameter)
NOT_NUMBERS = [True, False, np.True_, "1", "x", math.nan, math.inf, -math.inf, np.float64(np.nan)]


def below_bound(p: Param):
    """A strategy for the values past p's bound, Python and numpy."""
    if p.kind == "int":
        values = st.integers(-(2**62), int(p.low) - 1)
    else:
        values = st.floats(max_value=p.low, exclude_max=not p.strict, allow_nan=False)
    return values.flatmap(lambda x: st.sampled_from([x, np.asarray(x)[()]]))


def valid(p: Param):
    """A strategy for values p accepts: Python ints and floats and numpy
    scalars, small enough to keep each call cheap."""
    if p.kind == "int":
        ints = st.integers(int(p.low), int(p.low) + 3)
        return st.tuples(ints, st.sampled_from([int, np.int64, np.int32, np.uint8])).map(
            lambda a: a[1](a[0])
        )
    low = -50.0 if p.low == -math.inf else p.low + (0.01 if p.strict else 0.0)
    floats = st.tuples(st.floats(low, low + 10.0), st.sampled_from([float, np.float64, np.float32]))
    ints = st.tuples(st.integers(math.ceil(low), math.ceil(low) + 10), st.sampled_from([int, np.int64]))
    return (floats | ints).map(lambda a: a[1](a[0]))


@pytest.mark.parametrize("name", sorted(PARAMS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_scalar_parameter_takes_one_contract(name, data):
    p = PARAMS[name]
    refused = NOT_NUMBERS + ([] if p.none_ok else [None])
    if p.kind == "number":
        refused += [10**400, -(10**400)]
    else:  # a float where an integer belongs, integral or not
        refused.append(data.draw(st.floats().flatmap(lambda x: st.sampled_from([x, np.float64(x)]))))
    if p.low > -math.inf:
        refused.append(data.draw(below_bound(p)))
    for bad in refused:
        with pytest.raises(InvalidArgumentError):
            p.call(bad)
    if p.kind == "int":
        try:  # an int past any real size: refused if it is a size, else taken
            p.call(10**400)
        except InvalidArgumentError:
            pass
    p.call(data.draw(valid(p)))


def test_integer_sequences_go_through_the_integer_check():
    for bad in (3, "34", np.array(3)):  # None is TruncationSpec's "not set"
        with pytest.raises(InvalidArgumentError, match="dims must be a sequence"):
            power_function_tensor(bad, 2.0)
        with pytest.raises(InvalidArgumentError, match="rank must be a sequence"):
            SketchConfig(ranks=bad)
        with pytest.raises(InvalidArgumentError, match="rank must be a sequence"):
            TruncationSpec(ranks=bad)
    for call in (lambda: power_function_tensor(None, 2.0), lambda: SketchConfig(ranks=None)):
        with pytest.raises(InvalidArgumentError, match="must be a sequence"):
            call()
    assert SketchConfig(ranks=np.array([2, 3])).ranks == (2, 3)
    with pytest.raises(InvalidArgumentError, match="dims must be non-empty"):
        power_function_tensor([], 2.0)


def test_numbers_come_back_as_python_floats():
    assert TruncationSpec(epsilon=np.float32(0.5)).epsilon == 0.5
    assert type(TruncationSpec(epsilon=0).epsilon) is float
    assert spectrum(D=np.int64(2)).dataset["D"] == 2.0
    assert plan(snr_db=np.float64(5.5)).snr_db == [5.5]


def test_gaussian_matrix_refuses_a_bad_shape_or_seed_as_an_argument_error():
    # a float shape raised numpy's TypeError, a negative seed its ValueError
    for args in ((2.0, 3, 0), (2, 3, -1), (2, 3, "0"), (0, 3, 0), (2, 10**400, 0)):
        with pytest.raises(InvalidArgumentError):
            gaussian_matrix(*args)
    assert np.array_equal(gaussian_matrix(np.int64(2), 3, np.uint8(4)), gaussian_matrix(2, 3, 4))
