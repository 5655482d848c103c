"""Which entry points import numpy: each test checks the rows of
`test_lean_imports.ROWS` that hold its rule, every row run once.

Only the column kernels, the sampler, `vf_jacobian` and the `Trajectory`
arrays need numpy, so `verify` loads it; importing the package, loading
a spec, `simulate`, `list-models`, `export-model`, `--help`, usage
errors and a trajectory's `repr` must not.  No command loads
numpy.random: the sampler draws its stream itself.
"""

import pytest

from test_lean_imports import check


def test_import_and_spec_loading_leave_numpy_out():
    check("spec-loading")


@pytest.mark.parametrize(
    "row",
    ["simulate-rk4", "simulate-rkf45", "list-models", "export-model",
     "help", "missing-argument", "method-flag"],
)
def test_commands_that_need_no_arrays_leave_numpy_out(row):
    check(row)


def test_verify_imports_numpy():
    check("verify")


@pytest.mark.parametrize("row", ["verify", "analyze"])
def test_sampling_commands_leave_numpy_random_out(row):
    check(row)


def test_the_repr_of_an_integrated_trajectory_leaves_numpy_out():
    check("trajectory-repr")
