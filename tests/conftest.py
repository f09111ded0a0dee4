import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import homproj
from homproj import extreme_points
from homproj._simplex_ctypes import Kernel


@pytest.fixture
def square():
    return extreme_points([[0, 0], [1, 0], [0, 1], [1, 1]])


@pytest.fixture
def triangle():
    return extreme_points([[0, 0], [1, 0], [0, 1]])


@pytest.fixture
def cube():
    return extreme_points([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def octahedron():
    return extreme_points(np.vstack([np.eye(3), -np.eye(3)]))


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    """``_simplex.c`` compiled with the flags setup.py gives, in a temp dir."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("kernel")
    source = Path(homproj.__file__).with_name("_simplex.c")
    subprocess.run(
        ["gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off",
         str(source), "-o", str(out / "_simplex_c.so")],
        check=True,
    )
    return Kernel(out)
