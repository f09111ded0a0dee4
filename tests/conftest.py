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
    """``_simplex.c`` compiled with the flags setup.py gives, warnings as errors, in a temp dir."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("kernel")
    source = Path(homproj.__file__).with_name("_simplex.c")
    subprocess.run(
        ["gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror",
         str(source), "-o", str(out / "_simplex_c.so")],
        check=True,
    )
    return Kernel(out)


@pytest.fixture
def kernel(request, monkeypatch):
    """The LP kernel a byte gate runs on: the active backend, or ``c_kernel``.

    Parametrize "kernel" indirectly with "c" to patch the gcc-built kernel into
    ``homproj.lp`` for the test (skipped without gcc); ``cli.main`` runs in-process,
    so the CLI solves on it too. Unparametrized, the active backend is used.
    """
    if getattr(request, "param", "active") == "c":
        monkeypatch.setattr(homproj.lp, "_kernel", request.getfixturevalue("c_kernel"))
    return homproj.lp._kernel
