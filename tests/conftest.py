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
def c_build(tmp_path_factory):
    """Builds ``_simplex.c`` at an optimization level ("-O2", say) with -ffp-contract=off, as
    setup.py gives it, and warnings as errors, each in a temp dir: the function from the level to
    the path of the ``_simplex_c.so`` it writes."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    source = Path(homproj.__file__).with_name("_simplex.c")

    def build(level):
        library = tmp_path_factory.mktemp("kernel") / "_simplex_c.so"
        subprocess.run(
            ["gcc", level, "-shared", "-fPIC", "-ffp-contract=off", "-Wall", "-Wextra", "-Werror",
             str(source), "-o", str(library)],
            check=True,
        )
        return library

    return build


@pytest.fixture(scope="session")
def c_library(c_build):
    """The ``c_build`` at -O2: the path of its ``_simplex_c.so``."""
    return c_build("-O2")


@pytest.fixture(scope="session")
def c_kernel(c_library):
    """The ``c_library`` build loaded as a ``Kernel``."""
    return Kernel(c_library.parent)


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
