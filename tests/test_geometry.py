import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homproj import (
    BadDims,
    DependentInput,
    DimensionMismatch,
    Frame,
    frame_containing,
    orthonormalize,
    project_point,
    random_frame,
)

finite_coord = st.floats(-1e6, 1e6, allow_nan=False)


def test_orthonormalize_independent_pair():
    F = orthonormalize([[1, 0, 0], [1, 1, 0]])
    assert np.allclose(F.basis, [[1, 0, 0], [0, 1, 0]])


def test_orthonormalize_normalizes_single_vector():
    F = orthonormalize([[2, 0]])
    assert np.allclose(F.basis, [[1, 0]])


def test_orthonormalize_rejects_collinear():
    with pytest.raises(DependentInput):
        orthonormalize([[1, 0], [2, 0]])


def test_gram_matrix_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        F = orthonormalize(rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4))
        gram = F.basis @ F.basis.T
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-12


def test_project_point_axis_frame():
    F = Frame(np.array([[1.0, 0, 0], [0, 0, 1.0]]))
    assert np.allclose(project_point(F, np.array([3.0, 4.0, 5.0])), [3, 5])


def test_project_point_full_frame_is_isometry():
    rng = np.random.default_rng(3)
    F = random_frame(4, 4, 11)
    p = rng.standard_normal(4)
    assert np.linalg.norm(project_point(F, p)) == pytest.approx(np.linalg.norm(p))


def test_project_point_diagonal_direction():
    F = Frame(np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2))
    assert project_point(F, np.array([1.0, 1.0, 0.0]))[0] == pytest.approx(np.sqrt(2))


def test_project_point_dimension_mismatch():
    F = Frame(np.eye(2))
    with pytest.raises(DimensionMismatch):
        project_point(F, np.array([1.0, 2.0, 3.0]))


def test_random_frame_deterministic_and_orthonormal():
    F1 = random_frame(3, 2, 42)
    F2 = random_frame(3, 2, 42)
    assert np.array_equal(F1.basis, F2.basis)
    assert np.max(np.abs(F1.basis @ F1.basis.T - np.eye(2))) <= 1e-12


def test_random_frame_bad_dims():
    with pytest.raises(BadDims):
        random_frame(2, 3, 0)


def test_frame_containing_reconstructs_subspace():
    S = Frame(np.array([[0.0, 0.0, 1.0]]))
    F = frame_containing(S, 2, 5)
    for row in S.basis:
        recon = F.basis.T @ (F.basis @ row)
        assert np.linalg.norm(recon - row) <= 1e-10


def test_frame_containing_same_dim_is_identity():
    S = random_frame(4, 2, 9)
    assert frame_containing(S, 2, 1) is S


def test_frame_containing_bad_dims():
    S = random_frame(3, 2, 0)
    with pytest.raises(BadDims):
        frame_containing(S, 1, 0)


def test_frame_sampler_bits_are_pinned():
    # every seeded sweep report is computed from these bases, so no change to
    # the samplers may move a bit of them
    digest = hashlib.sha256()
    for n in range(1, 6):
        for m in range(1, n + 1):
            for seed in range(3):
                digest.update(random_frame(n, m, seed).basis.tobytes())
                for r in range(1, m + 1):
                    sub = random_frame(n, r, seed + 10)
                    digest.update(frame_containing(sub, m, seed).basis.tobytes())
    assert digest.hexdigest() == (
        "9b1c3e8449595f5baf57ce9558f8b1935642f3e35ccaee2f36a4e64ba3815644"
    )


def test_projection_composition():
    # L inside M: projecting via M then onto L (in M-coordinates) must equal
    # projecting onto L directly
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(3, 7))
        mdim = int(rng.integers(2, n))
        ldim = int(rng.integers(1, mdim + 1))
        M = random_frame(n, mdim, 100 + trial)
        L_in_M = random_frame(mdim, ldim, 200 + trial)
        L = Frame(L_in_M.basis @ M.basis)
        p = rng.standard_normal(n)
        direct = project_point(L, p)
        composed = project_point(L_in_M, project_point(M, p))
        assert np.max(np.abs(direct - composed)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-100, 100, allow_nan=False),
    p=st.lists(finite_coord, min_size=3, max_size=3),
    q=st.lists(finite_coord, min_size=3, max_size=3),
    seed=st.integers(0, 2**31),
)
# rounding at coordinates ~5e4 puts these projections 3.6e-12 apart, |p - q| = 1e-12
@example(a=0.0, p=[0.0, 0.0, 51090.0], q=[0.0, 1e-12, 51090.0], seed=57048)
def test_projection_linearity_and_nonexpansiveness(a, p, q, seed):
    F = random_frame(3, 2, seed)
    p = np.array(p)
    q = np.array(q)
    lin = project_point(F, a * p + q)
    split = a * project_point(F, p) + project_point(F, q)
    bound = 1e-10 * max(1.0, abs(a)) * max(1.0, np.linalg.norm(p), np.linalg.norm(q))
    assert np.max(np.abs(lin - split)) <= bound
    assert np.linalg.norm(project_point(F, p) - project_point(F, q)) <= (
        np.linalg.norm(p - q) + 1e-12 * (np.linalg.norm(p) + np.linalg.norm(q))
    )
