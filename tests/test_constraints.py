import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invot import (
    Box,
    Composite,
    LinearAffinity,
    NoConstraint,
    SymmetricZeroDiag,
    prox_symmetric_zero_diag,
)
from invot.errors import BadBounds, NonSquare, RankDeficient


class TestSymmetricZeroDiag:
    def test_formula(self):
        assert np.array_equal(prox_symmetric_zero_diag([[1.0, 2.0], [4.0, 5.0]]),
                              np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert np.array_equal(prox_symmetric_zero_diag([[0.0, 2.0], [4.0, 0.0]]),
                              np.array([[0.0, 3.0], [3.0, 0.0]]))

    def test_idempotent_on_members(self, rng):
        c = rng.normal(size=(5, 5))
        c = prox_symmetric_zero_diag(c)
        assert np.array_equal(prox_symmetric_zero_diag(c), c)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            prox_symmetric_zero_diag(np.zeros((2, 3)))

    def test_positively_homogeneous(self, rng):
        c = rng.normal(size=(4, 4))
        assert np.allclose(prox_symmetric_zero_diag(2.0 * c),
                           2.0 * prox_symmetric_zero_diag(c), atol=0)


class TestBox:
    def test_interior_unchanged(self, rng):
        c = rng.uniform(0.2, 0.8, size=(3, 3))
        assert np.array_equal(Box(0.0, 1.0).prox(c), c)

    def test_clamp(self):
        got = Box(0.0, 1.0).prox([[-1.0, 0.5], [2.0, 3.0]])
        assert np.array_equal(got, np.array([[0.0, 0.5], [1.0, 1.0]]))

    def test_bad_bounds(self):
        with pytest.raises(BadBounds):
            Box(1.0, 0.0)

    def test_composition_preserves_symmetry(self, rng):
        c = rng.normal(size=(4, 4))
        sym = prox_symmetric_zero_diag(c)
        clamped = Box(0.0, 1.0).prox(sym)
        assert np.array_equal(clamped, clamped.T)
        assert np.all(np.diag(clamped) == 0)


def project(chat, G, D, sign=1):
    """(projected cost, affinity A) of chat under LinearAffinity(G, D, sign)."""
    constraint = LinearAffinity(G, D, sign)
    return constraint.prox(chat), constraint.affinity(chat)


class TestLinearAffinity:
    def test_identity_features_are_transparent(self, rng):
        chat = rng.normal(size=(3, 4))
        c, A = project(chat, np.eye(3), np.eye(4), sign=1)
        assert np.allclose(A, chat, atol=1e-12)
        assert np.allclose(c, chat, atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_recovers_planted_affinity(self, sign, rng):
        G = rng.normal(size=(4, 8))
        D = rng.normal(size=(3, 6))
        A0 = rng.normal(size=(4, 3))
        chat = sign * (G.T @ A0 @ D)
        c, A = project(chat, G, D, sign=sign)
        assert np.abs(A - A0).max() <= 1e-10
        assert np.abs(c - chat).max() <= 1e-10

    def test_matches_normal_equations_oracle(self, rng):
        # oracle: vectorized least squares min_A ||chat - G^T A D||_F
        G = rng.normal(size=(3, 7))
        D = rng.normal(size=(2, 5))
        chat = rng.normal(size=(7, 5))
        M = np.kron(D.T, G.T)  # maps vec(A) (column stacking) to vec(G^T A D)
        a, *_ = np.linalg.lstsq(M, chat.flatten(order="F"), rcond=None)
        A_oracle = a.reshape((3, 2), order="F")
        c, A = project(chat, G, D, sign=1)
        assert np.abs(A - A_oracle).max() <= 1e-8
        assert np.abs(c - G.T @ A_oracle @ D).max() <= 1e-8

    @pytest.mark.parametrize("sign", [0, 2])
    def test_sign_other_than_plus_or_minus_one_rejected(self, sign):
        with pytest.raises(BadBounds, match="sign"):
            LinearAffinity(np.eye(2), np.eye(2), sign)

    def test_rank_deficiency_rejected(self, rng):
        G = np.ones((2, 5))
        with pytest.raises(RankDeficient):
            LinearAffinity(G, rng.normal(size=(2, 4)))
        with pytest.raises(RankDeficient):
            LinearAffinity(rng.normal(size=(6, 4)), rng.normal(size=(2, 4)))


class TestConstraintObjects:
    def test_no_constraint_is_identity(self, rng):
        c = rng.normal(size=(3, 3))
        assert np.array_equal(NoConstraint().prox(c), c)

    def test_composite_applies_in_order(self, rng):
        c = rng.normal(size=(4, 4)) * 3
        combo = Composite([SymmetricZeroDiag(), Box(0.0, 1.0)])
        expect = Box(0.0, 1.0).prox(prox_symmetric_zero_diag(c))
        assert np.array_equal(combo.prox(c), expect)


class TestSplit:
    """prox = tail(P(.)) with P linear; P(alpha + beta) comes from prox_sum."""

    @pytest.mark.parametrize("name", ["none", "sym0", "box", "sym0_box",
                                      "box_sym0", "affinity_8x6"])
    def test_split_reproduces_prox(self, rng, name):
        m, n = (8, 6) if name == "affinity_8x6" else (5, 5)
        constraint = {
            "none": NoConstraint(),
            "sym0": SymmetricZeroDiag(),
            "box": Box(0.1, 0.5),
            "sym0_box": Composite([SymmetricZeroDiag(), Box(0.1, 2.0)]),
            "box_sym0": Composite([Box(0.0, 0.5), SymmetricZeroDiag()]),
            "affinity_8x6": LinearAffinity(rng.normal(size=(3, m)),
                                           rng.normal(size=(2, n)), -1),
        }[name]
        alpha, beta = rng.normal(size=m), rng.normal(size=n)
        L = rng.uniform(0.0, 1.0, size=(m, n))
        head, tail = constraint.split()
        # a first part that is not linear leaves P the identity
        assert type(head) is {"box": NoConstraint, "box_sym0": NoConstraint,
                              "sym0_box": SymmetricZeroDiag}.get(name, type(constraint))
        c = np.empty((m, n))
        head.prox_sum(alpha, beta, out=c)
        c += head.prox(L)
        for part in tail:
            assert part.prox_(c) is c
        want = constraint.prox(np.add.outer(alpha, beta) + L)
        assert np.abs(c - want).max() <= 1e-12 * np.abs(want).max()


matrices_4x4 = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=16, max_size=16).map(lambda v: np.array(v).reshape(4, 4))


@settings(max_examples=250, deadline=None)
@given(x=matrices_4x4, y=matrices_4x4)
def test_proxes_idempotent_and_nonexpansive(x, y):
    fixed_G = np.array([[1.0, 0.5, 0.0, 0.2], [0.0, 1.0, -1.0, 0.3]])
    fixed_D = np.array([[0.7, 0.0, 1.0, 0.0], [0.2, 1.0, 0.0, -0.5]])
    proxes = [
        prox_symmetric_zero_diag,
        lambda c: Box(0.0, 1.0).prox(c),
        LinearAffinity(fixed_G, fixed_D).prox,
    ]
    for prox in proxes:
        px, py = prox(x), prox(y)
        assert np.abs(prox(px) - px).max() <= 1e-12
        assert (np.linalg.norm(px - py)
                <= np.linalg.norm(x - y) + 1e-12)
