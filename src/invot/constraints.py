"""Cost constraints and their proximal operators.

All constraints used here are indicator functions of convex sets, so each
prox is an orthogonal projection and takes no step size.
"""

from __future__ import annotations

import numpy as np

from .errors import BadBounds, NonSquare, RankDeficient
from .types import as_matrix


def prox_symmetric_zero_diag(chat) -> np.ndarray:
    """Project onto symmetric matrices with zero diagonal: (c + c^T)/2, zero diag."""
    c = as_matrix(chat)
    if c.shape[0] != c.shape[1]:
        raise NonSquare(f"expected square matrix, got {c.shape}")
    out = 0.5 * (c + c.T)
    np.fill_diagonal(out, 0.0)
    return out


def prox_box(chat, lower: float, upper: float) -> np.ndarray:
    """Entrywise clamp to [lower, upper]."""
    if not lower <= upper:
        raise BadBounds(f"lower {lower} exceeds upper {upper}")
    return np.clip(as_matrix(chat), lower, upper)


def _check_full_row_rank(mat, name):
    mat = np.asarray(mat, dtype=float)
    p, m = mat.shape
    if p > m:
        raise RankDeficient(f"{name} has more rows ({p}) than columns ({m})")
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise RankDeficient(f"{name} is not full row rank (sigma_min/sigma_max = "
                            f"{s[-1] / s[0]:.3e})")
    return mat


def prox_linear_affinity(chat, G, D, sign: int = 1):
    """Least-squares projection of chat onto {sign * G^T A D}.

    Returns (projected cost, affinity matrix A). G (p x m) and D (q x n) must
    have full row rank; A = sign * (G^+)^T chat D^+ and c = sign * G^T A D.
    """
    if sign not in (1, -1):
        raise BadBounds("sign convention must be +1 or -1")
    c = as_matrix(chat)
    G = _check_full_row_rank(G, "G")
    D = _check_full_row_rank(D, "D")
    Gp = np.linalg.pinv(G)
    Dp = np.linalg.pinv(D)
    A = sign * (Gp.T @ c @ Dp)
    return sign * (G.T @ A @ D), A


class Constraint:
    """Base class; prox(chat) returns the constrained cost."""

    def prox(self, chat) -> np.ndarray:
        raise NotImplementedError


class NoConstraint(Constraint):
    def prox(self, chat) -> np.ndarray:
        return np.array(as_matrix(chat), dtype=float)


class SymmetricZeroDiag(Constraint):
    def prox(self, chat) -> np.ndarray:
        return prox_symmetric_zero_diag(chat)


class Box(Constraint):
    def __init__(self, lower: float = 0.0, upper: float = np.inf):
        if not lower <= upper:
            raise BadBounds(f"lower {lower} exceeds upper {upper}")
        self.lower = float(lower)
        self.upper = float(upper)

    def prox(self, chat) -> np.ndarray:
        return prox_box(chat, self.lower, self.upper)


class LinearAffinity(Constraint):
    """Bilinear cost parameterization c = sign * G^T A D; rank-checked upfront."""

    def __init__(self, G, D, sign: int = 1):
        if sign not in (1, -1):
            raise BadBounds("sign convention must be +1 or -1")
        self.G = _check_full_row_rank(G, "G")
        self.D = _check_full_row_rank(D, "D")
        self.sign = sign
        self._Gp = np.linalg.pinv(self.G)
        self._Dp = np.linalg.pinv(self.D)

    def affinity(self, chat) -> np.ndarray:
        return self.sign * (self._Gp.T @ as_matrix(chat) @ self._Dp)

    def prox(self, chat) -> np.ndarray:
        A = self.affinity(chat)
        return self.sign * (self.G.T @ A @ self.D)


class Composite(Constraint):
    """Apply member proxes in declared order (e.g. symmetrize then clamp)."""

    def __init__(self, parts):
        self.parts = list(parts)

    def prox(self, chat) -> np.ndarray:
        out = as_matrix(chat)
        for part in self.parts:
            out = part.prox(out)
        return out
