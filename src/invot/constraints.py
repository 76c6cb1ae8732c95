"""Cost constraints and their proximal operators.

All constraints used here are indicator functions of convex sets, so each
prox is an orthogonal projection and takes no step size. The linear ones
also write prox(alpha_i + beta_j) in closed form (`prox_sum`).
"""

from __future__ import annotations

import numpy as np

from .errors import BadBounds, NonSquare, RankDeficient
from .types import _outer_sum, as_matrix


def prox_symmetric_zero_diag(chat) -> np.ndarray:
    """Project onto symmetric matrices with zero diagonal: (c + c^T)/2, zero diag."""
    c = as_matrix(chat)
    if c.shape[0] != c.shape[1]:
        raise NonSquare(f"expected square matrix, got {c.shape}")
    out = 0.5 * (c + c.T)
    np.fill_diagonal(out, 0.0)
    return out


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


class Constraint:
    """Base class; prox(chat) returns the constrained cost."""

    def prox(self, chat) -> np.ndarray:
        raise NotImplementedError

    def split(self):
        """(P, tail): prox is P, then each tail part; P is linear, no two tail boxes adjoin."""
        return (self, []) if hasattr(self, "prox_sum") else (NoConstraint(), [self])

    def prox_(self, c) -> np.ndarray:  # prox(c), written into c
        c[...] = self.prox(c)
        return c


class NoConstraint(Constraint):
    def prox(self, chat) -> np.ndarray:
        return np.array(as_matrix(chat), dtype=float)

    def prox_sum(self, alpha, beta, out) -> None:
        _outer_sum(alpha, beta, out)


class SymmetricZeroDiag(Constraint):
    def prox(self, chat) -> np.ndarray:
        return prox_symmetric_zero_diag(chat)

    def prox_sum(self, alpha, beta, out) -> None:
        """h_i + h_j off the diagonal with h = (alpha + beta)/2, written into out."""
        h = 0.5 * (alpha + beta)
        np.fill_diagonal(_outer_sum(h, h, out), 0.0)


class Box(Constraint):
    def __init__(self, lower: float = 0.0, upper: float = np.inf):
        if not lower <= upper:
            raise BadBounds(f"lower {lower} exceeds upper {upper}")
        self.lower = float(lower)
        self.upper = float(upper)

    def prox(self, chat) -> np.ndarray:
        return np.clip(as_matrix(chat), self.lower, self.upper)

    def prox_(self, c) -> np.ndarray:  # the method: np.clip's dispatch costs about 1 us
        return c.clip(self.lower, self.upper, out=c)


class LinearAffinity(Constraint):
    """Bilinear cost parameterization c = sign * G^T A D, G (p x m) and D (q x n)
    of full row rank (checked upfront); the prox is least squares, with
    A = sign * (G^+)^T chat D^+."""

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

    def prox_sum(self, alpha, beta, out) -> None:
        """[P_G alpha, P_G 1] [1^T P_D; beta^T P_D] into out, P_G = G^T G^+T, P_D = D^+ D."""
        left = self.G.T @ (self._Gp.T @ np.column_stack([alpha, np.ones(alpha.size)]))
        right = (np.vstack([np.ones(beta.size), beta]) @ self._Dp) @ self.D
        np.dot(left, right, out=out)


class Composite(Constraint):
    """Member proxes in declared order (e.g. symmetrize then clamp), run as the split
    built once: the linear head, then the tail in place. Adjacent boxes compose into one
    clamp, clip(x, clip(a, c, d), clip(b, c, d)), bit for bit unless that is [0, 0]."""

    def __init__(self, parts):
        self.parts = tuple(parts)
        self._head, self._tail = self.parts[0].split() if self.parts else (NoConstraint(), [])
        for part in self.parts[1:]:
            if isinstance(part, Box) and self._tail and isinstance(self._tail[-1], Box):
                prev, lo, hi = self._tail[-1], part.lower, part.upper
                box = Box(min(max(prev.lower, lo), hi), min(max(prev.upper, lo), hi))
                if box.lower or box.upper:  # at [0, 0] a zero's sign could differ
                    self._tail[-1] = box
                    continue
            self._tail.append(part)

    def prox(self, chat) -> np.ndarray:
        out = self._head.prox(chat)
        for part in self._tail:
            part.prox_(out)
        return out

    def split(self):
        return self._head, list(self._tail)
