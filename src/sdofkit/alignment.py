"""Aligned precoding-pair solution spaces.

A pair of vectors (v, w) is *aligned* for matrices (A, B) when
``A @ v == B @ w != 0``: the two transmissions land on the same
direction.  This module parametrizes the full solution space of aligned
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore

__all__ = ["AlignedSpace", "aligned_space"]


@dataclass(frozen=True, eq=False)
class AlignedSpace:
    """Solution space of ``A @ v == B @ w`` for a full-rank pair (A, B).

    ``phi1`` and ``phi2`` are bases for v and w.  Their leading
    ``shared_width`` columns are driven by a common coordinate block: any
    coordinate vector with shared part y_s and private parts y1, y2 gives
    an aligned pair ``v = phi1 @ [y_s; y1]``, ``w = phi2 @ [y_s; y2]``,
    nonzero whenever y_s is.  The trailing columns of phi1 span null(A)
    (and of phi2, null(B)), where the alignment holds with both images
    zero.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    shared_width: int
    independent_count: int

    def pair(self, y_shared, y1=None, y2=None) -> tuple[np.ndarray, np.ndarray]:
        """Assemble an aligned (v, w) from coordinate blocks."""
        ys = np.asarray(y_shared, dtype=np.complex128).reshape(-1, 1)
        if ys.shape[0] != self.shared_width:
            raise ValueError(f"shared coordinate must have length {self.shared_width}")
        n1 = self.phi1.shape[1] - self.shared_width
        n2 = self.phi2.shape[1] - self.shared_width
        p1 = np.zeros((n1, 1)) if y1 is None else np.asarray(y1, dtype=np.complex128).reshape(-1, 1)
        p2 = np.zeros((n2, 1)) if y2 is None else np.asarray(y2, dtype=np.complex128).reshape(-1, 1)
        v = self.phi1 @ np.vstack([ys, p1])
        w = self.phi2 @ np.vstack([ys, p2])
        return v, w


def aligned_space(a, b) -> AlignedSpace:
    """Parametrize all (v, w) with ``a @ v == b @ w``.

    The shared block is :func:`matcore.aligned_pairs` of (a, b), which maps
    both sides onto a basis of span(a) ∩ span(b).  The private blocks are
    the null-space bases.
    The number of linearly independent v participating in a nonzero
    alignment is ``shared_width + dim null(a)``.
    """
    v, w, _ = matcore.aligned_pairs(a, b)
    null_a = matcore.null_basis(a)
    return AlignedSpace(
        phi1=np.hstack([v, null_a]),
        phi2=np.hstack([w, matcore.null_basis(b)]),
        shared_width=v.shape[1],
        independent_count=v.shape[1] + null_a.shape[1],
    )

