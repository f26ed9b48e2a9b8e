"""The second spacing-ratio route: neighbours from a scipy k-d tree.

`openchaos.spectral.complex_spacing_ratios` ranks neighbours from an O(n^2)
distance table.  This route finds candidates with `scipy.spatial.cKDTree`,
recomputes their distances with the same formula and ranks them with the same
tie break (distance, then index), so on any cloud it must select the same
neighbours and give the same ratio bytes.  The acceptance gate [9/9] and the
spacing-ratio tests compare the two.
"""

import numpy as np
from scipy.spatial import cKDTree

from openchaos.spectral import SpacingRatioSet


def kdtree_spacing_ratios(evals: np.ndarray) -> SpacingRatioSet:
    """`complex_spacing_ratios(evals)` with each neighbour pair found through a k-d tree.

    The candidate window is widened until its farthest member lies beyond the
    second neighbour, so the selection is bit-identical even under ties.
    """
    ev = np.asarray(evals, dtype=complex).ravel()
    n = ev.size
    if n < 3:
        raise ValueError(f"need at least 3 eigenvalues for spacing ratios, got {n}")
    nn = np.empty(n, dtype=int)
    nnn = np.empty(n, dtype=int)
    re, im = ev.real, ev.imag
    points = np.column_stack([re, im])
    tree = cKDTree(points)
    k0 = min(n, 8)
    _, cand = tree.query(points, k=k0)
    for r in range(n):
        k, row = k0, cand[r]
        while True:
            idx = row[row != r]
            d2 = (re[r] - re[idx]) ** 2 + (im[r] - im[idx]) ** 2
            order = np.lexsort((idx, d2))
            # Points left out of the window are at least as far as its
            # farthest member.  Unless that one lies strictly beyond the
            # second neighbour (the margin covers the tree's own rounding),
            # a tie such as a degenerate eigenvalue could leave out a point
            # that ranks first or second, so the window is widened.
            if k == n or d2.max() > d2[order[1]] * (1.0 + 1e-12):
                break
            k = min(n, 2 * k)
            _, row = tree.query(points[r], k=k)
        nn[r], nnn[r] = idx[order[0]], idx[order[1]]

    num = ev[nn] - ev
    den = ev[nnn] - ev
    # the library's ratio rule: exact 2^600 scaling where |den| is subnormal, 1 where den is 0
    tiny = (np.abs(den) < 2.0**-1000) & (den != 0)
    num[tiny] *= 2.0**600
    den[tiny] *= 2.0**600
    ratios = np.where(den == 0, 1.0 + 0.0j, num / np.where(den == 0, 1.0, den))
    return SpacingRatioSet(ratios=ratios, nn_indices=nn, nnn_indices=nnn)
