"""Dense oracles for the supercharge and its graded block, independent of the package.

The grading's eigenbases come from ``np.linalg.eigh``, not from the
package's eigenspace routes, so a test that compares against them checks
those routes instead of repeating them.
"""

import numpy as np


def supercharge(pair):
    """The supercharge ``q = (U - U*)/2i`` as an n x n matrix."""
    return (pair.u - pair.u.conj().T) / 2j


def grading_bases(pair):
    """Orthonormal bases ``(G+, G-)`` of the grading's +1 and -1 eigenspaces."""
    w, v = np.linalg.eigh(pair.gamma)
    return v[:, w > 0], v[:, w < 0]


def alpha(pair):
    """The supercharge block ``G-* q G+``, of shape (dim Gamma-, dim Gamma+)."""
    plus, minus = grading_bases(pair)
    return minus.conj().T @ supercharge(pair) @ plus
