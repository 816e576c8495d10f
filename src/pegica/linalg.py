"""Small linear-algebra helpers shared by the estimation and evaluation code.

Conventions used throughout the package:

* sample matrices are N-by-n (one observation per row);
* the scalar product of vectors is ``<u, v> = sum_i u_i * conj(v_i)``,
  which reduces to the ordinary dot product for real data;
* angles between vectors are angles between the complex *lines* they
  span, so they are invariant to sign and unit-modulus factors.
"""

import numpy as np

_EPS = np.finfo(float).eps


def unit(v):
    """Return ``v`` scaled to unit Euclidean norm."""
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroDivisionError("cannot normalize the zero vector")
    return v / nrm


def random_unit(n, rng, complex_field=False):
    """Draw a vector uniformly from the unit sphere in R^n or C^n."""
    g = rng.standard_normal(n)
    if complex_field:
        g = g + 1j * rng.standard_normal(n)
    return unit(g)


def vector_angle(u, v):
    """Angle in radians between the lines spanned by ``u`` and ``v``.

    Invariant to nonzero scalar (including unit-modulus) factors on either
    argument.  Computed from the orthogonal residual rather than arccos of
    the cosine, so angles far below sqrt(eps) are resolved accurately.
    """
    u = np.asarray(u).ravel()
    v = np.asarray(v).ravel()
    uh = unit(u)
    vh = unit(v)
    c = np.vdot(vh, uh)  # Hermitian projection coefficient of uh onto vh
    ortho = uh - c * vh
    return float(np.arctan2(np.linalg.norm(ortho), abs(c)))


def vector_angle_deg(u, v):
    """`vector_angle` in degrees."""
    return float(np.degrees(vector_angle(u, v)))


def hermitian_pinv(C):
    """Moore-Penrose pseudoinverse of a Hermitian matrix via eigendecomposition.

    Indefinite matrices are fine: eigenvalues whose magnitude falls below
    ``n * eps * max(|eigenvalue|)`` are truncated.

    Returns
    -------
    pinv : ndarray
        The pseudoinverse.
    rank : int
        Number of retained eigenvalues.
    eigvals : ndarray
        All eigenvalues of ``C`` (ascending).
    """
    C = np.asarray(C)
    n = C.shape[0]
    if C.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    herm_defect = np.linalg.norm(C - C.conj().T)
    scale = np.linalg.norm(C)
    if scale > 0 and herm_defect > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian to working precision")
    C = 0.5 * (C + C.conj().T)
    eigvals, eigvecs = np.linalg.eigh(C)
    cutoff = n * _EPS * np.max(np.abs(eigvals), initial=0.0)
    keep = np.abs(eigvals) > cutoff
    inv_vals = np.zeros_like(eigvals)
    inv_vals[keep] = 1.0 / eigvals[keep]
    pinv = (eigvecs * inv_vals) @ eigvecs.conj().T
    return pinv, int(np.count_nonzero(keep)), eigvals


def to_db(x):
    """Convert power ratios to decibels, elementwise.

    An infinite ratio (perfect isolation in a noise-free model) stays
    infinite and a zero ratio gives ``-inf``.
    """
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)
