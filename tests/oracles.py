"""Independent routes that the tests compare the package against.

None of these is on the path from the command line to the report; each is
a second route to a quantity the package computes another way:

  * rotate_system builds the rotated Clifford system matrix by matrix,
    which the Willmore chain never does (it rotates P_a x and P_a P_b x by
    bilinearity);
  * the sectional curvatures give the Ricci form through the Gauss
    equation, directly from the P_a and through the shape operators;
  * quartic, gradient and hessian are F and its ambient derivatives in
    closed form at one point of R^{2l}, on or off the sphere; finite
    differences of quartic check gradient, the package's term-by-term
    Laplacian must equal the trace of hessian;
  * parse_dump reads the plain-text matrix dump back;
  * jacobian_rank is the rank of the rows x, P_0 x, ..., P_m x from their
    singular values, where certification reads the eigenvalues of the
    Gram matrix it forms for its J J^T = 4I guard;
  * signed_balance and rotated_tangency are the Willmore chain's
    per-normal routes to what it reads once per point: the balance
    tr((Pi_{+1} - Pi_{-1}) Ric_closed) at each normal, and the tangency of
    the rotated pair vectors against x and the rotated normals;
  * rotated_pairs, p0_tangent_form, p0_u_sq and ambient_reflection are its
    per-normal routes in R^{2l}, through the dense 2l x 2l matrix
    P'_0 = sum_a c_a P_a (dense_p0_tangent), to what it reads in tangent
    coordinates: the pair vectors rotated before they are projected on T,
    T^T P'_0 T for -A_xi, |P'_0 U|^2 for |U|^2, and the reflection
    (P'_0 +- I) T Pi_{+-1}, whose tangent part is, beyond rounding, the
    sign gap through a projector, which the chain reads once per point;
  * norm_bookkeeping is the m > 2 case's norm bookkeeping, which the chain
    reads as the pair tangency and the pairwise balance;
  * take picks points out of a stacked frame or shape record.
"""

from dataclasses import fields

import numpy as np

from fkm_willmore import CliffordSystem, willmore
from fkm_willmore.clifford import _orthonormal_completion
from fkm_willmore.geometry import pair_products


def rotate_system(system, coeffs):
    """The system rotated so that the new P_0 is sum_a c_a P_a, for a unit
    coefficient vector c; the other matrices are the images of the
    Householder completion of c (rows 1..m).  A coordinate vector e_j swaps
    P_0 and P_j and keeps the other matrices."""
    basis = _orthonormal_completion(np.asarray(coeffs, dtype=float)[None])[0]
    new = np.einsum("ab,bij->aij", basis, system.matrices)
    return CliffordSystem(m=system.m, l=system.l, matrices=tuple(new))


def sectional_curvature(system, X, Y):
    """K(X_p, Y_p) = 1 + sum_a (<P_a X, X><P_a Y, Y> - <P_a X, Y>^2) for an
    orthonormal tangent pair at every point p, directly from the P_a; X and
    Y are (P, 2l), the result (P,)."""
    px = system.apply(X)
    py = system.apply(Y)
    xy = np.sum(px * Y[:, None], axis=2)
    return 1.0 + np.sum(np.sum(px * X[:, None], axis=2)
                        * np.sum(py * Y[:, None], axis=2) - xy * xy, axis=1)


def sectional_curvature_from_shape(frame, shape, X, Y):
    """The same quantity through the shape operators (Gauss equation)."""
    def form(u, v):                 # <A_a u, v> for every point and a
        return np.einsum("kapq,kp,kq->ka", shape.operators, u, v)

    p = np.einsum("kip,ki->kp", frame.tangent, X)
    q = np.einsum("kip,ki->kp", frame.tangent, Y)
    return 1.0 + np.sum(form(p, p) * form(q, q) - form(p, q) ** 2, axis=1)


def quartic(system, x):
    """F(x) = |x|^4 - 2 sum_a <P_a x, x>^2 at one point."""
    g = (system.matrices @ x) @ x
    return float(x @ x) ** 2 - 2.0 * float(g @ g)


def gradient(system, x):
    """grad F(x) = 4 |x|^2 x - 8 sum_a g_a(x) P_a x at one point."""
    px = system.matrices @ x
    return 4.0 * float(x @ x) * x - 8.0 * ((px @ x) @ px)


def hessian(system, x):
    """The Hessian of F at one point as a dense symmetric matrix:
    8 x x^T + 4 |x|^2 I - 16 sum_a (P_a x)(P_a x)^T - 8 sum_a g_a(x) P_a."""
    px = system.matrices @ x
    g = px @ x
    mat = 8.0 * np.outer(x, x) + 4.0 * float(x @ x) * np.eye(len(x))
    mat -= 16.0 * np.einsum("ai,aj->ij", px, px)
    mat -= 8.0 * np.einsum("a,aij->ij", g, system.matrices)
    return mat


def parse_dump(text):
    """The system of a dump_matrices text: header "2l m", then m + 1 blocks
    of 2l rows."""
    lines = text.splitlines()
    n, m = (int(v) for v in lines[0].split())
    rows = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    return CliffordSystem(m=m, l=n // 2,
                          matrices=tuple(rows.reshape(m + 1, n, n)))


def jacobian_rank(system, x):
    """The rank of the (m+2) x 2l matrix with rows x, P_0 x, ..., P_m x for
    every row of a (K, 2l) stack, from one stacked SVD (singular values
    above 1e-8 count); (K,)."""
    rows = np.concatenate([x[:, None, :], system.apply(x)], axis=1)
    return np.linalg.matrix_rank(rows, tol=1e-8)


def signed_balance(system, frame, shape, coeffs):
    """tr((Pi_{+1} - Pi_{-1}) Ric_closed) at every point and normal of a
    (P, N, m+1) stack of coefficients, with the chain's purified
    projectors; (P, N)."""
    _, plus, minus = willmore._decompose(system, shape.operators, coeffs,
                                         (0, 0))
    return np.sum((plus - minus) * frame.closed_ricci[:, None], axis=(2, 3))


def _completions(coeffs):
    """The completion rows B of every (P, N, m+1) coefficient vector."""
    m1 = coeffs.shape[2]
    return _orthonormal_completion(coeffs.reshape(-1, m1)).reshape(
        *coeffs.shape[:2], m1, m1)


def rotated_pairs(system, frame, coeffs, pairs=None):
    """P'_a P'_b x = sum_cd B_ac B_bd P_c P_d x, a < b, in R^{2l} at every
    point and normal; (P, N, m(m+1)/2, 2l) in np.triu_indices order.  The
    ambient pair products P_c P_d x are formed here from the frame's
    points, unless given as `pairs` (P, m+1, m+1, 2l)."""
    if pairs is None:
        pairs = pair_products(system, system.apply(frame.x))
    basis = _completions(coeffs)
    prods = np.einsum("knac,knbd,kcdi->knabi", basis, basis, pairs)
    ia, ib = np.triu_indices(system.m + 1, k=1)
    return prods[:, :, ia, ib]


def rotated_normals(system, frame, coeffs):
    """The rotated normals P'_b x = sum_a B_ba P_a x at every point and
    normal; (P, N, m+1, 2l), P'_0 x = xi first."""
    return _completions(coeffs) @ system.apply(frame.x)[:, None]


def rotated_tangency(system, frame, coeffs, pairs=None):
    """max |<y, x>| and |<y, P'_g x>| over the rotated pair vectors y =
    P'_a P'_b x, a < b, and every g, at every point and normal, with the
    ambient `pairs` of rotated_pairs; (P, N)."""
    normals = rotated_normals(system, frame, coeffs)
    y = rotated_pairs(system, frame, coeffs, pairs)
    return np.maximum(
        np.max(np.abs(y @ frame.x[:, None, :, None]), axis=(2, 3)),
        np.max(np.abs(y @ normals.swapaxes(2, 3)), axis=(2, 3)))


def dense_p0_tangent(system, frame, coeffs):
    """(sum_a c_a P_a) T at every point and normal, through the dense
    2l x 2l matrix; (P, N, 2l, n)."""
    dim = system.ambient_dim
    p0 = (coeffs @ system.matrices.reshape(system.m + 1, dim * dim)).reshape(
        *coeffs.shape[:2], dim, dim)
    return p0 @ frame.tangent[:, None]


def p0_tangent_form(system, frame, coeffs):
    """T^T P'_0 T at every point and normal, through the dense P'_0;
    (P, N, n, n)."""
    return frame.tangent.swapaxes(1, 2)[:, None] @ dense_p0_tangent(
        system, frame, coeffs)


def p0_u_sq(system, frame, coeffs, pi0):
    """|P'_0 U|^2 for the T_0 component U = T Pi_0 T^T y of every rotated
    pair vector y = P'_a P'_b x, a, b >= 1, with the dense P'_0 and the
    ambient rotation; (P, N, m(m-1)/2)."""
    z = (rotated_pairs(system, frame, coeffs)[:, :, system.m:]
         @ frame.tangent[:, None])
    p0u = (z @ pi0) @ dense_p0_tangent(system, frame, coeffs).swapaxes(2, 3)
    return np.sum(p0u * p0u, axis=3)


def ambient_reflection(system, frame, coeffs, plus, minus):
    """(P'_0 + I) T Pi_{+1} and (P'_0 - I) T Pi_{-1} at every point and
    normal, with the dense P'_0 and the (P, N, n, n) projectors; each
    (P, N, 2l, n).  Both vanish when P'_0 v = -v on T_{+1} and P'_0 w = w
    on T_{-1}."""
    p0t = dense_p0_tangent(system, frame, coeffs)
    t = frame.tangent[:, None]
    return (p0t + t) @ plus, (p0t - t) @ minus


def norm_bookkeeping(m, y_t, pi0, p_plus, p_minus):
    """2 - (2 |U|^2 + 4 |W|^2) and 2 - (2 |U|^2 + 4 |V|^2) for every curved
    pair y = P'_a P'_b x, a, b >= 1, of the chain's (P, N, m(m+1)/2, n)
    rotated pairs y_t, with |U| = |Pi_0 z| and the squared projections
    |V|^2 = p_plus, |W|^2 = p_minus; each (P, N, m(m-1)/2)."""
    u_sq = np.sum((y_t[:, :, m:] @ pi0) ** 2, axis=3)
    return (2.0 - (2.0 * u_sq + 4.0 * p_minus[..., m:]),
            2.0 - (2.0 * u_sq + 4.0 * p_plus[..., m:]))


def take(block, rows):
    """The points `rows` (a slice or an index array) of a stacked
    AdaptedFrame or ShapeData, as a record of the same type."""
    return type(block)(**{f.name: getattr(block, f.name)[rows]
                          for f in fields(block)})
