"""Independent routes that the tests compare the package against.

None of these is on the path from the command line to the report; each is
a second route to a quantity the package computes another way:

  * rotate_system builds the rotated Clifford system matrix by matrix,
    which no route of the Willmore chain does (chain_per_normal rotates
    P_a x and P_a P_b x by bilinearity, the package reads the pair
    identities for every rotation at once);
  * the sectional curvatures give the Ricci form through the Gauss
    equation, directly from the P_a and through the shape operators;
  * quartic, gradient and hessian are F and its ambient derivatives in
    closed form at one point of R^{2l}, on or off the sphere; finite
    differences of quartic check gradient, the package's term-by-term
    Laplacian must equal the trace of hessian;
  * block_system is the split construction written as block matrices
    (np.block of I, 0 and the Kronecker products I_k (x) E), where the
    package writes each block into one zero stack in place;
  * parse_dump reads the plain-text matrix dump back;
  * jacobian_rank is the rank of the rows x, P_0 x, ..., P_m x from their
    singular values, where the points block reads it off the deviation of
    their Gram matrix from the identity, J J^T = 4I;
  * orthonormal_completion is the Householder completion B of a unit
    coefficient vector c, whose first row is c: the rotation to that
    normal, which rotate_system and the per-normal chain below apply;
  * projectors, rotated_tangent_pairs and chain_per_normal are that
    per-normal chain: the purified spectral projectors of every A_xi, the
    pair vectors rotated by B in tangent coordinates, and per normal the
    pairwise balance |V|^2 - |W|^2, the signed aggregate, the (0, b) leaks
    |Pi_{+-1} z| and, for m = 2, |U|, which the tensors bound at every
    normal;
  * signed_balance and rotated_tangency are the chain's per-normal routes
    to what it reads once per point: the balance
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

from fkm_willmore import CliffordSystem, build_skew_generators, delta
from fkm_willmore.geometry import pair_products


def block_system(m, k):
    """The (m+1, 2l, 2l) matrices of the split system, l = k delta(m), as
    block matrices: P_0 = [[I, 0], [0, -I]], P_1 = [[0, I], [I, 0]] and
    P_{1+i} = [[0, E_i^(k)], [-E_i^(k), 0]] with E_i^(k) = I_k (x) E_i."""
    l = k * delta(m)
    eye, zero = np.eye(l), np.zeros((l, l))
    mats = [np.block([[eye, zero], [zero, -eye]]),
            np.block([[zero, eye], [eye, zero]])]
    for gen in build_skew_generators(m):
        ek = np.kron(np.eye(k), gen)
        mats.append(np.block([[zero, ek], [-ek, zero]]))
    return np.array(mats)


def orthonormal_completion(first):
    """Orthonormal bases whose first rows are the rows of `first`.

    `first` is an (N, dim) stack of unit vectors c; the result is
    (N, dim, dim) with out[k] an orthonormal basis (as rows) and
    out[k, 0] = first[k].  Each basis is the Householder reflection
    I - w w^T / (1 + |c_0|) with w = c + s e_0, s = +1 for c_0 > 0 and -1
    otherwise, so |w|^2 = 2 (1 + |c_0|) never cancels.  Its row 0 is -s c
    and is set to c.  A coordinate vector c = e_j (j > 0) swaps e_0 and e_j.
    """
    c = np.asarray(first, dtype=float)
    w = c.copy()
    w[:, 0] += np.where(c[:, 0] > 0, 1.0, -1.0)
    scaled = w / (1.0 + np.abs(c[:, :1]))
    out = np.eye(c.shape[1]) - w[:, :, None] * scaled[:, None, :]
    out[:, 0] = c
    return out


def rotate_system(system, coeffs):
    """The system rotated so that the new P_0 is sum_a c_a P_a, for a unit
    coefficient vector c; the other matrices are the images of the
    Householder completion of c (rows 1..m).  A coordinate vector e_j swaps
    P_0 and P_j and keeps the other matrices."""
    basis = orthonormal_completion(np.asarray(coeffs, dtype=float)[None])[0]
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


def _purified(proj):
    """One McWeeny step 3 Pi^2 - 2 Pi^3 on a stack of near-projectors: an
    eigenvalue 1 + d moves to 1 - 3 d^2 - 2 d^3 and d to 3 d^2 - 2 d^3."""
    sq = proj @ proj
    return 3.0 * sq - 2.0 * (sq @ proj)


def projectors(operators, coeffs):
    """A_xi = sum_a c_a A_a and its spectral projectors (Pi_0, Pi_{+1},
    Pi_{-1}) at every point and normal of a (P, N, m+1) stack of
    coefficients, each (P, N, n, n): Pi_{+-1} = (A^2 +- A) / 2, each
    purified by one McWeeny step 3 Pi^2 - 2 Pi^3, and Pi_0 their
    complement I - Pi_{+1} - Pi_{-1}."""
    coeffs = np.asarray(coeffs, dtype=float)
    a_xi = np.einsum("kna,kaij->knij", coeffs, operators)
    sq = a_xi @ a_xi
    plus, minus = (_purified(pi) for pi in ((sq + a_xi) / 2.0,
                                            (sq - a_xi) / 2.0))
    return a_xi, np.eye(a_xi.shape[-1]) - plus - minus, plus, minus


def signed_balance(system, frame, shape, coeffs):
    """tr((Pi_{+1} - Pi_{-1}) Ric_closed) at every point and normal of a
    (P, N, m+1) stack of coefficients, with the purified projectors;
    (P, N)."""
    _, _, plus, minus = projectors(shape.operators, coeffs)
    return np.sum((plus - minus) * frame.closed_ricci[:, None], axis=(2, 3))


def rotated_tangent_pairs(pairs, coeffs):
    """The pair vectors P'_a P'_b x = sum_cd B_ac B_bd P_c P_d x for a < b,
    with B the completion of each normal, in tangent coordinates: `pairs`
    is the (P, m+1, m+1, n) tangent slice of the frame's pair coordinates,
    and two matrix products give (P, N, m(m+1)/2, n) in np.triu_indices
    order, so the m pairs (0, b) come first."""
    (count, num, m1), n = coeffs.shape, pairs.shape[3]
    basis = _completions(coeffs)
    half = basis @ pairs.reshape(count, 1, m1, m1 * n)
    prods = basis[:, :, None] @ half.reshape(count, num, m1, m1, n)
    ia, ib = np.triu_indices(m1, k=1)
    return prods[:, :, ia, ib]


def chain_per_normal(system, frame, operators, coeffs):
    """The pair identities at every point and normal, through the rotation
    to the normal and its purified projectors: the worst pairwise
    |V|^2 - |W|^2 = |Pi_{+1} y|^2 - |Pi_{-1} y|^2 over the rotated pairs
    y, the signed aggregate 2 sum_{a<b} (|V|^2 - |W|^2), the worst leak
    max(|Pi_{+1} z|, |Pi_{-1} z|) over the pairs (0, b), and for m = 2 the
    norm |U| = |Pi_0 z| of the curved pair's T_0 component (else 0); each
    (P, N)."""
    m = system.m
    _, pi0, plus, minus = projectors(operators, coeffs)
    y_t = rotated_tangent_pairs(frame.pair_coords[..., m + 2:],
                                np.asarray(coeffs, dtype=float))
    p_plus, p_minus = (np.sum((y_t @ pi) ** 2, axis=3)
                       for pi in (plus, minus))
    diff = p_plus - p_minus
    leak = np.sqrt(np.max(np.maximum(p_plus[..., :m], p_minus[..., :m]),
                          axis=2))
    u = (np.linalg.norm(y_t[:, :, 2:] @ pi0, axis=3)[..., 0] if m == 2
         else np.zeros(diff.shape[:2]))
    return np.max(np.abs(diff), axis=2), 2.0 * np.sum(diff, axis=2), leak, u


def _completions(coeffs):
    """The completion rows B of every (P, N, m+1) coefficient vector."""
    m1 = coeffs.shape[2]
    return orthonormal_completion(coeffs.reshape(-1, m1)).reshape(
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
