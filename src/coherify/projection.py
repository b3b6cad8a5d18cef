"""L2 projection onto coherent polytopes.

One route per question: for a catalog relation, ``project_relation_batch``
projects many quotes exactly at once -- closed forms for a single affine
cut or a chain (negation, partition, ladder), the clipped mean for
paraphrase, and the nearest of the 15 face projections of a tetrahedron
for the two Frechet relations (conjunction, disjunction);
``project_relation`` is that route on one quote. Any other set (a generic
block of a joint system, or a local set that is neither a catalog relation
nor a free box) goes row by row through one exact solver,
``project_active_set``, which ends at the projection or at a Farkas proof
that the set is empty: no certificate path has an iteration cap.
``project_oracle``, a min-norm-point search over vertex hulls, is the
ground truth that tests hold every route to, and ``project_dykstra`` the
Boyle-Dykstra reference cycle (``project_polytope_batch`` row by row).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .polytope import (
    PolytopeSpec,
    Relation,
    RelationKind,
    build_polytope,
    enumerate_vertices,
)

if TYPE_CHECKING:  # pragma: no cover
    from .composition import CompositionSpec

DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_ITER = 10_000
RESIDUAL_FLOOR = 1e-9  # certificate-level report threshold, not a projection tolerance
# active-set solver: a row violated past this distance is added; a shorter step is none
ACTIVE_SET_TOL = 1e-12
ORACLE_VERTEX_LIMIT = 4096
# entries per temporary of the face route and of the isotonic row path; the
# row path takes fewer than ``COLUMN_ROWS`` rows, so it splits them only for m > 32
BLOCK_ENTRIES = 1 << 16
COLUMN_ROWS = 64  # rows from which the isotonic kernel runs coordinate-major

CLOSED_FORM_KINDS = frozenset(
    {RelationKind.NEGATION, RelationKind.PARTITION, RelationKind.LADDER}
)


class InfeasibleCouplingError(ValueError):
    """A constraint set (box included) is empty.

    ``multipliers`` maps each row at fault to its Farkas multiplier ``y``, box
    rows read as ``-r_i <= 0`` and ``r_i <= 1``: ``y`` is positive on halfspace
    and box rows, ``sum(y * a) = 0`` and ``sum(y * b) < 0``, which no point meets.
    """

    def __init__(self, message: str, multipliers: dict[str, float] | None = None):
        super().__init__(message)
        self.multipliers = multipliers or {}


@dataclass(frozen=True, eq=False)  # holds an array: compares and hashes by identity
class ProjectionResult:
    projected: np.ndarray
    residual: float
    iterations: int
    converged: bool
    active_constraint: str | None = None

    def __post_init__(self):
        self.projected.setflags(write=False)


@lru_cache(maxsize=None)
def _polytope(relation: Relation) -> PolytopeSpec:
    return build_polytope(relation)


@lru_cache(maxsize=None)
def _coupled_halfspaces(relation: Relation) -> tuple:
    """``(support, halfspace)`` for each halfspace of the relation tying >= 2 coordinates."""
    halfspaces = _polytope(relation).halfspaces
    supports = [tuple(j for j, v in enumerate(c.a) if v) for c in halfspaces]
    return tuple((s, c) for s, c in zip(supports, halfspaces) if len(s) >= 2)


@lru_cache(maxsize=None)
def _vertex_array(relation: Relation) -> np.ndarray:
    return enumerate_vertices(relation).as_array()


def _simplex_faces(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One affine map per nonempty vertex subset (face) of the simplex conv(V).

    Face ``f`` maps a point ``x`` to ``G[f] @ x + h[f]``: its first ``k``
    entries are the barycentric weights, over all ``k`` vertices (zero off
    the face), of the projection of ``x`` onto the face's affine hull, and
    the last ``d`` entries are that projection. A face that spans the
    whole space projects every point to itself. Raises ``ValueError``
    unless the rows of ``V`` are affinely independent.
    """
    k, d = V.shape
    # Hadamard: det(gram) <= prod(diag(gram)), with equality for orthogonal
    # edges and zero exactly when the edges are linearly dependent
    edges = V[1:] - V[0]
    gram = edges @ edges.T
    if not np.linalg.det(gram) > 1e-12 * np.prod(np.diag(gram)):
        raise ValueError(f"the {k} vertices are not affinely independent")
    G = np.zeros((2 ** k - 1, k + d, d))
    h = np.zeros((2 ** k - 1, k + d))
    first = 0
    for r in range(1, k + 1):  # every face of r vertices at once, faces in combinations order
        S = np.array(list(itertools.combinations(range(k), r)))
        f = np.arange(first, first + len(S))
        first += len(S)
        base = V[S[:, 0]]
        E = V[S[:, 1:]] - base[:, None]  # edge vectors from each face's first vertex
        L = np.linalg.solve(E @ E.transpose(0, 2, 1), E)  # x - base -> coefficients of the edges
        M = np.concatenate([-L.sum(axis=1, keepdims=True), L], axis=1)  # M @ (x - base) + e_0
        P = np.broadcast_to(np.eye(d), (len(S), d, d)) if r == d + 1 else E.transpose(0, 2, 1) @ L
        G[f[:, None], S] = M
        h[f[:, None], S] = (-M @ base[:, :, None])[..., 0]
        h[f, S[:, 0]] += 1.0
        G[f, k:] = P
        h[f, k:] = base - (P @ base[:, :, None])[..., 0]
    G.setflags(write=False)
    h.setflags(write=False)
    return G, h


@lru_cache(maxsize=None)
def _face_table(relation: Relation) -> tuple[np.ndarray, np.ndarray]:
    return _simplex_faces(_vertex_array(relation))


def _check_finite(q: np.ndarray) -> None:
    """Refuse quotes with a NaN or infinite entry, before any arithmetic on them."""
    if not np.isfinite(q).all():
        raise ValueError("quotes have non-finite entries")


def _reported(spec: PolytopeSpec | None, Q: np.ndarray, P: np.ndarray) -> list:
    """``(residual, active constraint)`` for each quote row of ``Q`` projected to ``P``.

    The residual is ``|q - p|`` (``np.linalg.norm``'s own sum for a 1-D
    float64 vector); the active constraint is the one (box included) ``q``
    violates most (``most_violated_rows``, all rows at once), or None
    without a ``spec``.
    """
    active = spec.most_violated_rows(Q) if spec is not None else [None] * len(Q)
    return [(math.sqrt(d.dot(d)), name) for d, name in zip(Q - P, active)]


def _simplex_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex, sort form."""
    n, m = X.shape
    U = -X
    U.sort(axis=1)
    np.negative(U, out=U)
    css = np.add.accumulate(U, axis=1)  # U.cumsum's own sums
    active = U * _ranges(m)[1] > (css - 1.0)
    rho = m - 1 - active[:, ::-1].argmax(axis=1)  # last active index; index 0 always is
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


@lru_cache(maxsize=None)
def _ranges(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.arange(m)`` and ``np.arange(1, m + 1)``, read-only, built once per ``m``."""
    index = np.arange(m + 1)
    index.setflags(write=False)
    return index[:-1], index[1:]


@lru_cache(maxsize=None)
def _segment_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Over the ``(s, t)`` grid of ``range(m)``: segment lengths ``t - s + 1``
    (1 where ``t < s``) and a mask that is 0 where ``s <= t``, -inf elsewhere."""
    s = np.arange(m)[:, None]
    t = np.arange(m)[None, :]
    length = np.where(t >= s, t - s + 1, 1).astype(float)
    below = np.where(t >= s, 0.0, -np.inf)
    length.setflags(write=False)
    below.setflags(write=False)
    return length, below


def _nonincreasing_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise non-increasing isotonic regression, uniform weights.

    Min-max formula (Robertson, Wright & Dykstra 1988): the fit at ``i`` is
    the smallest over ``s <= i`` of the largest mean of ``X[s..t]`` over
    ``t >= i``. Means come from row prefix sums; a singleton's mean is its
    entry. Below ``COLUMN_ROWS`` rows, every segment of a block of rows goes
    at once, each ``(rows, m, m)`` temporary holding at most
    ``BLOCK_ENTRIES`` entries; from there on ``_nonincreasing_columns``
    takes one segment at a time across all rows, in O(m n) memory. Both
    layouts take the same means, maxima and minima in the same order, so
    they agree bit for bit. ``COLUMN_ROWS`` is the measured crossover,
    about 40-100 rows for m from 3 to 30: the row path's cost grows with
    ``n m**2``, the column path's with its ``m**2`` ufunc calls.
    """
    n, m = X.shape
    if n >= COLUMN_ROWS:
        return _nonincreasing_columns(X)
    length, below = _segment_grid(m)
    diag = _ranges(m)[0]
    out = np.empty_like(X)
    step = max(1, BLOCK_ENTRIES // (m * m))
    for start in range(0, n, step):
        B = X[start:start + step]
        S = np.zeros((B.shape[0], m + 1))
        np.add.accumulate(B, axis=1, out=S[:, 1:])  # B.cumsum's own sums
        means = S[:, None, 1:] - S[:, :-1, None]  # [:, s, t]: sum of B[s..t]
        means /= length
        means += below  # no segment where t < s
        means[:, diag, diag] = B  # singletons exactly, so chain members map to themselves
        # upper[:, s, i]: largest mean over t >= i; then the smallest over s <= i
        upper = np.maximum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
        fit = np.minimum.accumulate(upper, axis=1)
        out[start:start + step] = fit.diagonal(axis1=1, axis2=2)
    return out


def _nonincreasing_columns(X: np.ndarray) -> np.ndarray:
    """``_nonincreasing_rows`` coordinate-major: prefix sums laid out ``(m + 1, n)``
    and one segment ``(s, t)`` at a time, every ufunc on a contiguous length-``n`` vector."""
    n, m = X.shape
    XT = np.ascontiguousarray(X.T)
    S = np.zeros((m + 1, n))
    XT.cumsum(axis=0, out=S[1:])
    S, XT = list(S), list(XT)  # row views, taken once
    fit = np.full((m, n), np.inf)  # fit[i]: smallest upper over the starts s <= i so far
    fits = list(fit)
    upper = np.empty(n)  # for start s: largest mean over t >= i, as t falls to s
    buffer = np.empty(n)
    for s in range(m):
        upper.fill(-np.inf)
        for t in range(m - 1, s - 1, -1):
            if t == s:
                mean = XT[s]
            else:
                mean = np.subtract(S[t + 1], S[s], out=buffer)
                mean /= t - s + 1
            np.maximum(upper, mean, out=upper)
            np.minimum(fits[t], upper, out=fits[t])
    return fit.T.copy()


def _nearest_face_rows(table: tuple[np.ndarray, np.ndarray], X: np.ndarray) -> np.ndarray:
    """Row-wise projection onto a simplex from its ``_simplex_faces`` table.

    The projection lies in the relative interior of exactly one face, where
    it is the projection onto that face's affine hull; every face whose
    weights are all nonnegative gives a point of the simplex. So the
    nearest such candidate is the projection. Vertex faces always qualify.
    """
    G, h = table
    n, d = X.shape
    k = G.shape[1] - d
    out = np.empty_like(X)
    step = max(1, BLOCK_ENTRIES // h.size)
    for start in range(0, n, step):
        B = X[start:start + step]
        Y = np.einsum("fod,nd->nfo", G, B) + h
        candidates = Y[:, :, k:]
        dist2 = np.add.reduce(np.square(candidates - B[:, None, :]), axis=2)
        dist2[np.logical_or.reduce(Y[:, :, :k] < 0.0, axis=2)] = np.inf
        out[start:start + step] = candidates[np.arange(len(B)), dist2.argmin(axis=1)]
    return out


def project_relation_batch(relation: Relation, X) -> np.ndarray:
    """Exact projection of each row of ``X`` onto one catalog relation's polytope.

    negation shifts along (1, 1) onto r1 + r2 = 1, then clips; partition is
    the simplex sort form; paraphrase is the clipped row mean; ladder is
    non-increasing isotonic regression clipped to the unit box, row-major
    below ``COLUMN_ROWS`` rows and coordinate-major from there on, with the
    same bits either way (``_nonincreasing_rows``); conjunction
    and disjunction, whose hulls are tetrahedra, take the nearest
    nonnegative-weight projection onto one of the 15 faces, all faces of
    all rows at once. Each row's result does not depend on the other rows
    (nor on the memory layout of ``X``, which is made C-contiguous). Rows
    are not checked for finiteness: this runs in every joint projection,
    on rows that ``aggregate`` or a public route has already checked.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != relation.m:
        raise ValueError(f"quotes have shape {X.shape}, relation needs (n, {relation.m})")
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        s = X[:, 0] + X[:, 1] - 1.0
        return (X - 0.5 * s[:, None]).clip(0.0, 1.0)
    if kind is RelationKind.PARTITION:
        return _simplex_rows(X)
    if kind is RelationKind.PARAPHRASE:
        level = (np.add.reduce(X, axis=1) / relation.m).clip(0.0, 1.0)  # the clipped row mean
        return level[:, None].repeat(relation.m, axis=1)
    if kind is RelationKind.LADDER:
        fit = _nonincreasing_rows(X)
        return fit.clip(0.0, 1.0, out=fit)
    return _nearest_face_rows(_face_table(relation), X)


def project_closed_form(relation: Relation, q) -> ProjectionResult:
    """Closed-form projections: negation, partition, ladder.

    One quote through ``project_relation``: negation maps (q1, q2) to
    ((1+q1-q2)/2, (1-q1+q2)/2) clipped to the unit box; partition is the
    simplex sort algorithm; ladder is non-increasing isotonic regression
    clipped to the unit box.
    """
    if relation.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"no closed-form projection for relation {relation.kind.value}")
    return project_relation(relation, q)


def _clip(y: np.ndarray) -> np.ndarray:
    return y.clip(0.0, 1.0)


def _cyclic(q: np.ndarray, spec: PolytopeSpec, tol: float, max_iter: int):
    """Boyle-Dykstra cycle of one quote over the box and the linear rows of ``spec``.

    Each cycle clips to the box, then projects onto the hyperplane or
    halfspace of each row ``a`` of ``spec.A`` in order, the box carrying a
    correction vector and each row a multiplier ``t`` (correction
    ``t * a``), until the largest correction change over a cycle is below
    ``tol``. Returns the iterate, the cycle count and whether it converged.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cuts = list(zip(spec.A, spec.b.tolist(), np.einsum("ij,ij->i", spec.A, spec.A).tolist(),
                    np.abs(spec.A).max(axis=1, initial=0.0).tolist(),
                    [False] * len(spec.equalities) + [True] * len(spec.halfspaces)))
    x, P, T = q, 0.0, [0.0] * len(cuts)  # 0.0 adds as zeros would
    for it in range(1, max_iter + 1):
        y = x + P
        x = _clip(y)
        P_new = y - x
        delta = float(np.max(np.abs(P_new - P), initial=0.0))
        P = P_new
        for i, (a, b, aa, a_max, halfspace) in enumerate(cuts):
            t = (float(a @ x) - b) / aa + T[i]
            if halfspace:
                t = max(t, 0.0)
            step = T[i] - t
            T[i] = t
            x += step * a
            delta = max(delta, abs(step) * a_max)
        if delta < tol:
            return x, it, True
    return x, max_iter, False


def project_dykstra(spec: PolytopeSpec, q, tol: float = DYKSTRA_TOL,
                    max_iter: int = DYKSTRA_MAX_ITER) -> ProjectionResult:
    """Boyle-Dykstra cyclic projection onto an equality/halfspace system.

    The reference cycle on one quote, with the box as a single clip set.
    Non-convergence is reported through ``converged=False``, never silently.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (spec.dim,):
        raise ValueError(f"quote has shape {q.shape}, polytope needs ({spec.dim},)")
    _check_finite(q)
    x, iterations, converged = _cyclic(q, spec, tol, max_iter)
    [(residual, active)] = _reported(spec, q[None, :], x[None, :])
    return ProjectionResult(x, residual, iterations, converged, active)


def project_polytope_batch(spec: PolytopeSpec, X: np.ndarray) -> np.ndarray:
    """Dykstra on many quotes; each row is its own ``project_dykstra`` projection."""
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    rows = [_cyclic(q, spec, DYKSTRA_TOL, DYKSTRA_MAX_ITER)[0] for q in X]
    return np.array(rows).reshape(X.shape)


def _active_set(A: np.ndarray, b: np.ndarray, n_eq: int, names: tuple, x: np.ndarray):
    """The projection of ``x`` onto ``{z : A[:n_eq] z = b[:n_eq], A[n_eq:] z <= b[n_eq:]}``.

    The dual active-set method of Goldfarb & Idnani (Math. Prog. 27, 1983),
    identity Hessian: from ``z = x``, add the row most violated (an equality
    oriented toward ``z``), dropping each active inequality whose multiplier
    reaches zero first. Active rows stay independent and equalities stay, so
    it ends: at the projection, solved once more from its active rows, or at
    a row no inequality makes room for, whose multipliers prove the set
    empty (``InfeasibleCouplingError``).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    z, active, signs, u = x.copy(), [], [], np.zeros(0)
    while True:
        s = A @ z - b
        excess = np.concatenate((np.abs(s[:n_eq]), s[n_eq:])) / norms
        excess[active] = -np.inf
        p = int(np.argmax(excess))
        if not excess[p] > ACTIVE_SET_TOL:
            N = A[active]
            return x - N.T @ np.linalg.solve(N @ N.T, N @ x - b[active])
        sign, u_p = np.sign(s[p]), 0.0
        n = sign * A[p]
        while True:
            N = A[active] * np.array(signs)[:, None]
            r = np.linalg.lstsq(N.T, n, rcond=None)[0]
            d = n - N.T @ r
            dd = float(d @ d)
            full = sign * (A[p] @ z - b[p]) / dd if dd > (ACTIVE_SET_TOL * norms[p]) ** 2 \
                else np.inf
            partial, drop = min(((max(u[i], 0.0) / r[i], i) for i, k in enumerate(active)
                                 if k >= n_eq and r[i] > ACTIVE_SET_TOL), default=(np.inf, -1))
            if full == partial == np.inf:  # n = sum(r * N): y = (1, -r) over (p, active)
                y = {names[k]: float(o * v) for k, o, v in sorted(zip(
                    [p, *active], [sign, *signs], [1.0, *-r]))
                     if v > ACTIVE_SET_TOL or (k < n_eq and v < -ACTIVE_SET_TOL)}
                raise InfeasibleCouplingError(
                    f"empty constraint set: no point meets {', '.join(y)}", y)
            t = min(full, partial)
            z, u, u_p = z - t * d, u - t * r, u_p + t
            if full <= partial:
                active, signs, u = active + [p], signs + [sign], np.append(u, u_p)
                break
            del active[drop], signs[drop]
            u = np.delete(u, drop)


def project_active_set(spec: PolytopeSpec, X: np.ndarray, coords=None) -> np.ndarray:
    """Each row of ``X`` projected exactly onto ``spec``'s set (box included) by
    ``_active_set``; an empty set raises ``InfeasibleCouplingError``. The box rows,
    ``-r_i <= 0`` then ``r_i <= 1`` per coordinate, are named by the joint coordinates
    ``coords`` (``range(spec.dim)`` by default). Rows are not checked for finiteness."""
    d = spec.dim
    A = np.concatenate((spec.A, np.kron(np.eye(d), [[-1.0], [1.0]])))
    b = np.concatenate((spec.b, np.tile([0.0, 1.0], d)))
    names = tuple(c.name for c in spec.equalities + spec.halfspaces) + tuple(
        f"box:r{j + 1}{side}" for j in (range(d) if coords is None else coords)
        for side in (">=0", "<=1"))
    rows = np.ascontiguousarray(X)  # a strided row would be summed by another kernel
    return np.array([_active_set(A, b, len(spec.equalities), names, x)
                     for x in rows]).reshape(X.shape)


def _min_norm_point(P: np.ndarray) -> tuple[np.ndarray, int]:
    """Wolfe's min-norm-point algorithm over conv(rows of P). Exact up to float."""
    n = P.shape[0]
    norms2 = np.einsum("ij,ij->i", P, P)
    scale = max(1.0, float(norms2.max(initial=0.0)))
    support = [int(np.argmin(norms2))]
    w = np.array([1.0])
    majors = 0
    for majors in range(1, 10 * n + 101):
        x = w @ P[support]
        xx = float(x @ x)
        dots = P @ x
        j = int(np.argmin(dots))
        if dots[j] >= xx - 1e-12 * scale or j in support:
            break
        support.append(j)
        w = np.append(w, 0.0)
        while True:
            Ps = P[support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = Ps @ Ps.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                alpha = np.linalg.solve(kkt, rhs)[:k]
            except np.linalg.LinAlgError:
                alpha = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if np.all(alpha >= -1e-12):
                w = np.maximum(alpha, 0.0)
                w /= w.sum()
                break
            shrink = alpha < 0.0
            denom = w - alpha
            ok = shrink & (denom > 1e-15)
            if not np.any(ok):
                w = np.maximum(alpha, 0.0)
                w /= max(w.sum(), 1e-30)
                break
            theta = float(np.min(w[ok] / denom[ok]))
            theta = min(max(theta, 0.0), 1.0)
            w = (1.0 - theta) * w + theta * alpha
            w[w < 1e-14] = 0.0
            keep = w > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alpha))] = True
                w[keep] = 1.0
            support = [s for s, k_ in zip(support, keep) if k_]
            w = w[keep]
            w /= w.sum()
    x = w @ P[support]
    return x, majors


def project_oracle(vertices, q) -> ProjectionResult:
    """Exact projection onto conv(vertices) by min-norm-point search.

    Ground truth for every other projection route; independent of the
    constraint descriptions entirely.
    """
    V = vertices.as_array() if hasattr(vertices, "as_array") else np.asarray(vertices, dtype=float)
    if V.shape[0] > ORACLE_VERTEX_LIMIT:
        raise ValueError(f"{V.shape[0]} vertices exceeds the oracle limit {ORACLE_VERTEX_LIMIT}")
    q = np.asarray(q, dtype=float)
    if q.shape != (V.shape[1],):
        raise ValueError(f"quote has shape {q.shape}, vertices have dimension {V.shape[1]}")
    _check_finite(q)
    x, majors = _min_norm_point(V - q)
    projected = q + x
    [(residual, _)] = _reported(None, q[None, :], projected[None, :])
    return ProjectionResult(projected, residual, majors, True)


def project_relation(relation: Relation, q) -> ProjectionResult:
    """Exact projection onto a catalog relation's polytope.

    Every relation answers through ``project_relation_batch`` on one row:
    the closed forms, the paraphrase mean and the Frechet face route alike,
    so the result is bit for bit that row of a batch and always reports
    one iteration, converged.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (relation.m,):
        raise ValueError(f"quote has shape {q.shape}, relation needs ({relation.m},)")
    _check_finite(q)
    projected = project_relation_batch(relation, q[None, :])
    [(residual, active)] = _reported(_polytope(relation), q[None, :], projected)
    return ProjectionResult(projected[0], residual, 1, True, active)


def project_local(polytope: PolytopeSpec, v: np.ndarray) -> np.ndarray:
    """Exact local repair of one quote, or of each row of an ``(n, dim)`` array.

    Clip for free boxes, a relation's own route, else ``project_active_set``
    (``InfeasibleCouplingError`` when the local set is empty). Unchecked for
    finiteness, like ``project_relation_batch``.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != polytope.dim:
        raise ValueError(f"quotes have shape {v.shape}, polytope needs (..., {polytope.dim})")
    if not polytope.equalities and not polytope.halfspaces:
        return _clip(v)
    X = np.atleast_2d(v)
    out = project_active_set(polytope, X) if polytope.relation is None \
        else project_relation_batch(polytope.relation, X)
    return out if v.ndim == 2 else out[0]


def project_hierarchical(comp: "CompositionSpec", q) -> ProjectionResult:
    """Project one quote onto the joint coherent set of ``comp``: the certificates'
    route (``composition._joint_projection``) on one row, reported as
    ``project_relation`` reports (one iteration, converged)."""
    from .composition import _joint_projection

    q = np.asarray(q, dtype=float)
    if q.shape != (comp.joint_dim,):
        raise ValueError(f"quote has shape {q.shape}, composition needs ({comp.joint_dim},)")
    _check_finite(q)
    x = _joint_projection(comp, q[None, :])
    [(residual, active)] = _reported(comp.joint_polytope, q[None, :], x)
    return ProjectionResult(x[0], residual, 1, True, active)
