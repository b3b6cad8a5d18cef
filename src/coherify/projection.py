"""L2 projection onto coherent polytopes.

One route per question: for a catalog relation, ``project_relation_batch``
projects many quotes exactly at once -- closed forms for a single affine
cut or a chain (negation, partition, ladder), the clipped mean for
paraphrase, and the nearest of the 15 face projections of a tetrahedron
for the two Frechet relations (conjunction, disjunction).
``project_relation`` answers one quote through the same batched route on
one row. ``project_oracle``, a min-norm-point search over vertex hulls,
is the independent ground truth that tests hold every route to. General
and composed systems go through one batched Boyle-Dykstra engine: one
exact local set plus the rows of one constraint system, with each row
stopping on its own and coming out as its own one-row call would. A cut
whose row is ``e_j +- e_k`` (equality chains, ladder steps, two-coordinate
sums and Frechet bounds) reads and writes only its two columns; every
other cut takes a full-width dot and axpy.

Plain alternating projection is not a substitute for Dykstra here: it
finds *a* feasible point, not the nearest one. The correction vectors are
what make the cycle converge to the exact L2 projection.
"""

from __future__ import annotations

import itertools
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
ORACLE_VERTEX_LIMIT = 4096
BLOCK_ENTRIES = 1 << 16  # entries per temporary of the isotonic and face routes

CLOSED_FORM_KINDS = frozenset(
    {RelationKind.NEGATION, RelationKind.PARTITION, RelationKind.LADDER}
)


class InfeasibleCouplingError(ValueError):
    """The joint constraint system has empty intersection."""


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
    faces = [list(S) for r in range(1, k + 1) for S in itertools.combinations(range(k), r)]
    G = np.zeros((len(faces), k + d, d))
    h = np.zeros((len(faces), k + d))
    for f, S in enumerate(faces):
        base = V[S[0]]
        E = V[S[1:]] - base  # edge vectors from the face's first vertex
        L = np.linalg.solve(E @ E.T, E)  # x - base -> coefficients of the edges
        M = np.vstack([-L.sum(axis=0), L])  # weights = M @ (x - base) + e_0
        P = np.eye(d) if len(S) == d + 1 else E.T @ L
        G[f, S] = M
        h[f, S] = -M @ base
        h[f, S[0]] += 1.0
        G[f, k:] = P
        h[f, k:] = base - P @ base
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


def _result(spec: PolytopeSpec | None, q, projected, iterations: int,
            converged: bool) -> ProjectionResult:
    q = np.asarray(q, dtype=float)
    projected = np.asarray(projected, dtype=float)
    residual = float(np.linalg.norm(q - projected))
    active = spec.most_violated(q) if spec is not None else None
    return ProjectionResult(projected, residual, iterations, converged, active)


def _simplex_rows(X: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex, sort form."""
    n, m = X.shape
    U = -np.sort(-X, axis=1)
    css = np.cumsum(U, axis=1)
    active = U * np.arange(1, m + 1) > (css - 1.0)
    rho = m - 1 - np.argmax(active[:, ::-1], axis=1)  # last active index; index 0 always is
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1.0)
    return np.maximum(X - theta[:, None], 0.0)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, O(m log m) sort form."""
    return _simplex_rows(np.asarray(v, dtype=float)[None, :])[0]


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
    ``t >= i``. Means come from row prefix sums. Rows go in blocks so that
    each ``(rows, m, m)`` temporary holds at most ``BLOCK_ENTRIES``
    entries.
    """
    n, m = X.shape
    length, below = _segment_grid(m)
    diag = np.arange(m)
    out = np.empty_like(X)
    step = max(1, BLOCK_ENTRIES // (m * m))
    for start in range(0, n, step):
        B = X[start:start + step]
        S = np.zeros((B.shape[0], m + 1))
        np.cumsum(B, axis=1, out=S[:, 1:])
        means = S[:, None, 1:] - S[:, :-1, None]  # [:, s, t]: sum of B[s..t]
        means /= length
        means += below  # no segment where t < s
        means[:, diag, diag] = B  # singletons exactly, so chain members map to themselves
        # upper[:, s, i]: largest mean over t >= i; then the smallest over s <= i
        upper = np.maximum.accumulate(means[:, :, ::-1], axis=2)[:, :, ::-1]
        out[start:start + step] = np.diagonal(np.minimum.accumulate(upper, axis=1),
                                              axis1=1, axis2=2)
    return out


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
        dist2 = np.sum((candidates - B[:, None, :]) ** 2, axis=2)
        dist2[np.any(Y[:, :, :k] < 0.0, axis=2)] = np.inf
        out[start:start + step] = candidates[np.arange(len(B)), np.argmin(dist2, axis=1)]
    return out


def project_relation_batch(relation: Relation, X) -> np.ndarray:
    """Exact projection of each row of ``X`` onto one catalog relation's polytope.

    negation shifts along (1, 1) onto r1 + r2 = 1, then clips; partition is
    the simplex sort form; paraphrase is the clipped row mean; ladder is
    non-increasing isotonic regression clipped to the unit box; conjunction
    and disjunction, whose hulls are tetrahedra, take the nearest
    nonnegative-weight projection onto one of the 15 faces, all faces of
    all rows at once. Each row's result does not depend on the other rows
    (nor on the memory layout of ``X``, which is made C-contiguous). Rows
    are not checked for finiteness: this runs inside every engine cycle,
    on rows that ``aggregate`` or a public route has already checked.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != relation.m:
        raise ValueError(f"quotes have shape {X.shape}, relation needs (n, {relation.m})")
    kind = relation.kind
    if kind is RelationKind.NEGATION:
        s = X[:, 0] + X[:, 1] - 1.0
        return np.clip(X - 0.5 * s[:, None], 0.0, 1.0)
    if kind is RelationKind.PARTITION:
        return _simplex_rows(X)
    if kind is RelationKind.PARAPHRASE:
        level = np.clip(np.mean(X, axis=1), 0.0, 1.0)
        return np.repeat(level[:, None], relation.m, axis=1)
    if kind is RelationKind.LADDER:
        return np.clip(_nonincreasing_rows(X), 0.0, 1.0)
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


def _pair(a: np.ndarray) -> tuple[int, int, float] | None:
    """``(j, k, sign)`` when the row ``a`` is ``e_j + sign * e_k`` with ``sign`` +-1, else None."""
    support = np.flatnonzero(a).tolist()
    if len(support) != 2:
        return None
    j, k = support if a[support[0]] == 1.0 else support[::-1]
    sign = float(a[k])
    return (j, k, sign) if a[j] == 1.0 and abs(sign) == 1.0 else None


def _cut_table(spec: PolytopeSpec) -> tuple:
    """The cycle's per-cut constants of ``spec``: ``(i, a, b, a . a, max|a|, is_halfspace, pair)``.

    One entry per row ``a`` of ``spec.A``, in order (equalities first).
    ``pair`` is ``_pair(a)``: ``(j, k, sign)`` for a row ``e_j + sign * e_k``
    (every equality, ladder-chain and negation-sum row, the two-coordinate
    partition-sums and the catalog's two-coordinate Frechet bounds), None
    for any other row.
    """
    A = spec.A
    return tuple(zip(range(len(A)), A, spec.b.tolist(), np.einsum("ij,ij->i", A, A).tolist(),
                     np.abs(A).max(axis=1, initial=0.0).tolist(),
                     [False] * len(spec.equalities) + [True] * len(spec.halfspaces),
                     [_pair(a) for a in A]))


def _cyclic(X: np.ndarray, local, cuts: tuple, tol: float, max_iter: int):
    """Batched Boyle-Dykstra cycle over one local set and a spec's linear rows.

    Rows of ``X`` are independent problems, and no row's arithmetic depends
    on the others: the row dots go through ``einsum``, where a BLAS
    ``X @ a`` sums a row differently with the batch around it. So each row
    comes out bit for bit as its own one-row call.

    Each cycle projects onto the local set with ``local`` (an exact
    row-wise projector that returns a new ``(n, d)`` array), then onto the
    hyperplane or halfspace of each cut of ``cuts`` (a spec's
    ``_cut_table``) in order; the spec's box is left to ``local``. The
    local set carries a correction array; each cut carries its multiplier
    ``t``, its correction being ``t * a``. A pair cut ``e_j + sign * e_k``
    reads and writes only columns ``j`` and ``k``: its dot is
    ``x_j + sign * x_k`` and its step goes into those two columns. That is
    the dense result bit for bit: both terms are exact, so any summation
    order rounds once, and ``x + step * -1.0`` is ``x - step``. Off the
    cut's support only a ``-0.0`` entry (which only a ``local`` can make;
    a dense axpy adds ``step * 0.0`` to it) and a NaN (which a dense dot
    spreads to every cut) can differ. Every other cut costs one row dot
    and one full-width axpy. A row stops once its largest correction
    change over a full cycle drops below ``tol``; the other rows go on
    without it.

    Returns, per row: the iterate, the cycle count and whether it
    converged. A row still cycling after ``max_iter`` cycles comes out as
    its last iterate with ``converged`` False; what that means (the cap
    was too low, or the intersection is empty) is left to the caller.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    X = np.ascontiguousarray(X)  # a strided row would be summed by another kernel
    n = len(X)
    out = np.empty_like(X)
    iterations = np.empty(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    live = np.arange(n)  # rows still cycling, as indices into X
    x = X
    P = np.zeros_like(X)
    T = [np.zeros(n)] * len(cuts)  # never written in place
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        y = x + P
        x = local(y)
        P_new = y - x
        delta = np.maximum.reduce(np.abs(P_new - P), axis=1)
        P = P_new
        for i, a, b, aa, a_max, halfspace, pair in cuts:
            if pair is None:
                t = np.einsum("ij,j->i", x, a)
            else:  # the two terms of a +-1 pair: one rounding, as in any einsum order
                j, k, sign = pair
                xj, xk = x[:, j], x[:, k]
                t = xj + xk if sign > 0 else xj - xk
            if b:
                t = t - b
            t = t / aa + T[i]
            if halfspace:
                t = np.maximum(t, 0.0)
            step = T[i] - t
            if pair is None:
                x += step[:, None] * a
            else:  # x + step * -1.0 is x - step
                xj += step
                if sign > 0:
                    xk += step
                else:
                    xk -= step
            T[i] = t
            change = np.abs(step)  # of the correction t * a: |step| * max|a|
            delta = np.maximum(delta, change if a_max == 1.0 else change * a_max)
        done = delta < tol
        if np.count_nonzero(done):
            rows = live[done]
            out[rows] = x[done]
            iterations[rows] = it
            converged[rows] = True
            keep = ~done
            live, x, P, T = live[keep], x[keep], P[keep], [t[keep] for t in T]
    out[live] = x
    iterations[live] = max_iter
    return out, iterations, converged


def project_dykstra(spec: PolytopeSpec, q, tol: float = DYKSTRA_TOL,
                    max_iter: int = DYKSTRA_MAX_ITER) -> ProjectionResult:
    """Boyle-Dykstra cyclic projection onto an equality/halfspace system.

    One quote through the shared cycle, with the box as a single clip set.
    Non-convergence is reported through ``converged=False``, never silently.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (spec.dim,):
        raise ValueError(f"quote has shape {q.shape}, polytope needs ({spec.dim},)")
    _check_finite(q)
    x, iterations, converged = _cyclic(q[None, :], _clip, _cut_table(spec), tol, max_iter)
    return _result(spec, q, x[0], iterations=int(iterations[0]), converged=bool(converged[0]))


def project_polytope_batch(spec: PolytopeSpec, X: np.ndarray, tol: float = DYKSTRA_TOL,
                           max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Dykstra on many quotes at once; each row equals its own ``project_dykstra`` projection."""
    X = np.asarray(X, dtype=float)
    _check_finite(X)
    return _cyclic(X, _clip, _cut_table(spec), tol, max_iter)[0]


def _min_norm_point(P: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, int]:
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
        if dots[j] >= xx - tol * scale or j in support:
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
    return _result(None, q, q + x, iterations=majors, converged=True)


def project_relation_results(relation: Relation, X) -> list[ProjectionResult]:
    """``project_relation`` for every row of ``X`` through one ``project_relation_batch`` call."""
    X = np.asarray(X, dtype=float)
    spec = _polytope(relation)
    return [_result(spec, q, p, iterations=1, converged=True)
            for q, p in zip(X, project_relation_batch(relation, X))]


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
    return project_relation_results(relation, q[None, :])[0]


def project_local(polytope: PolytopeSpec, v: np.ndarray) -> np.ndarray:
    """Exact local repair of one quote, or of each row of an ``(n, dim)`` array.

    Clip for free boxes, the relation's own route otherwise. Unchecked for
    finiteness, like ``project_relation_batch``: it runs inside every
    engine cycle.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != polytope.dim:
        raise ValueError(f"quotes have shape {v.shape}, polytope needs (..., {polytope.dim})")
    if not polytope.equalities and not polytope.halfspaces:
        return _clip(v)
    X = np.atleast_2d(v)
    if polytope.relation is not None:
        out = project_relation_batch(polytope.relation, X)
    else:  # no closed route: tight generic Dykstra (approximate at tol)
        out = _cyclic(X, _clip, _cut_table(polytope), 1e-12, DYKSTRA_MAX_ITER)[0]
    return out if v.ndim == 2 else out[0]


def _project_locals(comp: "CompositionSpec", Y: np.ndarray) -> np.ndarray:
    """Each row of ``Y`` onto the product of the lifted local polytopes.

    The box clip, then each constrained component's own route on its
    coordinates; row by row this is ``project_local`` on every component.
    """
    x = _clip(Y)
    for _, component in comp.constrained:
        coords = list(component.coords)
        x[:, coords] = project_local(component.polytope, Y[:, coords])
    return x


def _hierarchical_cycle(comp: "CompositionSpec", X: np.ndarray, tol: float = DYKSTRA_TOL,
                        max_iter: int = DYKSTRA_MAX_ITER):
    """``_cyclic`` over the product of the local polytopes and the coupling cuts."""
    return _cyclic(X, lambda Y: _project_locals(comp, Y), comp.system.cuts, tol, max_iter)


def _unconverged(comp: "CompositionSpec") -> Exception:
    """The error for a joint projection of ``comp`` that did not converge.

    The one place that reads ``has_feasible_point``: with a feasible point
    known the iteration cap was too low; without one the coupling may be
    empty, which is all that was checked.
    """
    if comp.has_feasible_point() is True:
        return RuntimeError("joint projection did not converge within the iteration cap")
    return InfeasibleCouplingError("joint projection did not converge; coupling may be empty")


def project_hierarchical(comp: "CompositionSpec", q, tol: float = DYKSTRA_TOL,
                         max_iter: int = DYKSTRA_MAX_ITER) -> ProjectionResult:
    """Project one quote onto the joint coherent set of ``comp``.

    One row of the cycle ``residual_batch`` runs. A quote still cycling
    after ``max_iter`` cycles raises ``_unconverged(comp)``, as a
    certificate does.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (comp.joint_dim,):
        raise ValueError(f"quote has shape {q.shape}, composition needs ({comp.joint_dim},)")
    _check_finite(q)
    x, iterations, converged = _hierarchical_cycle(comp, q[None, :], tol, max_iter)
    if not converged[0]:
        raise _unconverged(comp)
    return _result(comp.joint_polytope, q, x[0], iterations=int(iterations[0]), converged=True)
