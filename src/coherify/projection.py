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
exact local set plus the rows of one constraint system.

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


@dataclass(frozen=True)
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


def _most_violated(spec: PolytopeSpec, q: np.ndarray) -> str | None:
    worst_name, worst = None, 1e-12
    for name, v in spec.violations(q):
        if v > worst:
            worst_name, worst = name, v
    return worst_name


def _result(spec: PolytopeSpec | None, q, projected, iterations: int,
            converged: bool) -> ProjectionResult:
    q = np.asarray(q, dtype=float)
    projected = np.asarray(projected, dtype=float)
    residual = float(np.linalg.norm(q - projected))
    active = _most_violated(spec, q) if spec is not None else None
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
    all rows at once. Each row's result does not depend on the other rows.
    """
    X = np.asarray(X, dtype=float)
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
    return np.clip(y, 0.0, 1.0)


def _cyclic(X: np.ndarray, local, spec: PolytopeSpec, tol: float, max_iter: int):
    """Batched Boyle-Dykstra cycle over one local set and a spec's linear rows.

    Rows of ``X`` are independent problems. Each cycle projects onto the
    local set with ``local`` (an exact projector of an ``(n, d)`` array),
    then onto the hyperplane or halfspace of each row of ``spec.A`` in
    order (equalities first; the spec's box is left to ``local``),
    carrying one correction array per set; it stops when the largest
    correction change over a full cycle drops below ``tol``. Returns the
    iterate, the cycle count, whether it converged, the corrections' l1
    norm at cycle ``max_iter // 2`` (None if the cycle stopped first), and
    the final corrections.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_eq = len(spec.equalities)
    rows = list(enumerate(zip(spec.A, spec.b.tolist(),
                              np.einsum("ij,ij->i", spec.A, spec.A).tolist()), start=1))
    x = X.copy()
    corrections = np.zeros((1 + len(rows),) + x.shape)  # the local set's, then each row's
    converged = False
    iterations = 0
    mid_norm = None
    for iterations in range(1, max_iter + 1):
        y = x + corrections[0]
        x = local(y)
        p_new = y - x
        delta = float(np.max(np.abs(p_new - corrections[0])))
        corrections[0] = p_new
        for i, (a, b, aa) in rows:
            y = x + corrections[i]
            t = (y @ a - b) / aa
            if i > n_eq:
                np.maximum(t, 0.0, out=t)
            p_new = t[:, None] * a
            x = y - p_new
            delta = max(delta, float(np.max(np.abs(p_new - corrections[i]))))
            corrections[i] = p_new
        if delta < tol:
            converged = True
            break
        if iterations == max_iter // 2:
            mid_norm = float(np.sum(np.abs(corrections)))
    return x, iterations, converged, mid_norm, corrections


def project_dykstra(spec: PolytopeSpec, q, tol: float = DYKSTRA_TOL,
                    max_iter: int = DYKSTRA_MAX_ITER) -> ProjectionResult:
    """Boyle-Dykstra cyclic projection onto an equality/halfspace system.

    One quote through the shared cycle, with the box as a single clip set.
    Non-convergence is reported through ``converged=False``, never silently.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (spec.dim,):
        raise ValueError(f"quote has shape {q.shape}, polytope needs ({spec.dim},)")
    x, iterations, converged, _, _ = _cyclic(q[None, :], _clip, spec, tol, max_iter)
    return _result(spec, q, x[0], iterations=iterations, converged=converged)


def project_polytope_batch(spec: PolytopeSpec, X: np.ndarray, tol: float = DYKSTRA_TOL,
                           max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Dykstra on many quotes at once; rows of ``X`` are independent problems."""
    X = np.asarray(X, dtype=float)
    return _cyclic(X, _clip, spec, tol, max_iter)[0]


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
    x, majors = _min_norm_point(V - q)
    return _result(None, q, q + x, iterations=majors, converged=True)


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
    projected = project_relation_batch(relation, q[None, :])[0]
    return _result(_polytope(relation), q, projected, iterations=1, converged=True)


def project_local(polytope: PolytopeSpec, v: np.ndarray) -> np.ndarray:
    """Exact local repair: clip for free boxes, relation dispatch otherwise."""
    v = np.asarray(v, dtype=float)
    if not polytope.equalities and not polytope.halfspaces:
        return np.clip(v, 0.0, 1.0)
    if polytope.relation is not None:
        return project_relation(polytope.relation, v).projected
    # no closed route: tight generic Dykstra (approximate at tol)
    return project_dykstra(polytope, v, tol=1e-12).projected


def project_hierarchical(comp: "CompositionSpec", q, tol: float = DYKSTRA_TOL,
                         max_iter: int = DYKSTRA_MAX_ITER) -> ProjectionResult:
    """Dykstra cycle over the lifted local polytopes (one product set) and each coupling cut.

    Converges to the projection onto the joint coherent set, i.e. agrees
    with running ``project_dykstra`` on the assembled joint constraint
    system. An empty intersection makes the corrections grow without
    bound: when the cycle has not converged by ``max_iter`` and the
    corrections' l1 norm exceeds 1 and grew by more than half since cycle
    ``max_iter // 2``, ``InfeasibleCouplingError`` is raised unless
    ``comp.has_feasible_point()`` finds a product vertex that meets every
    coupling cut.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (comp.joint_dim,):
        raise ValueError(f"quote has shape {q.shape}, composition needs ({comp.joint_dim},)")
    constrained = [(list(c.coords), c.polytope) for c in comp.components
                   if c.polytope.equalities or c.polytope.halfspaces]

    def local(y: np.ndarray) -> np.ndarray:
        x = _clip(y)
        for coords, polytope in constrained:
            x[0, coords] = project_local(polytope, y[0, coords])
        return x

    x, iterations, converged, mid_norm, corrections = _cyclic(
        q[None, :], local, comp.coupling_polytope, tol, max_iter
    )
    if not converged:
        end_norm = float(np.sum(np.abs(corrections)))
        # empty intersections make the corrections grow without bound
        diverging = (
            mid_norm is not None and end_norm > 1.0 and end_norm > 1.5 * mid_norm + 1e-6
        )
        if diverging and comp.has_feasible_point() is not True:
            raise InfeasibleCouplingError(
                "correction vectors diverge and no feasible point is known; "
                "the coupling intersection is empty"
            )
    return _result(comp.joint_polytope, q, x[0], iterations=iterations, converged=converged)
