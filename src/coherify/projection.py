"""L2 projection onto coherent polytopes.

One route per question: for a catalog relation, ``project_relation_batch``
projects many quotes exactly at once -- closed forms for a single affine
cut or a chain (negation, partition, ladder), the clipped mean for
paraphrase, and an exact min-norm-point oracle over vertex hulls for the
Frechet relations, which is also the ground truth. ``project_relation``
answers one quote the same way, through the batched route on one row or,
for the Frechet relations, through ``project_oracle``, which also reports
its major cycles. General and composed systems go through one batched
Boyle-Dykstra engine: one exact local set plus a list of linear rows.

Plain alternating projection is not a substitute for Dykstra here: it
finds *a* feasible point, not the nearest one. The correction vectors are
what make the cycle converge to the exact L2 projection.
"""

from __future__ import annotations

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
ISOTONIC_BLOCK = 1 << 16  # entries per (rows, m, m) temporary of the isotonic min-max formula

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
    each ``(rows, m, m)`` temporary holds at most ``ISOTONIC_BLOCK``
    entries.
    """
    n, m = X.shape
    length, below = _segment_grid(m)
    diag = np.arange(m)
    out = np.empty_like(X)
    step = max(1, ISOTONIC_BLOCK // (m * m))
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


def project_relation_batch(relation: Relation, X) -> np.ndarray:
    """Exact projection of each row of ``X`` onto one catalog relation's polytope.

    negation shifts along (1, 1) onto r1 + r2 = 1, then clips; partition is
    the simplex sort form; paraphrase is the clipped row mean; ladder is
    non-increasing isotonic regression clipped to the unit box; conjunction
    and disjunction run the min-norm-point oracle row by row over the
    relation's vertices.
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
    V = _vertex_array(relation)
    return np.array([q + _min_norm_point(V - q)[0] for q in X]).reshape(X.shape)


def _exact(relation: Relation, q) -> ProjectionResult:
    """One quote through ``project_relation_batch``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (relation.m,):
        raise ValueError(f"quote has shape {q.shape}, relation needs ({relation.m},)")
    projected = project_relation_batch(relation, q[None, :])[0]
    return _result(_polytope(relation), q, projected, iterations=1, converged=True)


def project_closed_form(relation: Relation, q) -> ProjectionResult:
    """Closed-form projections: negation, partition, ladder.

    One quote through ``project_relation_batch``: negation maps (q1, q2) to
    ((1+q1-q2)/2, (1-q1+q2)/2) clipped to the unit box; partition is the
    simplex sort algorithm; ladder is non-increasing isotonic regression
    clipped to the unit box.
    """
    if relation.kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"no closed-form projection for relation {relation.kind.value}")
    return _exact(relation, q)


Row = tuple[np.ndarray, float, float, bool, str]  # (a, b, a.a, is_equality, name)


def _rows(spec: PolytopeSpec) -> list[Row]:
    """A spec's equality rows, then its halfspace rows ``a . r <= b``."""
    n_eq = len(spec.equalities)
    return [(a, float(b), float(a @ a), i < n_eq, c.name)
            for i, (a, b, c) in enumerate(zip(spec.A, spec.b, spec.equalities + spec.halfspaces))]


def _clip(y: np.ndarray) -> np.ndarray:
    return np.clip(y, 0.0, 1.0)


def _cyclic(X: np.ndarray, local, rows: list[Row], tol: float, max_iter: int):
    """Batched Boyle-Dykstra cycle over one local set and linear rows.

    Rows of ``X`` are independent problems. Each cycle projects onto the
    local set with ``local`` (an exact projector of an ``(n, d)`` array),
    then onto each row's hyperplane or halfspace, carrying one correction
    array per set; it stops when the largest correction change over a full
    cycle drops below ``tol``. Returns the iterate, the cycle count,
    whether it converged, the corrections' l1 norm at cycle
    ``max_iter // 2`` (None if the cycle stopped first), and the final
    corrections.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
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
        for i, (a, b, aa, is_eq, _) in enumerate(rows, start=1):
            y = x + corrections[i]
            t = (y @ a - b) / aa
            if not is_eq:
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
    x, iterations, converged, _, _ = _cyclic(q[None, :], _clip, _rows(spec), tol, max_iter)
    return _result(spec, q, x[0], iterations=iterations, converged=converged)


def project_polytope_batch(spec: PolytopeSpec, X: np.ndarray, tol: float = DYKSTRA_TOL,
                           max_iter: int = DYKSTRA_MAX_ITER) -> np.ndarray:
    """Dykstra on many quotes at once; rows of ``X`` are independent problems."""
    X = np.asarray(X, dtype=float)
    return _cyclic(X, _clip, _rows(spec), tol, max_iter)[0]


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

    Closed forms where they exist (``project_closed_form``) and the clipped
    mean for paraphrase, both through ``project_relation_batch`` on one
    row, and the vertex-hull oracle for the two Frechet relations, which
    reports its major cycles.
    """
    if relation.kind in CLOSED_FORM_KINDS:
        return project_closed_form(relation, q)
    if relation.kind is RelationKind.PARAPHRASE:
        return _exact(relation, q)
    q = np.asarray(q, dtype=float)
    res = project_oracle(_vertex_array(relation), q)
    return ProjectionResult(res.projected, res.residual, res.iterations, res.converged,
                            _most_violated(_polytope(relation), q))


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
    system. Empty intersections are caught by a vertex pre-check at small
    joint dimension and by correction-norm divergence otherwise.
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
        q[None, :], local, _rows(comp.coupling_polytope), tol, max_iter
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
