"""L2 projection onto coherent polytopes.

One route per question: for a catalog relation, ``project_relation_batch``
projects many quotes exactly at once -- closed forms for a single affine
cut or a chain (negation, partition, ladder), the clipped mean for
paraphrase, and the nearest of the 15 face projections of a tetrahedron
for the two Frechet relations (conjunction, disjunction).
``project_relation`` answers one quote through the same batched route on
one row. ``project_oracle``, a min-norm-point search over vertex hulls,
is the independent ground truth that tests hold every route to. A
composition whose joint set is one catalog polytope takes the exact route
too. Any other system goes through one batched Boyle-Dykstra engine, the
only route with an iteration cap to miss: one exact local set plus the rows
of one constraint system, each row stopping as its own one-row call would. Cuts
whose rows are ``e_j +- e_k`` (equality chains, ladder steps, two-coordinate
sums and Frechet bounds) are swept in blocks of cuts on disjoint columns,
each block in one step on two strided column views: a chain over evenly
spaced coordinates is two blocks, its even links and then its odd links
(the multicolour order of Gauss-Seidel; Dykstra's limit is the same for
any fixed cyclic order), and any other such cut is a block of one. Every
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
# entries per temporary of the face route and of the isotonic row path; the
# row path takes fewer than ``COLUMN_ROWS`` rows, so it splits them only for m > 32
BLOCK_ENTRIES = 1 << 16
COLUMN_ROWS = 64  # rows from which the isotonic kernel runs coordinate-major
CUT_TABLE_CACHE_SIZE = 256  # cut tables kept per process

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


def _nonincreasing_columns(X: np.ndarray) -> np.ndarray:
    """``_nonincreasing_rows`` coordinate-major: prefix sums laid out ``(m + 1, n)``
    and one segment ``(s, t)`` at a time, every ufunc on a contiguous length-``n`` vector."""
    n, m = X.shape
    XT = np.ascontiguousarray(X.T)
    S = np.zeros((m + 1, n))
    np.cumsum(XT, axis=0, out=S[1:])
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
        dist2 = np.sum((candidates - B[:, None, :]) ** 2, axis=2)
        dist2[np.any(Y[:, :, :k] < 0.0, axis=2)] = np.inf
        out[start:start + step] = candidates[np.arange(len(B)), np.argmin(dist2, axis=1)]
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


@lru_cache(maxsize=CUT_TABLE_CACHE_SIZE)
def _cut_table(spec: PolytopeSpec) -> tuple:
    """The cycle's sweep over ``spec``'s rows, one entry per step, built once per spec.

    An entry is ``(a, b, a . a, max|a|, is_halfspace, block, columns)``.
    Rows keep the order of ``spec.A`` (equalities first), except that the
    pair rows ``e_j + sign * e_k`` (``_pair``) are swept in blocks. A run
    of pair rows that share ``b``, ``a . a``, sign and kind and form a
    chain -- row ``t`` reads columns ``j + t * d`` and ``k + t * d`` with
    ``|d| = |k - j|``, as an equality or ladder chain over evenly spaced
    coordinates does -- becomes two blocks in its place: its even links,
    then its odd links. Every other pair row is a block of one. The cuts
    of a block touch pairwise-disjoint columns; for a block, ``a`` stacks
    its rows and ``block`` is ``(js, ks, sign)``, where the basic slices
    ``js`` and ``ks`` pick the ``j`` and ``k`` columns of the rows of
    ``a`` in order. ``block`` is None for a dense row (any other row),
    whose ``a`` is the row itself. ``columns`` slices the step's cuts out
    of ``_cyclic``'s array of correction changes: one column per cut, in
    sweep order, after the ``spec.dim`` columns of the local set.
    """
    A = spec.A
    rows = list(zip(A, spec.b.tolist(), np.einsum("ij,ij->i", A, A).tolist(),
                    np.abs(A).max(axis=1, initial=0.0).tolist(),
                    [False] * len(spec.equalities) + [True] * len(spec.halfspaces)))
    pairs = [_pair(a) for a in A]
    table = []
    col = spec.dim  # each step's column of the cycle's correction changes
    i = 0
    while i < len(rows):
        if pairs[i] is None:
            table.append(rows[i] + (None, slice(col, col + 1)))
            col += 1
            i += 1
            continue
        j, k, sign = pairs[i]
        shared = (rows[i][1:], sign)
        end = i + 1
        for d in (k - j, j - k):  # the chain runs one way along its coordinates
            while (end < len(rows) and pairs[end] is not None
                   and (rows[end][1:], pairs[end][2]) == shared
                   and pairs[end][:2] == (j + (end - i) * d, k + (end - i) * d)):
                end += 1
            if end > i + 1:
                break
        links = end - i
        for p in range(min(links, 2)):  # the even links, then the odd ones
            ts = range(p, links, 2)[::1 if d > 0 else -1]  # links in ascending column order
            js, ks = (slice(c + ts[0] * d, c + ts[-1] * d + 1, 2 * abs(d)) for c in (j, k))
            a = A[[i + t for t in ts]]
            a.setflags(write=False)  # the table is cached, so every caller shares it
            table.append((a,) + rows[i][1:] + ((js, ks, sign), slice(col, col + len(ts))))
            col += len(ts)
        i = end
    return tuple(table)


def _cyclic(X: np.ndarray, local, cuts: tuple, tol: float, max_iter: int):
    """Batched Boyle-Dykstra cycle over one local set and a spec's linear rows.

    Rows of ``X`` are independent problems, and no row's arithmetic depends
    on the others: the row dots go through ``einsum``, where a BLAS
    ``X @ a`` sums a row differently with the batch around it. So each row
    comes out bit for bit as its own one-row call.

    Each cycle projects onto the local set with ``local`` (an exact
    row-wise projector that returns a new ``(n, d)`` array), then sweeps
    the steps of ``cuts`` (a spec's ``_cut_table``) in order; the spec's
    box is left to ``local``. The local set carries a correction array;
    each cut carries its multiplier ``t``, its correction being ``t * a``.
    A dense step costs one row dot and one full-width axpy. A block step
    projects all its cuts ``e_j + sign * e_k`` at once, with one set of
    ufunc calls on the column views ``x[:, js]`` and ``x[:, ks]``: the dot
    of each cut is ``x_j + sign * x_k``, and its step goes into its two
    columns. The cuts of a block touch disjoint columns, so this is the
    one-cut-at-a-time dense sweep over them bit for bit: both terms of a
    dot are exact, so any summation order rounds once, and ``x + step *
    -1.0`` is ``x - step``. Off a cut's support only a ``-0.0`` entry
    (which only a ``local`` can make; a dense axpy adds ``step * 0.0`` to
    it) and a NaN (which a dense dot spreads to every cut) can differ. A
    row stops once its largest correction change over a full cycle drops
    below ``tol``; the other rows go on without it.

    Returns, per row: the iterate, the cycle count and whether it
    converged. A row still cycling after ``max_iter`` cycles comes out as
    its last iterate with ``converged`` False; what that means (the cap
    was too low, or the intersection is empty) is left to the caller.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.ascontiguousarray(X)  # a strided row would be summed by another kernel
    n, d = x.shape
    if not n:  # an empty batch runs no cycle
        return np.empty_like(x), np.empty(0, dtype=int), np.empty(0, dtype=bool)
    # corrections and multipliers start at 0.0, which adds as a zero array would
    P = 0.0
    T = [0.0] * len(cuts)
    # each cycle's correction changes: the local set's in the first d columns,
    # then each cut's in its own column (the ``columns`` of its cut-table step)
    D = np.empty((n, cuts[-1][-1].stop if cuts else d))
    local_change, changes = D[:, :d], [D[:, col] for *_, col in cuts]
    live = None  # every row of X while none has stopped; then the live rows' indices
    for it in range(1, max_iter + 1):
        y = x + P
        x = local(y)
        P_new = y - x
        np.abs(np.subtract(P_new, P, out=local_change), out=local_change)
        P = P_new
        for i, (a, b, aa, a_max, halfspace, block, _) in enumerate(cuts):
            if block is None:
                t = np.einsum("ij,j->i", x, a)
            else:
                js, ks, sign = block
                xj, xk = x[:, js], x[:, ks]
                t = xj + xk if sign > 0 else xj - xk
            if b:
                t = t - b
            t = t / aa + T[i]
            if halfspace:
                t = np.maximum(t, 0.0)
            step = T[i] - t
            T[i] = t
            if block is None:
                step = step[:, None]
                x += step * a
            else:  # x + step * -1.0 is x - step
                xj += step
                if sign > 0:
                    xk += step
                else:
                    xk -= step
            change = np.abs(step, out=changes[i])  # of the correction t * a: |step| * max|a|
            if a_max != 1.0:
                change *= a_max
        done = np.maximum.reduce(D, axis=1) < tol
        stopped = np.count_nonzero(done)
        if not stopped:
            continue
        if live is None:
            if stopped == n:  # every row in the same cycle: the iterate is the output
                return x, np.full(n, it), done
            live = np.arange(n)
            out = np.empty_like(x)
            iterations = np.full(n, max_iter)
            converged = np.zeros(n, dtype=bool)
        rows = live[done]
        out[rows] = x[done]
        iterations[rows] = it
        converged[rows] = True
        if stopped == len(live):
            return out, iterations, converged
        keep = ~done
        live, x, P, D, T = live[keep], x[keep], P[keep], D[keep], [t[keep] for t in T]
        local_change, changes = D[:, :d], [D[:, col] for *_, col in cuts]
    if live is None:  # a copy: with max_iter < 1 no cycle ran, and x is still X
        return x.copy(), np.full(n, max_iter), np.zeros(n, dtype=bool)
    out[live] = x
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
    local = (lambda Y: _project_locals(comp, Y)) if comp.constrained else _clip
    return _cyclic(X, local, comp.system.cuts, tol, max_iter)


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

    One row of the cycle, which ``residual_batch`` skips for one catalog
    polytope. A quote still cycling after ``max_iter`` cycles raises
    ``_unconverged(comp)``, as a certificate does.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (comp.joint_dim,):
        raise ValueError(f"quote has shape {q.shape}, composition needs ({comp.joint_dim},)")
    _check_finite(q)
    x, iterations, converged = _hierarchical_cycle(comp, q[None, :], tol, max_iter)
    if not converged[0]:
        raise _unconverged(comp)
    return _result(comp.joint_polytope, q, x[0], iterations=int(iterations[0]), converged=True)
