"""Collision operators: conservative BGK relaxation and a direct-quadrature
Boltzmann integral for small velocity grids.

Both operators preserve the discrete collision invariants (mass, momentum,
kinetic energy) by construction rather than by accident of resolution:

* ``bgk_collide`` relaxes toward a *discrete* Maxwellian whose grid moments
  match those of f exactly (a per-node Newton solve on its natural
  parameters), then applies the exponential update
  ``f <- exp(-dt/tau) f + (1 - exp(-dt/tau)) M``, which is unconditionally
  positivity-preserving.  Because the matched Maxwellian is the Gibbs
  minimizer of ``sum f log f`` under the moment constraints, the update also
  never increases the discrete entropy.  The match returns M's per-axis
  factors; the update forms M block by block as it blends it into f
  itself (``in_place``) or into a copy of f.

* ``boltzmann_collide_direct`` evaluates the gain/loss integral with the
  sigma-representation of post-collision velocities

      xi'  = (xi + xi1)/2 + (|xi - xi1|/2) sigma,
      xi1' = (xi + xi1)/2 - (|xi - xi1|/2) sigma,

  sigma ranging over the admissible half sphere sigma.(xi - xi1) >= 0, with
  the hard-sphere kernel b = |xi - xi1|^gamma / measure(S+^{d-1}) (gamma = 1
  by default).  The raw quadrature breaks the invariants at interpolation
  accuracy, so the result is orthogonally projected (in the midpoint-weighted
  inner product) onto the complement of span{1, xi, |xi|^2}.  It is a
  verification oracle: d = 2 only, n_v <= 32.  As xi1'(xi, xi1) = xi'(xi1, xi)
  bit for bit (the center and |xi - xi1| are symmetric in the pair, sigma
  changes sign exactly), one bilinear stencil of xi' per angle gives both
  post-collision values for every spatial node of a block; a block's gain
  accumulator holds at most DIRECT_SCRATCH_BYTES (one block on 4 x 4 nodes
  up to n_v = 24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    PhaseField,
    VelocityGrid,
    _feature_matrix,
    cached_operator,
    kernel_workers,
    moments,
    split_parts,
    state_to_write,
)

__all__ = [
    "CollisionConfig",
    "CollisionMomentError",
    "post_collision_velocities",
    "match_discrete_maxwellian",
    "bgk_collide",
    "boltzmann_collide_direct",
]

DIRECT_MAX_NV = 32
DIRECT_SCRATCH_BYTES = 64 << 20  # bytes of the direct quadrature's gain per node block
ROUNDING_RESIDUAL = 8.0 * np.finfo(float).eps  # a match's residual at rounding level


class CollisionMomentError(RuntimeError):
    """Moment-matched Maxwellian construction failed (corrupted state)."""


@dataclass(frozen=True)
class CollisionConfig:
    """Collision model selection.

    kind : "none", "bgk", or "direct"
    tau : BGK relaxation time (> 0 and finite)
    gamma : kernel exponent, b ~ |xi - xi1|^gamma (hard sphere: 1)
    n_sigma : angular quadrature points on the admissible half circle
    """

    kind: str = "none"
    tau: float = 0.1
    gamma: float = 1.0
    n_sigma: int = 16

    def __post_init__(self) -> None:
        if self.kind not in ("none", "bgk", "direct"):
            raise ValueError(f"unknown collision kind {self.kind!r}")
        if self.kind == "bgk" and not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if self.n_sigma < 8 or self.n_sigma % 2 != 0:
            raise ValueError(f"n_sigma must be even and >= 8, got {self.n_sigma}")


def post_collision_velocities(xi, xi1, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Post-collision pair for unit sigma on the admissible half sphere.

    Conserves momentum and kinetic energy identically: xi' + xi1' = xi + xi1
    and |xi'|^2 + |xi1'|^2 = |xi|^2 + |xi1|^2.  Rejects non-unit sigma.
    """
    xi = np.asarray(xi, dtype=float)
    xi1 = np.asarray(xi1, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if abs(float(np.sqrt((sigma**2).sum())) - 1.0) > 1e-12:
        raise ValueError("sigma must be a unit vector")
    center = 0.5 * (xi + xi1)
    radius = 0.5 * float(np.sqrt(((xi - xi1) ** 2).sum()))
    return center + radius * sigma, center - radius * sigma


# ---------------------------------------------------------------------------
# BGK: discrete-moment-matched Maxwellian via batched Newton.
# ---------------------------------------------------------------------------


@cached_operator
def _axis_powers(v_grid: VelocityGrid) -> np.ndarray:
    """Powers xi^p (p = 0..4) of the axis nodes, shape (5, n_v)."""
    return v_grid.axis_nodes()[None, :] ** np.arange(5)[:, None]


@cached_operator
def _gram_map(d: int) -> np.ndarray:
    """Counts C with gram = monomial moments @ C, shape (5^d, (d+2)^2).

    Entry (i, j) of the Gram matrix is the sum of the moments of the
    monomials in phi_i phi_j for the invariants phi = (1, xi, |xi|^2); each
    invariant is a list of exponents.
    """
    unit = np.eye(d, dtype=int)
    basis = [[np.zeros(d, dtype=int)]] + [[e] for e in unit] + [list(2 * unit)]
    counts = np.zeros((5,) * d + (d + 2, d + 2))
    for i in range(d + 2):
        for j in range(d + 2):
            for p in basis[i]:
                for q in basis[j]:
                    counts[tuple(p + q) + (i, j)] += 1.0
    return counts.reshape(5**d, (d + 2) ** 2)


def match_discrete_maxwellian(
    v_grid: VelocityGrid,
    rho: np.ndarray,
    current: np.ndarray,
    energy2: np.ndarray,
    rtol: float = 1e-13,
    max_iter: int = 60,
) -> np.ndarray:
    """Discrete Maxwellians matching given grid moments exactly, factored.

    Parameters are batched over nodes: ``rho`` (m,), ``current`` (m, d), and
    ``energy2 = sum |xi|^2 f h_v^d`` (m,).  Returns the per-axis factors,
    shape (m, d, n_v): node k's Maxwellian is the outer product of
    ``factors[k, 0]``, ..., ``factors[k, d-1]`` (in 1-d, ``factors[:, 0]``
    is M itself), and its *discrete* moments reproduce the targets to
    relative accuracy ``rtol``.  Nodes with rho = 0 get zero factors, so
    the zero function.  Raises CollisionMomentError (with the worst node
    index) for non-realizable moments or a stalled parameter solve.

    Newton runs on the natural parameters eta of M = exp(eta_0 + eta . xi +
    eta_{d+1} |xi|^2), the Lagrange multipliers of the moment constraints; the
    Jacobian is the Gram matrix of (1, xi, |xi|^2) under M, from per-axis power
    sums.  Each iterate's factors are computed into one buffer, and the
    returned ones are those at convergence: one Newton step after the
    residual test passes, or at once if the residual is already at rounding
    level.
    """
    d = v_grid.dimension
    rho = np.asarray(rho, dtype=float)
    current = np.asarray(current, dtype=float).reshape(len(rho), d)
    energy2 = np.asarray(energy2, dtype=float)
    m = len(rho)

    if m and np.minimum.reduce(rho) > 0.0:  # every node has mass: no gathers
        idx, r, j, e2 = range(m), rho, current, energy2
    else:
        if np.any(rho < 0.0):
            node = int(np.argmin(rho))
            raise CollisionMomentError(f"negative density at node {node}: {rho[node]:g}")
        active = rho > 0.0
        if not np.any(active):
            return np.zeros((m, d, v_grid.n_v))
        idx = np.nonzero(active)[0]
        r, j, e2 = rho[idx], current[idx], energy2[idx]

    u = j / r[:, None]
    theta = (e2 / r - np.add.reduce(u**2, axis=1)) / d
    if np.fmin.reduce(theta) <= 0.0:  # fmin skips NaN, as any(theta <= 0) does
        bad = idx[int(np.argmin(theta))]
        raise CollisionMomentError(
            f"non-realizable moments at node {bad}: inferred temperature <= 0"
        )

    powers = _axis_powers(v_grid)
    targets = np.concatenate([r[:, None], j, e2[:, None]], axis=1)  # (m', d+2)
    scale = np.maximum(np.abs(targets), r[:, None] * np.maximum(1.0, theta)[:, None])

    # eta is held in the variable x = xi - u with u = J / rho fixed, starting
    # at the continuous Maxwellian; in xi the terms of the exponent would
    # grow like |u|^2 / theta and cancel near the peak.  Sharing eta_0 across
    # the per-axis factors, each peaks near exp(log amplitude / d), so it
    # underflows only where M does.  The start is at least h_v / 2 wide: a
    # narrower Gaussian lands on one node per axis, where the Gram matrix is
    # singular, and the discrete match of a cold state is wider than theta.
    x = powers[1] - u[:, :, None]  # (m', d, n_v)
    width = np.maximum(theta, 0.25 * v_grid.h_v**2)
    eta = np.zeros(targets.shape)
    eta[:, 0] = np.log(r) - 0.5 * d * np.log(2.0 * np.pi * width)
    eta[:, -1] = -0.5 / width

    g = np.empty(x.shape)  # (m', d, n_v): each iterate's factors
    polished = False
    for it in range(max_iter):
        np.multiply(eta[:, -1, None, None], x, out=g)
        if it:  # eta_1..d start at 0, and adding 0 here changes no bit of M
            g += eta[:, 1 : 1 + d, None]
        g *= x
        g += eta[:, :1, None] / d
        np.exp(g, out=g)
        sums = (g.reshape(-1, v_grid.n_v) @ powers.T).reshape(len(r), d, 5)
        table = v_grid.weight * sums[:, 0]  # (m', 5): monomial moments in xi_1
        if d == 2:
            table = table[:, :, None] * sums[:, 1, None, :]  # (m', 5, 5)
        gram = (table.reshape(len(r), -1) @ _gram_map(d)).reshape(len(r), d + 2, d + 2)
        resid = gram[:, :, 0] - targets
        worst = float(np.maximum.reduce(np.abs(resid / scale), axis=None))
        # Past the test, one more step takes the residual to rounding level
        # (a few ulps), so M does not depend on where below rtol it passed.
        if worst <= rtol and (polished or worst <= ROUNDING_RESIDUAL):
            break
        polished = worst <= rtol
        try:
            step = np.linalg.solve(gram, -resid[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise CollisionMomentError(f"singular moment Jacobian: {exc}") from exc
        # Per-node damping: |eta_{d+1}| changes by at most half per step, so
        # eta_{d+1} stays < 0 (theta > 0) and M cannot collapse in one step.
        step /= np.maximum(1.0, np.abs(step[:, -1:]) / (-0.5 * eta[:, -1:]))
        # The step is in the multipliers of (1, xi, |xi|^2); in x = xi - u
        # it reads (s_0 + s . u + s_{d+1} |u|^2, s + 2 s_{d+1} u, s_{d+1}).
        step[:, 0] += np.add.reduce((step[:, 1 : 1 + d] + step[:, -1:] * u) * u, axis=1)
        step[:, 1 : 1 + d] += 2.0 * step[:, -1:] * u
        eta += step
    if not worst <= rtol:  # also when the residual is NaN
        bad = idx[int(np.argmax(np.abs(resid / scale).max(axis=1)))]
        raise CollisionMomentError(
            f"moment matching stalled at node {bad}; relative residual {worst:g}"
        )
    if len(r) == m:
        return g
    factors = np.zeros((m, d, v_grid.n_v))  # zero at the rho = 0 nodes
    factors[idx] = g
    return factors


def bgk_collide(f: PhaseField, tau: float, dt: float, *, in_place: bool = False) -> PhaseField:
    """Exponential BGK update toward the discrete-moment-matched Maxwellian.

    f_new = exp(-dt/tau) f + (1 - exp(-dt/tau)) M*, which preserves the
    discrete invariants to the Maxwellian matching tolerance, preserves
    positivity for any dt, and does not increase sum f log f.  f_new is
    written over ``f`` with ``in_place``, else over a copy (see
    grids.state_to_write), which is returned: M*'s factors come from the
    moments of f before anything is written, and M* is formed in worker
    scratch and blended into f a block of n_v nodes at a time over worker
    threads (the whole state in 1-d, whose factor is M* itself).
    """
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not 0.0 <= dt < np.inf:
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    f = state_to_write(f, in_place)
    macro = moments(f)
    d = f.x_grid.dimension
    m = macro.rho.size
    rho = macro.rho.reshape(m)
    cur = macro.current.reshape(d, m).T
    e2 = 2.0 * macro.e_kin.reshape(m)
    factors = match_discrete_maxwellian(f.v_grid, rho, cur, e2)
    decay = float(np.exp(-dt / tau))
    block = m if d == 1 else f.v_grid.n_v  # nodes per part
    parts = -(-m // block)
    if d == 2:
        scratch = np.empty((kernel_workers(parts), block) + f.v_grid.shape)
    nodes = f.values.reshape((m,) + f.v_grid.shape)

    def blend(worker: int, part: int) -> None:
        b = slice(part * block, (part + 1) * block)
        maxw = factors[b, 0]
        if d == 2:
            maxw = np.multiply(maxw[:, :, None], factors[b, 1, None, :],
                               out=scratch[worker, : len(maxw)])
        maxw *= 1.0 - decay
        nodes[b] *= decay
        nodes[b] += maxw

    split_parts(blend, parts)
    return f


# ---------------------------------------------------------------------------
# Direct quadrature of the Boltzmann integral (oracle scale, d = 2).
# ---------------------------------------------------------------------------


def _project_out_invariants(v_grid: VelocityGrid, q: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the complement of span{1, xi, |xi|^2}.

    The columns (1, xi, |xi|^2 / 2) h_v^d of the feature matrix span the
    invariants, and the projection does not depend on their scale.
    """
    feats = _feature_matrix(v_grid)[:, : v_grid.dimension + 2]
    coef = np.linalg.solve(feats.T @ feats, feats.T @ q.ravel())
    return q - (feats @ coef).reshape(q.shape)


def boltzmann_collide_direct(f: PhaseField, config: CollisionConfig) -> np.ndarray:
    """Collision term Q(f, f) on the phase grid, invariant-projected.

    Restricted to d = 2 and n_v <= 32 (cost grows like n_v^4 n_sigma per
    spatial node); intended as an independent check of the BGK surrogate,
    not as a time-stepping model.  One bilinear stencil of xi' per angle
    serves every node of a block of spatial nodes, whose gain accumulator
    holds at most DIRECT_SCRATCH_BYTES, and both post-collision velocities:
    the xi1' values are the pair transpose of the xi' values.
    """
    if f.dimension != 2:
        raise ValueError("direct collision quadrature is implemented for d = 2 only")
    vg = f.v_grid
    n = vg.n_v
    if n > DIRECT_MAX_NV:
        raise ValueError(f"direct quadrature capped at n_v <= {DIRECT_MAX_NV}")

    nodes = np.stack([m.ravel() for m in vg.node_mesh()], axis=1)  # (K, 2)
    k = nodes.shape[0]
    rel = nodes[:, None, :] - nodes[None, :, :]  # (K, K, 2)
    r = np.sqrt((rel**2).sum(axis=2))
    with np.errstate(invalid="ignore", divide="ignore"):
        e_hat = np.where(r[..., None] > 0.0, rel / np.maximum(r, 1e-300)[..., None], 0.0)
    perp = np.stack([-e_hat[..., 1], e_hat[..., 0]], axis=-1)
    center = 0.5 * (nodes[:, None, :] + nodes[None, :, :])
    half_r = 0.5 * r[..., None]

    n_sigma = config.n_sigma
    alphas = (np.arange(n_sigma) + 0.5) * np.pi / n_sigma - 0.5 * np.pi
    # kernel b = r^gamma / measure(S+^1) integrated with weight pi/n_sigma
    kernel = (r**config.gamma) * (vg.weight / n_sigma)  # (K, K)
    np.fill_diagonal(kernel, 0.0)

    values = f.values.reshape(-1, n, n)
    # A two-node zero border: lower-left corners clipped to [-2, n] read 0 outside.
    padded = np.pad(values, ((0, 0), (2, 2), (2, 2))).reshape(len(values), -1)
    out = np.empty((len(values), k))
    block = max(1, DIRECT_SCRATCH_BYTES // (k * k * out.itemsize))
    for start in range(0, len(values), block):
        rows = padded[start : start + block]
        gain = np.zeros((len(rows), k, k))
        for alpha in alphas:
            sigma = np.cos(alpha) * e_hat + np.sin(alpha) * perp  # (K, K, 2)
            g = (center + half_r * sigma - vg.axis_nodes()[0]) / vg.h_v
            i0 = np.floor(g)  # lower-left corner of xi' in node units
            t0, t1 = np.moveaxis(g - i0, -1, 0)
            weights = [a * b for a in (1.0 - t0, t0) for b in (1.0 - t1, t1)]
            base = ((np.clip(i0, -2.0, n) + 2.0) @ [n + 4.0, 1.0]).astype(np.intp)
            for row, acc in zip(rows, gain):
                vals = sum(w * row[o:][base] for o, w in zip((0, 1, n + 4, n + 5), weights))
                acc += vals * vals.T  # f(xi') f(xi1')
        for index, acc in enumerate(gain, start):
            f_flat = values[index].ravel()
            loss_pairs = f_flat[:, None] * f_flat[None, :]  # f(xi) f(xi1)
            # sum over xi1 of (sigma-summed gain - n_sigma * loss) * per-sigma weight
            q_xi = ((acc - loss_pairs * n_sigma) * kernel).sum(axis=1)
            out[index] = _project_out_invariants(vg, q_xi)
    return out.reshape(f.x_grid.shape + vg.shape)
