"""System builders and oracles shared across the test suite."""

from __future__ import annotations

import numpy as np

from combidyn import SystemSpec, affine_state_model, matvec, rowdot, trapezoid_weights

# The horizon the random_* systems are scaled for; the other builders' closed
# forms are stated at t = 1.
RANDOM_HORIZON = 0.5


def scalar_exp_system(x0=1.0, terminal=False):
    """x' = x with r = x (or q = x when terminal=True); payoff pieces have
    closed forms in exp."""

    def q(x):
        return x[..., 0] if terminal else 0.0

    def jac_q(x):
        return np.array([1.0]) if terminal else np.array([0.0])

    return SystemSpec(
        decision_dim=1,
        initial_state=[x0],
        vector_field=lambda x, a, t: x,
        running_payoff=(lambda x, a, t: 0.0) if terminal else (lambda x, a, t: x[..., 0]),
        terminal_payoff=q,
        jac_f_x=lambda x, a, t: np.array([[1.0]]),
        jac_r_x=(lambda x, a, t: np.array([0.0]))
        if terminal
        else (lambda x, a, t: np.array([1.0])),
        jac_q_x=jac_q,
        jac_f_alpha=lambda x, a, t: np.array([[0.0]]),
        jac_r_alpha=lambda x, a, t: np.array([0.0]),
    )


def scalar_affine_system(x0=0.0):
    """x' = x + alpha_1, r = x, q = 0; the simplest decision-affine system."""
    return SystemSpec(
        decision_dim=1,
        initial_state=[x0],
        vector_field=lambda x, a, t: x + a[..., :1],
        running_payoff=lambda x, a, t: x[..., 0],
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.array([[1.0]]),
        jac_r_x=lambda x, a, t: np.array([1.0]),
        jac_q_x=lambda x: np.array([0.0]),
        jac_f_alpha=lambda x, a, t: np.array([[1.0]]),
        jac_r_alpha=lambda x, a, t: np.array([0.0]),
    )


def cubic_bias_system(x0=1.0):
    """x' = x + a1^3 + 2 a2, r = x^2, q = 0.  The cubic term inflates the
    relaxed derivative's first entry at a1 = 1 while the convex-combination
    derivative sees only the unit secant."""
    return SystemSpec(
        decision_dim=2,
        initial_state=[x0],
        vector_field=lambda x, a, t: x + a[..., :1] ** 3 + 2.0 * a[..., 1:],
        running_payoff=lambda x, a, t: x[..., 0] ** 2,
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.array([[1.0]]),
        jac_r_x=lambda x, a, t: 2.0 * x,
        jac_q_x=lambda x: np.array([0.0]),
        jac_f_alpha=lambda x, a, t: np.stack(
            [3.0 * a[..., 0] ** 2, np.full(a.shape[:-1], 2.0)], axis=-1
        )[..., None, :],
        jac_r_alpha=lambda x, a, t: np.zeros(2),
    )


def exp_additive_system(m=3, x0=0.0):
    """x' = x + sum_i exp(-a_i), r = x, q = 0: additive but not affine in the
    decision, so the two derivative concepts differ."""
    return SystemSpec(
        decision_dim=m,
        initial_state=[x0],
        vector_field=lambda x, a, t: x + np.sum(np.exp(-a), axis=-1, keepdims=True),
        running_payoff=lambda x, a, t: x[..., 0],
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.array([[1.0]]),
        jac_r_x=lambda x, a, t: np.array([1.0]),
        jac_q_x=lambda x: np.array([0.0]),
        jac_f_alpha=lambda x, a, t: -np.exp(-a)[..., None, :],
        jac_r_alpha=lambda x, a, t: np.zeros(m),
    )


def coupled_square_system(sign=-1.0):
    """f = (x1 + a1 + 2, x2 + a2), r = sign * (x1 - x2)^2, q = 0, x(0) = 0.

    With sign = -1 the payoff is concave but not submodular as a set
    function; with sign = +1 it is submodular but not concave.
    """

    def r(x, a, t):
        return sign * (x[..., 0] - x[..., 1]) ** 2

    def jac_r_x(x, a, t):
        d = 2.0 * sign * (x[..., 0] - x[..., 1])
        return np.stack([d, -d], axis=-1)

    return SystemSpec(
        decision_dim=2,
        initial_state=[0.0, 0.0],
        vector_field=lambda x, a, t: x + a + [2.0, 0.0],
        running_payoff=r,
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: np.eye(2),
        jac_r_x=jac_r_x,
        jac_q_x=lambda x: np.zeros(2),
        jac_f_alpha=lambda x, a, t: np.eye(2),
        jac_r_alpha=lambda x, a, t: np.zeros(2),
    )


def random_poly_system(rng, n, m):
    """Random degree-2 polynomial field and payoff with exact Jacobians.

    Coefficients are scaled so trajectories stay tame over RANDOM_HORIZON.
    """
    A = 0.3 * rng.standard_normal((n, n)) - 0.2 * np.eye(n)
    B = 0.6 * rng.standard_normal((n, m))
    c0 = 0.2 * rng.standard_normal(n)
    Cxx = 0.08 * rng.standard_normal((n, n, n))
    Daa = 0.08 * rng.standard_normal((n, m, m))
    Exa = 0.08 * rng.standard_normal((n, n, m))

    ra = 0.5 * rng.standard_normal(m)
    rx = 0.5 * rng.standard_normal(n)
    Rxx = 0.1 * rng.standard_normal((n, n))
    Saa = 0.1 * rng.standard_normal((m, m))
    Wxa = 0.1 * rng.standard_normal((n, m))
    qx = 0.4 * rng.standard_normal(n)
    Qxx = 0.1 * rng.standard_normal((n, n))
    x0 = 0.5 * rng.uniform(-1.0, 1.0, n)

    def bilinear(T, u, v):
        # sum_jk T[i, j, k] u_j v_k over the last axes of u and v
        return matvec(matvec(T, v[..., None, :]), u)

    def f(x, a, t):
        return (
            matvec(A, x)
            + matvec(B, a)
            + c0
            + bilinear(Cxx, x, x)
            + bilinear(Daa, a, a)
            + bilinear(Exa, x, a)
        )

    def jac_f_x(x, a, t):
        return (
            A
            + matvec(Cxx + Cxx.transpose(0, 2, 1), x[..., None, :])
            + matvec(Exa, a[..., None, :])
        )

    def jac_f_alpha(x, a, t):
        return (
            B
            + matvec(Daa + Daa.transpose(0, 2, 1), a[..., None, :])
            + matvec(Exa.transpose(0, 2, 1), x[..., None, :])
        )

    def quadratic(M, u, v):
        return rowdot(matvec(M.T, u), v)  # u @ M @ v

    def r(x, a, t):
        return (
            rowdot(x, rx)
            + rowdot(a, ra)
            + quadratic(Rxx, x, x)
            + quadratic(Saa, a, a)
            + quadratic(Wxa, x, a)
        )

    def jac_r_x(x, a, t):
        return rx + matvec(Rxx + Rxx.T, x) + matvec(Wxa, a)

    def jac_r_alpha(x, a, t):
        return ra + matvec(Saa + Saa.T, a) + matvec(Wxa.T, x)

    def q(x):
        return rowdot(x, qx) + quadratic(Qxx, x, x)

    def jac_q_x(x):
        return qx + matvec(Qxx + Qxx.T, x)

    return SystemSpec(
        decision_dim=m,
        initial_state=x0,
        vector_field=f,
        running_payoff=r,
        terminal_payoff=q,
        jac_f_x=jac_f_x,
        jac_r_x=jac_r_x,
        jac_q_x=jac_q_x,
        jac_f_alpha=jac_f_alpha,
        jac_r_alpha=jac_r_alpha,
    )


def random_nonrelaxable_system(rng, n, m):
    """Field and payoff defined through per-bit lookup tables: meaningful only
    at binary decisions, so only the convex-combination derivative applies.
    The bit tables also gate state-coupled terms, so blending two fields is
    genuinely nonlinear in the blend weight."""
    A = 0.3 * rng.standard_normal((n, n)) - 0.2 * np.eye(n)
    table_f = 0.7 * rng.standard_normal((2, n, m))  # value per bit state
    table_g = 0.4 * rng.standard_normal((2, m))     # per-bit gain on the drift
    table_r = 0.6 * rng.standard_normal((2, m))
    rx = 0.5 * rng.standard_normal(n)
    qx = 0.4 * rng.standard_normal(n)
    x0 = 0.5 * rng.uniform(-1.0, 1.0, n)

    def _bits(a):
        return np.asarray(a).astype(int)

    def _gain(bits):
        return 1.0 + 0.25 * np.tanh(table_g[bits, np.arange(m)].sum(axis=-1))

    def _lift(bits):
        return table_r[bits, np.arange(m)].sum(axis=-1)

    def f(x, a, t):
        bits = _bits(a)
        return _gain(bits)[..., None] * matvec(A, x) + table_f[bits, :, np.arange(m)].sum(axis=-2)

    def r(x, a, t):
        return rowdot(x, rx) + _lift(_bits(a)) * (0.5 + 0.5 * np.tanh(x[..., 0]))

    def jac_f_x(x, a, t):
        return _gain(_bits(a))[..., None, None] * A

    def jac_r_x(x, a, t):
        slope = _lift(_bits(a)) * 0.5 * (1.0 - np.tanh(x[..., 0]) ** 2)
        return rx + slope[..., None] * np.eye(n)[0]

    return SystemSpec(
        decision_dim=m,
        initial_state=x0,
        vector_field=f,
        running_payoff=r,
        terminal_payoff=lambda x: rowdot(x, qx),
        jac_f_x=jac_f_x,
        jac_r_x=jac_r_x,
        jac_q_x=lambda x: qx,
    )


def random_additive_system(rng, n, m):
    """f = A x + sum_i phi_i(a_i) v_i + c with nonlinear scalar phi_i, and an
    additive running payoff: additive across decision entries but not affine."""
    A = 0.3 * rng.standard_normal((n, n)) - 0.2 * np.eye(n)
    V = 0.6 * rng.standard_normal((n, m))
    c0 = 0.2 * rng.standard_normal(n)
    shift = rng.uniform(0.5, 1.5, m)
    curve = rng.uniform(-1.0, 1.0, m)
    rx = 0.5 * rng.standard_normal(n)
    rcurve = 0.5 * rng.standard_normal(m)
    x0 = 0.5 * rng.uniform(-1.0, 1.0, n)

    def phi(a):
        return np.exp(-shift * np.asarray(a)) + curve * np.asarray(a) ** 3

    def dphi(a):
        return -shift * np.exp(-shift * np.asarray(a)) + 3.0 * curve * np.asarray(a) ** 2

    def psi(a):
        return rcurve * np.sin(np.asarray(a, dtype=float))

    def dpsi(a):
        return rcurve * np.cos(np.asarray(a, dtype=float))

    return SystemSpec(
        decision_dim=m,
        initial_state=x0,
        vector_field=lambda x, a, t: matvec(A, x) + matvec(V, phi(a)) + c0,
        running_payoff=lambda x, a, t: rowdot(x, rx) + np.sum(psi(a), axis=-1),
        terminal_payoff=lambda x: 0.0,
        jac_f_x=lambda x, a, t: A,
        jac_r_x=lambda x, a, t: rx,
        jac_q_x=lambda x: np.zeros(n),
        jac_f_alpha=lambda x, a, t: V * dphi(a)[..., None, :],
        jac_r_alpha=lambda x, a, t: dpsi(a),
    )


def random_affine_system(rng, n, m):
    """f and r jointly affine in the decision (f also linear in state up to a
    shift), where the two derivative concepts must coincide."""
    A = 0.3 * rng.standard_normal((n, n)) - 0.2 * np.eye(n)
    B = 0.6 * rng.standard_normal((n, m))
    c0 = 0.2 * rng.standard_normal(n)
    rx = 0.5 * rng.standard_normal(n)
    ra = 0.5 * rng.standard_normal(m)
    Rxx = 0.1 * rng.standard_normal((n, n))
    qx = 0.4 * rng.standard_normal(n)
    x0 = 0.5 * rng.uniform(-1.0, 1.0, n)

    return SystemSpec(
        decision_dim=m,
        initial_state=x0,
        vector_field=lambda x, a, t: matvec(A, x) + matvec(B, a) + c0,
        running_payoff=lambda x, a, t: rowdot(x, rx) + rowdot(a, ra) + rowdot(matvec(Rxx.T, x), x),
        terminal_payoff=lambda x: rowdot(x, qx),
        jac_f_x=lambda x, a, t: A,
        jac_r_x=lambda x, a, t: rx + matvec(Rxx + Rxx.T, x),
        jac_q_x=lambda x: qx,
        jac_f_alpha=lambda x, a, t: B,
        jac_r_alpha=lambda x, a, t: ra,
    )


def random_concave_instance(rng, n, m):
    """Linear field with separable concave penalties, so the discrete payoff
    is an exactly concave (quadratic) function of the decision.

    Returns (spec, pieces) where pieces carries everything needed to assemble
    the exact quadratic form of the discrete payoff.
    """
    A = 0.4 * rng.standard_normal((n, n)) - 0.5 * np.eye(n)
    B = 0.8 * rng.standard_normal((n, m))
    c0 = 0.3 * rng.standard_normal(n)
    w_run = rng.uniform(0.3, 1.0, n)
    ctr_run = rng.uniform(-0.5, 0.5, n)
    d_lin = 0.6 * rng.standard_normal(m)
    w_term = rng.uniform(0.0, 0.5, n)
    ctr_term = rng.uniform(-0.5, 0.5, n)
    x0 = 0.5 * rng.uniform(-1.0, 1.0, n)

    spec = SystemSpec(
        decision_dim=m,
        initial_state=x0,
        vector_field=lambda x, a, t: matvec(A, x) + matvec(B, a) + c0,
        running_payoff=lambda x, a, t: rowdot((x - ctr_run) ** 2, -w_run) + rowdot(a, d_lin),
        terminal_payoff=lambda x: rowdot((x - ctr_term) ** 2, -w_term),
        jac_f_x=lambda x, a, t: A,
        jac_r_x=lambda x, a, t: -2.0 * w_run * (x - ctr_run),
        jac_q_x=lambda x: -2.0 * w_term * (x - ctr_term),
        jac_f_alpha=lambda x, a, t: B,
        jac_r_alpha=lambda x, a, t: d_lin,
    )
    pieces = {
        "w_run": w_run,
        "ctr_run": ctr_run,
        "d_lin": d_lin,
        "w_term": w_term,
        "ctr_term": ctr_term,
    }
    return spec, pieces


def concave_quadratic_oracle(spec, pieces, grid, scheme="euler"):
    """Exact quadratic form of the discrete payoff of a concave instance.

    Uses the affine trajectory map (exact for the linear field under explicit
    schemes), so batch reproduces integrate + evaluate_payoff on the
    same grid to float precision.  Returns (c0, g, H, batch) with
    J(a) = c0 + g @ a + a @ H @ a and batch a vectorized evaluator.
    """
    U, V = affine_state_model(spec, grid, scheme)
    wt = trapezoid_weights(grid)
    horizon = grid.horizon

    def accumulate(weights, centers, knot_w, Uk, Vk):
        # -sum_i w_i (U + V a - ctr)^2 accumulated with knot weights
        y = Uk - centers
        c = -float(np.einsum("k,ki->", knot_w, weights * y**2))
        g = -np.einsum("k,ki,kim->m", knot_w, 2.0 * weights * y, Vk)
        H = -np.einsum("k,i,kim,kin->mn", knot_w, weights, Vk, Vk)
        return c, g, H

    c_run, g_run, H_run = accumulate(pieces["w_run"], pieces["ctr_run"], wt, U, V)
    c_term, g_term, H_term = accumulate(
        pieces["w_term"], pieces["ctr_term"], np.array([1.0]), U[-1:], V[-1:]
    )
    c0 = c_run + c_term
    g = g_run + g_term + horizon * pieces["d_lin"]
    H = H_run + H_term

    def batch(Amat):
        Amat = np.asarray(Amat, dtype=float)
        return c0 + Amat @ g + np.einsum("ij,ij->i", Amat @ H, Amat)

    return c0, g, H, batch
