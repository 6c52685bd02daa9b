"""Linear functionals of solutions to the conditional-moment equation.

The target parameter is phi(P) = E[m(O, g)] where g, a function on the
(W, X) grid, satisfies E[g(W,X) | Z,X] = E[Y | Z,X].  The equation is a
stack of k_x square k_z-by-k_w linear systems, one per X stratum (the
support requires k_z == k_w); the operators are built as (k_x, k, k) stacks
and solved together: by closed-form rotations for 2x2 strata (binary Z and
W), by one batched SVD otherwise.  The per-stratum singular values measure
how weak the W-Z dependence is.  The functional is evaluated
through its representer alpha on the (W, X) grid, phi = E[alpha * g].
The estimating function is tabulated on the cells of the support
(:func:`psi1_values`), so estimators see a sample only through its
empirical law.

The building blocks (conditioning, the stratum solve, the representer,
m(O, g) and the estimating function) accept leading batch axes, so a stack
of empirical laws is solved in the same calls as one law.  The law-level
functions (:func:`solve_g`, :func:`solve_q`, :func:`check_model_membership`,
:func:`evaluate_phi`) use them with no batch axis and raise on an empty
conditioning cell or a vanishing density; on a stack these are masks.
Marginals sum an axis of 2 to 7 cells by slice adds in numpy's own order
(:func:`~weakdep.laws._reduce_short`) and a longer one by ``ndarray.sum``,
with the same bits either way, and never by a matmul over the stack, so a
law gets the same bits alone and in a stack.

Supported functionals:

* ``late``         -- binary W and Z, no X; m(O,g) = g(1) - g(0)
* ``ate_iv``       -- binary W; m(O,g) = g(1,X) - g(0,X)
* ``proximal_ate`` -- X = (A, L) with binary A interleaved on the X axis
                      (even cells A=0, odd cells A=1);
                      m(O,g) = g(W,1,L) - g(W,0,L)
* ``npiv``         -- no X; m(O,g) = sum_j g(j) omega(j) mu_w(j)
* ``generic``      -- user-supplied representer coefficients
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityViolation, ZeroConditioningMass
from .laws import DiscreteLaw, SupportSpec, _numbers, _reduce_short, marginal

DEFAULT_TOL = 1e-8
_EPS = np.finfo(float).eps
_SIGNS = np.array([-1.0, 1.0])      # a contrast's weights on its two arms


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """Which linear functional (and hence representer family) is targeted."""

    kind: str
    omega: np.ndarray | None = None
    alpha: np.ndarray | None = None

    KINDS = ("late", "ate_iv", "proximal_ate", "npiv", "generic")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        for name in ("omega", "alpha"):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name), dtype=float)
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, value)
        if self.kind == "npiv" and self.omega is None:
            raise ValueError("npiv needs per-cell weights omega")
        if self.kind == "generic" and self.alpha is None:
            raise ValueError("generic needs representer coefficients alpha")

    @classmethod
    def late(cls):
        return cls(kind="late")

    @classmethod
    def ate_iv(cls):
        return cls(kind="ate_iv")

    @classmethod
    def proximal_ate(cls):
        return cls(kind="proximal_ate")

    @classmethod
    def npiv(cls, omega):
        return cls(kind="npiv", omega=omega)

    @classmethod
    def generic(cls, alpha):
        return cls(kind="generic", alpha=alpha)

    def validate_against(self, support: SupportSpec):
        """Check the structural requirements of the variant; raises ValueError."""
        if self.kind == "late":
            if not (support.k_w == 2 and support.k_z == 2 and support.k_x == 1):
                raise ValueError("late needs k_w = k_z = 2 and k_x = 1")
            if not (np.all(support.mu_w == 1.0) and np.all(support.mu_z == 1.0)):
                raise ValueError("late needs counting measure on the binary W and Z")
        elif self.kind == "ate_iv":
            if support.k_w != 2:
                raise ValueError("ate_iv needs binary W")
            if not np.all(support.mu_w == 1.0):
                raise ValueError("ate_iv needs counting measure on the binary W")
        elif self.kind == "proximal_ate":
            if support.k_x % 2 != 0:
                raise ValueError(
                    "proximal_ate encodes X = (A, L) with k_x = 2 * k_L; "
                    f"got odd k_x = {support.k_x}"
                )
            mu = support.mu_x
            if not np.array_equal(mu[0::2], mu[1::2]):
                raise ValueError(
                    "proximal_ate needs equal X measure on the two treatment arms "
                    "of every L cell"
                )
        elif self.kind == "npiv":
            if support.k_x != 1:
                raise ValueError("npiv has no X axis (k_x must be 1)")
            if self.omega.shape != (support.k_w,):
                raise ValueError("omega must have one weight per W cell")
        elif self.kind == "generic":
            if self.alpha.shape != (support.k_w, support.k_x):
                raise ValueError(
                    f"alpha must have shape {(support.k_w, support.k_x)}, "
                    f"got {self.alpha.shape}"
                )

    def to_dict(self):
        d = {"kind": self.kind}
        if self.omega is not None:
            d["omega"] = self.omega.tolist()
        if self.alpha is not None:
            d["alpha"] = self.alpha.tolist()
        return d

    @classmethod
    def from_dict(cls, d):
        """The spec of a JSON object; omega and alpha must hold numbers only."""
        coefficients = {name: _numbers(d[name], name)
                        for name in ("omega", "alpha") if d.get(name) is not None}
        return cls(kind=d["kind"], **coefficients)


@dataclass(frozen=True)
class NoSolution:
    """Marker result: the per-stratum linear system is inconsistent."""

    stratum: int
    residual: float
    equation: str = "g"

    def __bool__(self):
        return False


def _condition_rows(joint: np.ndarray):
    """Rows of a (..., k_x, k_a, k_b) mass stack divided by their totals.

    Returns the conditioned rows and the (..., k_x, k_a) mask of rows
    without mass, which are left zero.
    """
    totals = _reduce_short(np.add, joint, -1)[..., None]
    empty = totals <= 0.0
    rows = np.divide(joint, totals, out=np.zeros_like(joint), where=~empty)
    return rows, empty[..., 0]


def _nonempty(rows: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """The rows of one law; raises ZeroConditioningMass naming the first
    (row cell, stratum) without mass, strata first."""
    if empty.any():
        m, a = np.argwhere(empty)[0]
        raise ZeroConditioningMass((int(a), int(m)))
    return rows


def _cond_mean_rows(mass_zwx: np.ndarray):
    """f(W=j | Z=l, X=m) mu_w(j) as (..., k_x, k_z, k_w), with the empty
    (X, Z) rows, from the (..., k_z, k_w, k_x) masses of (Z, W, X), which
    g's and q's operators both condition."""
    return _condition_rows(mass_zwx.swapaxes(-1, -3).swapaxes(-1, -2))


def _response_rows(mass: np.ndarray, y_cell_means: np.ndarray):
    """E[Y | Z=l, X=m] as (..., k_x, k_z), with the empty (X, Z) rows."""
    rows, empty = _condition_rows(_reduce_short(np.add, mass, -2).swapaxes(-1, -3))
    return rows @ y_cell_means, empty


def _adjoint_rows(mass_zwx: np.ndarray):
    """f(Z=l | W=j, X=m) mu_z(l) as (..., k_x, k_w, k_z), with the empty
    (X, W) rows, from the (..., k_z, k_w, k_x) masses of (Z, W, X)."""
    return _condition_rows(mass_zwx.swapaxes(-1, -3))


def cond_mean_operator(law: DiscreteLaw) -> np.ndarray:
    """Stack of the conditional mean operators, shape (k_x, k_z, k_w).

    Entry (m, l, j) is f(W=j | Z=l, X=m) * mu_w(j), i.e. the probability of
    the j-th W cell given the l-th Z cell on stratum m; rows sum to one.
    """
    return _nonempty(*_cond_mean_rows(_reduce_short(np.add, law.mass, -4)))


def response_vector(law: DiscreteLaw) -> np.ndarray:
    """Conditional mean of Y given each (X, Z) cell, shape (k_x, k_z)."""
    return _nonempty(*_response_rows(law.mass, law.support.y_cell_means))


def adjoint_mean_operator(law: DiscreteLaw) -> np.ndarray:
    """Stack of the adjoint operators, shape (k_x, k_w, k_z).

    Entry (m, j, l) is f(Z=l | W=j, X=m) * mu_z(l); rows sum to one.
    """
    return _nonempty(*_adjoint_rows(_reduce_short(np.add, law.mass, -4)))


def _solve_strata(lhs: np.ndarray, rhs: np.ndarray, tol: float):
    """Minimum-norm least-squares solve of a stack of per-stratum systems.

    ``lhs`` has shape (..., k_x, r, c) and ``rhs`` (..., k_x, r).  A stack
    of 2x2 systems (binary Z and W) is solved by closed-form rotations
    (:func:`_rotation_solve`), any other shape by one batched SVD.  Either
    way, singular values at or below numpy's default least-squares cutoff
    eps * max(r, c) * sigma_max count as zero, so a singular system gets its
    minimum-norm solution.  Every system is solved on its own, so a system
    gets the same bits alone as in a stack of the same memory order (matmul
    may sum a strided operand in another order, which moves a residual's
    last bits).  g's systems and q's adjoint systems, all square
    (k_z == k_w), share one stack in ``wald_ci``.
    Returns the solutions (..., k_x, c), the residual norms (..., k_x), the
    mask of consistent strata (residual <= tol * max(1, |rhs|)) and the
    singular values (..., k_x, min(r, c)), largest first.
    """
    solve = _rotation_solve if lhs.shape[-2:] == (2, 2) else _svd_solve
    sol, residuals, rhs_norm, sigma = solve(lhs, rhs)
    ok = residuals <= tol * np.maximum(1.0, rhs_norm)
    return sol, residuals, ok, sigma


def _svd_solve(lhs, rhs):
    """Solutions, residual norms, |rhs| and singular values by one batched SVD."""
    u, sigma, vt = np.linalg.svd(lhs, full_matrices=False)
    keep = sigma > _EPS * max(lhs.shape[-2:]) * sigma[..., :1]
    inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
    b = rhs[..., None]
    sol = vt.mT @ (inv[..., None] * (u.mT @ b))
    r = lhs @ sol - b
    residuals = np.sqrt((r * r).sum(axis=(-2, -1)))
    return sol[..., 0], residuals, np.sqrt((rhs * rhs).sum(axis=-1)), sigma


def _rotation_solve(lhs, rhs):
    """Solutions, residual norms, |rhs| and singular values of 2x2 systems.

    The SVD of [[a, b], [c, d]] in closed form (Blinn 1996): with
    e, f, g, h = (a+d)/2, (a-d)/2, (c+b)/2, (c-b)/2 the matrix is
    Rot(phi) diag(s1, s2) Rot(theta), where s1, s2 = hypot(e, h) +- hypot(f, g)
    (s2 signed) and phi, theta = (t2 +- t1) / 2 for t1 = atan2(g, f),
    t2 = atan2(h, e).  The solution is Rot(theta)^T diag(1/s1, 1/s2)
    Rot(phi)^T b, with 1/s2 dropped at the SVD path's cutoff
    |s2| <= 2 eps s1 and the zero matrix solved by 0.  The factors are
    backward stable, unlike the adjugate.  Every step is elementwise, so a
    system gets the same bits alone as in a stack.
    """
    a, b, c, d = lhs[..., 0, 0], lhs[..., 0, 1], lhs[..., 1, 0], lhs[..., 1, 1]
    xs = np.array([a + d, a - d]) / 2                 # e, f
    ys = np.array([c - b, c + b]) / 2                 # h, g
    (q, r), (t2, t1) = np.hypot(xs, ys), np.arctan2(ys, xs)
    s1, s2 = q + r, q - r
    half = np.array([t2 + t1, t2 - t1]) / 2           # phi, theta
    (cos_p, cos_t), (sin_p, sin_t) = np.cos(half), np.sin(half)

    b0, b1 = rhs[..., 0], rhs[..., 1]
    v0 = np.divide(cos_p * b0 + sin_p * b1, s1, out=np.zeros(s1.shape),
                   where=s1 > 0.0)
    v1 = np.divide(cos_p * b1 - sin_p * b0, s2, out=np.zeros(s2.shape),
                   where=np.abs(s2) > 2.0 * _EPS * s1)
    x0 = cos_t * v0 + sin_t * v1
    x1 = cos_t * v1 - sin_t * v0

    r0 = a * x0 + b * x1 - b0
    r1 = c * x0 + d * x1 - b1
    return (_pairs(x0, x1), np.sqrt(r0 * r0 + r1 * r1),
            np.sqrt(b0 * b0 + b1 * b1), _pairs(s1, np.abs(s2)))


def _pairs(first, second):
    """np.stack([first, second], axis=-1) of two float arrays of one shape,
    without np.stack's Python-level checks."""
    out = np.empty(first.shape + (2,))
    out[..., 0], out[..., 1] = first, second
    return out


def _no_solution(residuals, ok, equation):
    m = int(np.argmin(ok))
    return NoSolution(stratum=m, residual=float(residuals[m]), equation=equation)


def solve_g(law: DiscreteLaw, tol: float = DEFAULT_TOL):
    """Solve the conditional-moment equation for g on the (W, X) grid.

    Returns the value matrix g[j][m], or NoSolution carrying the first
    stratum whose residual exceeds tol (relative to the response norm):
    the response is then outside the operator range.
    """
    g, residuals, ok, _ = _solve_strata(
        cond_mean_operator(law), response_vector(law), tol
    )
    return g.T if ok.all() else _no_solution(residuals, ok, "g")


def solve_q(law: DiscreteLaw, alpha: np.ndarray, tol: float = DEFAULT_TOL):
    """Solve the adjoint equation E[q(Z,X) | W,X] = alpha(W,X) for q.

    Returns the value matrix q[l][m], or NoSolution when alpha is outside
    the adjoint range on some stratum.
    """
    alpha = np.asarray(alpha, dtype=float)
    q, residuals, ok, _ = _solve_strata(adjoint_mean_operator(law), alpha.T, tol)
    return q.T if ok.all() else _no_solution(residuals, ok, "q")


def _representer(spec: FunctionalSpec, support: SupportSpec, mass_wx: np.ndarray):
    """Representer coefficients from (..., k_w, k_x) marginal masses.

    Returns alpha (..., k_w, k_x) and the mask of the cells whose denominator
    density vanishes; alpha is zero there.  For ate_iv a stratum without
    mass marks its whole column.
    """
    if spec.kind == "generic":
        return (np.broadcast_to(spec.alpha, mass_wx.shape).copy(),
                np.zeros(mass_wx.shape, dtype=bool))
    if spec.kind in ("late", "npiv"):
        if spec.kind == "late":            # counting measure: density = mass
            f_w, top = mass_wx[..., :1], _SIGNS[:, None]
        else:
            f_w, top = mass_wx[..., :1] / support.mu_w[:, None], spec.omega[:, None]
        bad = f_w <= 0.0
        return np.divide(top, f_w, out=np.zeros_like(f_w), where=~bad), bad

    if spec.kind == "ate_iv":
        mass_x = _reduce_short(np.add, mass_wx, -2)[..., None, :]
        p_w_given_x = np.divide(mass_wx, mass_x, out=np.zeros_like(mass_wx),
                                where=mass_x > 0.0)
        bad = p_w_given_x <= 0.0                # zero where X has no mass
        alpha = np.divide(_SIGNS[:, None], p_w_given_x,
                          out=np.zeros_like(mass_wx), where=~bad)
        return alpha, bad

    # proximal_ate: X interleaves (A, L); compare the two arms of each L cell
    dens_wx = mass_wx / (support.mu_w[:, None] * support.mu_x[None, :])
    f0 = dens_wx[..., 0::2]
    f1 = dens_wx[..., 1::2]
    both = f0 + f1
    p1 = np.divide(f1, both, out=np.zeros_like(f1), where=both > 0.0)
    prob = np.stack([1.0 - p1, p1], axis=-1)      # (..., k_w, k_L, 2), X = 2L + A
    bad = (prob <= 0.0) | (both <= 0.0)[..., None]
    alpha = np.divide(_SIGNS, prob, out=np.zeros_like(prob), where=~bad)
    return alpha.reshape(mass_wx.shape), bad.reshape(mass_wx.shape)


def alpha_from_wx_mass(
    spec: FunctionalSpec, support: SupportSpec, mass_wx: np.ndarray
) -> np.ndarray:
    """Representer coefficients from the (W, X) marginal masses alone.

    Every supported functional determines its representer through the
    (W, X) marginal, so callers that know the marginal in closed form can
    bypass assembling the full tensor.  ``mass_wx`` may carry leading batch
    axes.  Raises PositivityViolation naming the first (W, X) cell whose
    denominator density vanishes (for ate_iv, an X stratum without mass
    comes first, as (None, m)).
    """
    spec.validate_against(support)
    alpha, bad = _representer(spec, support, mass_wx)
    if bad.any():
        empty_x = bad.all(axis=-2)
        if spec.kind == "ate_iv" and empty_x.any():
            cell = (None, int(np.argwhere(empty_x)[0][-1]))
        else:
            cell = tuple(int(v) for v in np.argwhere(bad)[0][-2:])
        raise PositivityViolation(cell)
    return alpha


def riesz_alpha(law: DiscreteLaw, spec: FunctionalSpec) -> np.ndarray:
    """Representer coefficients alpha[j][m] for the chosen functional.

    Raises PositivityViolation when a denominator density vanishes.
    """
    return alpha_from_wx_mass(spec, law.support, marginal(law, ("W", "X")))


def m_cell_values(spec: FunctionalSpec, g: np.ndarray, support: SupportSpec) -> np.ndarray:
    """Value of m(O, g) as a function of the observed (W, X) cell.

    ``g`` is (..., k_w, k_x), with any leading batch axes; so is the result.
    """
    spec.validate_against(support)
    return _m_cells(spec, g, support)


def _m_cells(spec: FunctionalSpec, g: np.ndarray, support: SupportSpec) -> np.ndarray:
    """:func:`m_cell_values` of a spec already checked against the support."""
    if spec.kind == "late":
        return np.broadcast_to((g[..., 1:, :1] - g[..., :1, :1]), g.shape)
    if spec.kind == "ate_iv":
        return np.broadcast_to((g[..., 1:, :] - g[..., :1, :]), g.shape)
    if spec.kind == "proximal_ate":
        contrast = g[..., 1::2] - g[..., 0::2]
        return np.repeat(contrast, 2, axis=-1)
    if spec.kind == "npiv":
        value = _reduce_short(np.add, g[..., :, :1] * spec.omega[:, None]
                              * support.mu_w[:, None], -2)
        return np.broadcast_to(value[..., None, :], g.shape)
    return spec.alpha * g


def _phi(law: DiscreteLaw, alpha: np.ndarray, g: np.ndarray) -> float:
    return float(np.sum(alpha * g * marginal(law, ("W", "X"))))


def evaluate_phi(law: DiscreteLaw, spec: FunctionalSpec, tol: float = DEFAULT_TOL):
    """phi(P) = sum over (W, X) cells of alpha * g * P(W, X); or NoSolution."""
    g = solve_g(law, tol)
    if isinstance(g, NoSolution):
        return g
    return _phi(law, riesz_alpha(law, spec), g)


@dataclass(frozen=True)
class ModelReport:
    """Diagnostics of membership in the weak dependence model.

    A residual is None when its equation was never solved.  ``sigma_min``
    holds the smallest singular value of the conditional mean operator on
    each stratum, the strength of the W-Z dependence there, and
    ``sigma_max`` the largest; ``phi`` is the functional from the same solve
    of the g equation, set in the model only.
    """

    in_model: bool
    g_residual: float | None
    q_residual: float | None
    positivity_ok: bool
    g_residuals: tuple = ()
    q_residuals: tuple = ()
    sigma_min: tuple = ()
    sigma_max: tuple = ()
    phi: float | None = None
    message: str = ""

    def to_dict(self):
        return {
            "in_model": self.in_model,
            "g_residual": self.g_residual,
            "q_residual": self.q_residual,
            "positivity_ok": self.positivity_ok,
            "per_stratum": {
                "g": list(self.g_residuals),
                "q": list(self.q_residuals),
                "sigma_min": list(self.sigma_min),
                "sigma_max": list(self.sigma_max),
            },
            "message": self.message,
        }


def check_model_membership(
    law: DiscreteLaw, spec: FunctionalSpec, tol: float = DEFAULT_TOL
) -> ModelReport:
    """Aggregate solvability of both equations plus representer positivity."""
    try:
        g, g_res, g_ok, sigma = _solve_strata(
            cond_mean_operator(law), response_vector(law), tol
        )
    except ZeroConditioningMass as exc:
        return ModelReport(
            in_model=False, g_residual=None, q_residual=None,
            positivity_ok=True, message=str(exc),
        )
    g_diag = dict(
        g_residual=float(g_res.max()), g_residuals=tuple(g_res.tolist()),
        sigma_min=tuple(sigma[:, -1].tolist()),
        sigma_max=tuple(sigma[:, 0].tolist()),
    )

    try:
        alpha = riesz_alpha(law, spec)
    except (PositivityViolation, ValueError) as exc:
        return ModelReport(
            in_model=False, q_residual=None, positivity_ok=False,
            message=str(exc), **g_diag,
        )

    # q needs a factorisation of its own: its operator is the adjoint
    # A* = D_W^-1 A^T D_Z (D_W, D_Z diagonal, the stratum's probabilities of
    # the W and of the Z cells), not A^T, so the SVD of g's operator A gives neither the
    # singular values of A* nor its minimum-norm solution on a near-singular
    # stratum.
    try:
        _, q_res, q_ok, _ = _solve_strata(adjoint_mean_operator(law), alpha.T, tol)
    except ZeroConditioningMass as exc:
        return ModelReport(
            in_model=False, q_residual=None, positivity_ok=True,
            message=str(exc), **g_diag,
        )

    in_model = bool(g_ok.all() and q_ok.all())
    return ModelReport(
        in_model=in_model,
        q_residual=float(q_res.max()),
        positivity_ok=True,
        q_residuals=tuple(q_res.tolist()),
        phi=_phi(law, alpha, g.T) if in_model else None,
        **g_diag,
    )


def psi1_values(
    support: SupportSpec,
    spec: FunctionalSpec,
    g: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Estimating function m(O,g) + q(Z,X){Y - g(W,X)} on every cell.

    ``g`` is (..., k_w, k_x) and ``q`` (..., k_z, k_x), with the same leading
    batch axes.  The result has shape (..., k_y, k_z, k_w, k_x); its mean
    under a law is the mass-weighted sum, so a sample enters only through
    its cell counts.  The spec must have been checked against the support.
    """
    mcell = _m_cells(spec, g, support)[..., None, None, :, :]
    ybar = support.y_cell_means[:, None, None, None]
    g = g[..., None, None, :, :]
    return mcell + q[..., None, :, None, :] * (ybar - g)
