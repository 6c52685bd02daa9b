"""Weak-dependence law sequences with a pinned functional value.

Starting from a product base law under which (Y, W) is independent of Z
given X (so the target functional is undefined there), this module builds
perturbed laws that

* keep the (Z, X) marginal of the base exactly,
* make the W | (Z, X) kernel invertible via a rank-one-plus-identity bump
  of size ``eta_w``,
* tilt the Y | (Z, X) kernel by ``eta_y * M`` where the matrix M maps the
  per-cell Y integrals onto the base representer and annihilates the Y
  cell measures (so each kernel row still integrates to one), and
* choose ``gamma = eta_y / eta_w`` so the functional equals a requested
  value ``zeta`` exactly.

M depends on the base alone and is built once with it, so a perturbation
is just the pair ``(eta_w, gamma)``.  As ``eta_w`` shrinks, the generated
laws converge to the base in total variation while the functional stays
pinned at ``zeta``: arbitrarily weak W-Z dependence with an arbitrary target
value.  The search halves ``eta_w`` from just inside the Y-kernel
positivity bound, skipping scales that ``perturb_kernels`` rejects or that
miss the TV target.  Every generated law is certified two ways: through the
explicit rank-one inverse (closed form) and through the generic stacked
solver of ``functionals``, whose membership check supplies the solver value
of the functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BracketingFailure,
    CollinearSupport,
    DegenerateBase,
    InvalidPerturbation,
    SingularPerturbation,
)
from .functionals import FunctionalSpec, alpha_from_wx_mass, check_model_membership
from .laws import (
    DiscreteLaw,
    SupportSpec,
    _numbers,
    support_from_dict,
    support_to_dict,
    tv_distance,
)

# strict inequalities of the construction are enforced with this slack
POSITIVITY_SLACK = 1e-12
CONSTRAINT_TOL = 1e-12
# smallest scale tried: the stratum systems' conditioning grows like 1 / eta_w
ETA_FLOOR = 1e-7
# the first scale tried stays this fraction inside the Y-kernel positivity bound
ETA_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class BaseLawSpec:
    """Product base law: f(y,z,w,x) = pi_y(y|x) pi_w(w|x) f(z,x).

    ``f_zx`` holds (Z, X) masses; ``pi_w_given_x`` and ``pi_y_given_x`` hold
    per-stratum conditional densities.  The representer of the assembled
    product law must be non-constant in W on at least one stratum, otherwise
    no perturbation can move the functional and the base is rejected.
    The minimum-norm tilt matrices ``M`` depend on the base alone and are
    built once here.
    """

    support: SupportSpec
    f_zx: np.ndarray              # (k_z, k_x) masses
    pi_w_given_x: np.ndarray      # (k_x, k_w) densities
    pi_y_given_x: np.ndarray      # (k_x, k_y) densities
    functional: FunctionalSpec
    alpha_tilde: np.ndarray = field(init=False)   # (k_w, k_x)
    M: np.ndarray = field(init=False)             # (k_x, k_z, k_y)

    def __post_init__(self):
        s = self.support
        for name in ("f_zx", "pi_w_given_x", "pi_y_given_x"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.f_zx.shape != (s.k_z, s.k_x):
            raise ValueError(f"f_zx must have shape {(s.k_z, s.k_x)}")
        if self.pi_w_given_x.shape != (s.k_x, s.k_w):
            raise ValueError(f"pi_w_given_x must have shape {(s.k_x, s.k_w)}")
        if self.pi_y_given_x.shape != (s.k_x, s.k_y):
            raise ValueError(f"pi_y_given_x must have shape {(s.k_x, s.k_y)}")
        if np.any(self.f_zx <= 0.0) or abs(self.f_zx.sum() - 1.0) > 1e-10:
            raise ValueError("f_zx must be strictly positive masses summing to 1")
        if np.any(self.pi_w_given_x <= 0.0) or np.any(self.pi_y_given_x <= 0.0):
            raise ValueError("conditional densities must be strictly positive")
        w_norm = self.pi_w_given_x @ s.mu_w
        y_norm = self.pi_y_given_x @ s.mu_y
        if np.any(np.abs(w_norm - 1.0) > 1e-10):
            raise ValueError("pi_w_given_x rows must integrate to 1 against mu_w")
        if np.any(np.abs(y_norm - 1.0) > 1e-10):
            raise ValueError("pi_y_given_x rows must integrate to 1 against mu_y")

        mass_wx = self._wx_mass(eta_w=0.0)
        alpha = alpha_from_wx_mass(self.functional, s, mass_wx)
        object.__setattr__(self, "alpha_tilde", alpha)
        spread = alpha.max(axis=0) - alpha.min(axis=0)
        scale = max(1.0, float(np.abs(alpha).max()))
        if not np.any(spread > 1e-10 * scale):
            raise DegenerateBase(
                "base representer is constant in W on every stratum"
            )
        M = build_M(alpha.T, s.iota_y, s.mu_y)
        M.flags.writeable = False     # the tilt of every perturbation of this base
        object.__setattr__(self, "M", M)

    @property
    def f_x(self):
        return self.f_zx.sum(axis=0)

    def _wx_mass(self, eta_w: float):
        """(W, X) marginal mass of the law perturbed at scale eta_w."""
        kernels, norm = _w_kernels(self, eta_w)
        weights = self.f_zx.T / norm                  # (k_x, k_z)
        return self.support.mu_w[:, None] * (weights[:, None, :] @ kernels)[:, 0, :].T

    def product_law(self) -> DiscreteLaw:
        """Assemble the base law tensor."""
        s = self.support
        mass = np.einsum(
            "mh,h,mj,j,lm->hljm",
            self.pi_y_given_x, s.mu_y,
            self.pi_w_given_x, s.mu_w,
            self.f_zx,
        )
        return DiscreteLaw(s, mass)

    def to_dict(self):
        return {
            "support": support_to_dict(self.support),
            "f_zx": self.f_zx.tolist(),
            "pi_w_given_x": self.pi_w_given_x.tolist(),
            "pi_y_given_x": self.pi_y_given_x.tolist(),
            "functional": self.functional.to_dict(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            support=support_from_dict(d["support"]),
            functional=FunctionalSpec.from_dict(d["functional"]),
            **{name: _numbers(d[name], name)
               for name in ("f_zx", "pi_w_given_x", "pi_y_given_x")},
        )


def build_M(alpha_tilde_m, iota_y, mu_y) -> np.ndarray:
    """Minimum-Frobenius-norm matrix with M @ iota_y = alpha, M @ mu_y = 0.

    Row r must satisfy <row, iota_y> = alpha[r] and <row, mu_y> = 0; the
    per-row minimum-norm solution is alpha[r] * u1 where u1 is the element
    of span(iota_y, mu_y) dual to iota_y, so M is the rank-one outer product
    alpha u1^T.  A stack of representers, shape (k_x, k_z), gives the stack
    of matrices, shape (k_x, k_z, k_y), each checked against its own scale.
    """
    alpha_tilde_m = np.asarray(alpha_tilde_m, dtype=float)
    iota_y = np.asarray(iota_y, dtype=float)
    mu_y = np.asarray(mu_y, dtype=float)
    basis = np.vstack([iota_y, mu_y])
    gram = basis @ basis.T
    scale = max(gram[0, 0] * gram[1, 1], 1e-300)
    if np.linalg.det(gram) <= 1e-12 * scale:
        raise CollinearSupport(
            "per-cell Y integrals are proportional to the Y cell measures"
        )
    u1 = basis.T @ np.linalg.solve(gram, np.array([1.0, 0.0]))
    M = alpha_tilde_m[..., None] * u1
    alpha_scale = np.maximum(1.0, np.abs(alpha_tilde_m).max(axis=-1))
    if np.any(
        (np.abs(M @ iota_y - alpha_tilde_m).max(axis=-1) > CONSTRAINT_TOL * alpha_scale)
        | (np.abs(M @ mu_y).max(axis=-1) > CONSTRAINT_TOL * alpha_scale)
    ):
        raise CollinearSupport("constraint residuals exceed solver precision")
    return M


@dataclass(frozen=True)
class PerturbationParams:
    """Kernel perturbation of a base: scale eta_w and Y-to-W tilt ratio gamma.

    The W kernels get the bump eta_w * I and the Y kernels the tilt
    eta_y * base.M, with eta_y = gamma * eta_w; the tilt matrices belong to
    the base.  eta_w = 0 assembles the unperturbed product law; the explicit
    inverse and the closed-form functional need a nonzero scale.
    """

    eta_w: float
    gamma: float

    @property
    def eta_y(self):
        return self.gamma * self.eta_w


def default_params(base: BaseLawSpec, eta_w: float, gamma: float) -> PerturbationParams:
    """The candidate perturbation (eta_w, gamma) of base."""
    return PerturbationParams(eta_w=eta_w, gamma=gamma)


def _w_kernels(base: BaseLawSpec, eta_w: float):
    """Per-stratum raw W|Z kernels (before row normalization) and normalizers."""
    s = base.support
    kernels = base.pi_w_given_x[:, None, :] + eta_w * np.eye(s.k_z)
    norm = 1.0 + eta_w * s.mu_w   # indexed by the Z row (k_z = k_w)
    return kernels, norm


def _y_kernels(base: BaseLawSpec, params: PerturbationParams):
    return base.pi_y_given_x[:, None, :] + params.eta_y * base.M


def check_params(base: BaseLawSpec, params: PerturbationParams):
    """Names of violated perturbation constraints (empty when admissible)."""
    failures = []
    w_kernels, norm = _w_kernels(base, params.eta_w)
    if w_kernels.min() <= POSITIVITY_SLACK:
        failures.append("w_kernel_positive")
    if norm.min() <= POSITIVITY_SLACK:
        failures.append("w_normalizer_positive")
    update = params.eta_w + base.pi_w_given_x.sum(axis=1)
    if np.abs(update).min() <= POSITIVITY_SLACK:
        failures.append("rank_one_update_nonzero")
    y_kernels = _y_kernels(base, params)
    if y_kernels.min() <= POSITIVITY_SLACK:
        failures.append("y_kernel_positive")
    return failures


def perturb_kernels(base: BaseLawSpec, params: PerturbationParams) -> DiscreteLaw:
    """Assemble the perturbed law; its (Z, X) marginal equals the base exactly."""
    failures = check_params(base, params)
    if failures:
        raise InvalidPerturbation(", ".join(failures))
    s = base.support
    w_kernels, norm = _w_kernels(base, params.eta_w)
    y_kernels = _y_kernels(base, params)
    w_normed = w_kernels / norm[None, :, None]
    mass = np.einsum(
        "mlh,h,mlj,j,lm->hljm",
        y_kernels, s.mu_y, w_normed, s.mu_w, base.f_zx,
    )
    return DiscreteLaw(s, mass)


def sherman_morrison_inverse(pi_w, eta_w: float) -> np.ndarray:
    """Exact inverse of outer(1, pi_w) + eta_w * I via the rank-one update formula.

    A stack of rows, shape (k_x, k), gives the stack of inverses, shape
    (k_x, k, k).
    """
    pi_w = np.asarray(pi_w, dtype=float)
    if eta_w == 0.0:
        raise SingularPerturbation("eta_w = 0 has no inverse")
    total = pi_w.sum(axis=-1, keepdims=True)
    if np.any(np.abs(eta_w + total) <= 1e-14 * np.maximum(1.0, np.abs(total))):
        raise SingularPerturbation("rank-one update factor vanished")
    coef = 1.0 / (eta_w * total + eta_w ** 2)
    return np.eye(pi_w.shape[-1]) / eta_w - (coef * pi_w)[..., None, :]


def _phi_closed(base: BaseLawSpec, params: PerturbationParams) -> float:
    """Closed-form functional value of the perturbed law (no admissibility checks)."""
    s = base.support
    w_kernels, norm = _w_kernels(base, params.eta_w)
    y_kernels = _y_kernels(base, params)
    alpha = alpha_from_wx_mass(
        base.functional, s, base._wx_mass(params.eta_w)
    )
    inv = sherman_morrison_inverse(base.pi_w_given_x, params.eta_w)
    g_dag = inv @ (norm * (y_kernels @ s.iota_y))[:, :, None]     # (k_x, k_w, 1)
    cond = (w_kernels / norm[:, None]) @ (alpha.T[:, :, None] * g_dag)
    return float(np.sum(base.f_zx.T * cond[:, :, 0]))


def closed_form_phi(base: BaseLawSpec, params: PerturbationParams) -> float:
    """Functional value via the explicit rank-one inverse.

    Independent of the generic solver path: the (W, X) marginal, the
    representer and the equation solution are all evaluated in closed form.
    """
    failures = check_params(base, params)
    if failures:
        raise InvalidPerturbation(", ".join(failures))
    return _phi_closed(base, params)


def limit_phi_coefficients(base: BaseLawSpec):
    """(slope, intercept) of the limit of the functional as eta_w -> 0 with
    eta_y = gamma * eta_w, which is affine in gamma: the slope aggregates
    per-stratum weighted variances of the base representer, the intercept
    aggregates base moments."""
    s = base.support
    pi_w = base.pi_w_given_x                      # (k_x, k_w)
    alpha = base.alpha_tilde.T                    # (k_x, k_w)
    pw_sum = pi_w.sum(axis=1)
    pw_alpha = np.sum(pi_w * alpha, axis=1)
    a = np.sum(pi_w * alpha**2, axis=1) - pw_alpha**2 / pw_sum
    bracket = (
        pw_alpha
        + pw_sum * np.sum(pi_w * alpha * s.mu_w, axis=1)
        - pw_alpha * (pi_w @ s.mu_w)
    )
    b = bracket / pw_sum * (base.pi_y_given_x @ s.iota_y)
    return float(base.f_x @ a), float(base.f_x @ b)


def gamma_for_target(base: BaseLawSpec, zeta: float) -> float:
    """gamma whose limit value (slope * gamma + intercept) is zeta; strictly
    increasing in zeta."""
    slope, intercept = limit_phi_coefficients(base)
    if slope <= 0.0:
        raise DegenerateBase("limit slope is not positive")
    return (zeta - intercept) / slope


@dataclass(frozen=True)
class SequenceStep:
    """One generated law with its certificates.

    ``sigma_min`` is the smallest singular value of the conditional mean
    operator over the strata, and ``cond`` the largest sigma_max / sigma_min
    over the strata (inf where a stratum is singular): how near singular the
    scale eta_w made the systems, from the membership check's own solve.
    """

    eta_w: float
    gamma: float
    law: DiscreteLaw
    phi_closed: float
    phi_verified: float
    tv_to_base: float
    g_residual: float
    q_residual: float
    sigma_min: float
    cond: float

    def certificate(self):
        """Every field but the law, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "law"}


@dataclass(frozen=True)
class AdversarialSequence:
    base: BaseLawSpec
    target_zeta: float
    steps: tuple


def _exact_gamma(base: BaseLawSpec, eta_w: float, zeta: float) -> float:
    """gamma making the functional equal zeta at this eta_w.

    At fixed eta_w the closed form is affine in gamma (the representer of
    the perturbed law does not depend on the Y tilt), so two evaluations
    pin it down exactly.
    """
    p0 = _phi_closed(base, PerturbationParams(eta_w, 0.0))
    p1 = _phi_closed(base, PerturbationParams(eta_w, 1.0))
    slope = p1 - p0
    if slope == 0.0 or not np.isfinite(slope):
        raise DegenerateBase(f"functional insensitive to gamma at eta_w={eta_w}")
    return (zeta - p0) / slope


def _max_eta(base: BaseLawSpec, gamma: float) -> float:
    """Largest positive eta_w keeping all constraints satisfied with a margin."""
    tilt = gamma * base.M
    neg = tilt < 0.0
    bound = 1.0
    if np.any(neg):
        pi = np.broadcast_to(base.pi_y_given_x[:, None, :], tilt.shape)
        bound = min(bound, float(np.min(pi[neg] / -tilt[neg])))
    return (1.0 - ETA_MARGIN) * bound


def generate_sequence(
    base: BaseLawSpec,
    zeta: float,
    tv_targets,
    cert_tol: float = 1e-8,
) -> AdversarialSequence:
    """Generate laws with functional value zeta at decreasing distance to the base.

    For each target, the perturbation scale eta_w is walked down a geometric
    grid until the law is admissible and close enough in total variation;
    at each candidate scale the tilt ratio gamma is solved exactly (the
    functional is affine in gamma), seeded from the eta -> 0 limit formula.
    Every emitted law is certified: closed-form and solver values of the
    functional agree with zeta within cert_tol and the law passes the model
    membership check.  Raises ValueError for a non-finite zeta or targets
    that are not finite, positive and strictly decreasing, and
    BracketingFailure when no admissible scale above ETA_FLOOR meets a target.
    """
    tv_targets = [float(t) for t in tv_targets]
    if not np.isfinite(zeta):
        raise ValueError(f"zeta must be finite; got {zeta}")
    if not tv_targets or not all(0.0 < t < np.inf for t in tv_targets) or any(
        b <= a for a, b in zip(tv_targets[1:], tv_targets[:-1])
    ):
        raise ValueError("tv_targets must be finite, positive and strictly decreasing")

    base_law = base.product_law()
    gamma_seed = gamma_for_target(base, zeta)
    eta = _max_eta(base, gamma_seed)
    steps = []
    prev_tv = float("inf")
    for t, tv_target in enumerate(tv_targets):
        while True:
            if eta < ETA_FLOOR:
                raise BracketingFailure(
                    t,
                    f"no admissible eta_w above {ETA_FLOOR:g} reaches "
                    f"tv <= {tv_target:g} (last tv {prev_tv:g})",
                )
            gamma = _exact_gamma(base, eta, zeta)
            params = default_params(base, eta, gamma)
            try:
                law = perturb_kernels(base, params)
            except InvalidPerturbation:
                eta *= 0.5
                continue
            tv = tv_distance(law, base_law)
            if tv > tv_target or tv >= prev_tv:
                eta *= 0.5
                continue
            phi_c = closed_form_phi(base, params)
            report = check_model_membership(law, base.functional, cert_tol)
            phi_v = report.phi
            certified = (
                report.in_model
                and abs(phi_c - zeta) <= cert_tol
                and abs(phi_v - zeta) <= cert_tol
            )
            if not certified:
                # conditioning degrades as eta shrinks, so retrying smaller
                # scales cannot help
                raise BracketingFailure(
                    t,
                    f"certification failed at eta_w={eta:g}: "
                    f"phi_closed={phi_c!r}, phi_solver={phi_v!r}, "
                    f"in_model={report.in_model}",
                )
            sigma_min = np.array(report.sigma_min)
            cond = np.divide(report.sigma_max, sigma_min,
                             out=np.full_like(sigma_min, np.inf),
                             where=sigma_min > 0.0)
            steps.append(SequenceStep(
                eta_w=eta, gamma=gamma, law=law,
                phi_closed=phi_c, phi_verified=phi_v, tv_to_base=tv,
                g_residual=report.g_residual, q_residual=report.q_residual,
                sigma_min=float(sigma_min.min()), cond=float(cond.max()),
            ))
            prev_tv = tv
            eta *= 0.5
            break
    return AdversarialSequence(base=base, target_zeta=zeta, steps=tuple(steps))
