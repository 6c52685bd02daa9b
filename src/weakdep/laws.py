"""Finitely supported joint laws of O = (Y, Z, W, X).

A law is a 4-index probability-mass tensor over a product grid of cells.
Each cell carries a positive reference measure; densities are the derived
view mass / product-of-cell-measures.  Tensor axes are ordered (Y, Z, W, X)
throughout, row-major on disk.

The Y axis additionally carries per-cell integrals of the identity,
``iota_y[h]``, so conditional means of Y are computable without fixing
representative points; where a single value is needed, Y is summarized
by its cell mean ``iota_y[h] / mu_y[h]`` (exact when Y cells are
singletons).

A sample is its per-fold cell counts (:class:`Dataset`): every confidence
set reads a sample only through its empirical law, so no rows and no Y
values are ever drawn.

Besides laws and samples the module holds what the rest of the package
uses of them: marginals, the total variation distance, and the dict form
(:func:`law_to_dict` / :func:`law_from_dict`) that the CLI reads and writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearSupport, EmptyDataset, SupportMismatch

AXES = ("Y", "Z", "W", "X")

MASS_TOL = 1e-12        # construction-time normalization slack

# relative scale below which two vectors count as collinear
_COLLINEAR_TOL = 1e-12

# largest sample size whose counts and n stay exact in float64, which the
# cell masses and the score set's integer moments rely on
_MAX_N = 2**53


def _is_collinear(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gram = (u @ u) * (v @ v) - (u @ v) ** 2
    return gram <= _COLLINEAR_TOL * max((u @ u) * (v @ v), 1e-300)


def _ro(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SupportSpec:
    """Cell counts, cell measures and per-cell Y integrals of the grid.

    Invariants (checked at construction): all measures strictly positive and
    finite, the Z and W grids have equal size, k_y >= 2, and ``iota_y`` is not
    proportional to ``mu_y``.
    """

    mu_y: np.ndarray
    mu_z: np.ndarray
    mu_w: np.ndarray
    mu_x: np.ndarray
    iota_y: np.ndarray

    def __post_init__(self):
        for name in ("mu_y", "mu_z", "mu_w", "mu_x", "iota_y"):
            object.__setattr__(self, name, _ro(getattr(self, name)))
        for name in ("mu_y", "mu_z", "mu_w", "mu_x"):
            mu = getattr(self, name)
            if mu.ndim != 1 or mu.size == 0:
                raise ValueError(f"{name} must be a nonempty vector")
            if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
                raise ValueError(f"{name} must be strictly positive and finite")
        if self.k_y < 2:
            raise ValueError("need at least two Y cells")
        if self.k_z != self.k_w:
            raise ValueError(
                f"Z and W grids must have equal size, got {self.k_z} and {self.k_w}"
            )
        if self.iota_y.shape != self.mu_y.shape or not np.all(np.isfinite(self.iota_y)):
            raise ValueError("iota_y must be a finite vector of length k_y")
        if _is_collinear(self.iota_y, self.mu_y):
            raise CollinearSupport(
                "per-cell Y integrals are proportional to the Y cell measures"
            )

    @property
    def k_y(self):
        return self.mu_y.size

    @property
    def k_z(self):
        return self.mu_z.size

    @property
    def k_w(self):
        return self.mu_w.size

    @property
    def k_x(self):
        return self.mu_x.size

    @property
    def shape(self):
        return (self.k_y, self.k_z, self.k_w, self.k_x)

    @property
    def n_cells(self):
        return self.k_y * self.k_z * self.k_w * self.k_x

    @property
    def y_cell_means(self):
        """Representative Y value per cell: iota_y / mu_y."""
        return self.iota_y / self.mu_y

    def __eq__(self, other):
        if not isinstance(other, SupportSpec):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("mu_y", "mu_z", "mu_w", "mu_x", "iota_y")
        )


@dataclass(frozen=True, eq=False)
class DiscreteLaw:
    """Probability-mass tensor ``mass[h, l, j, m]`` over a SupportSpec.

    The constructor only checks shape; :func:`validate` reports invariant
    violations so that malformed laws can be loaded and diagnosed.
    """

    support: SupportSpec
    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _ro(self.mass))
        if self.mass.shape != self.support.shape:
            raise ValueError(
                f"mass tensor shape {self.mass.shape} does not match "
                f"support shape {self.support.shape}"
            )


def validate(law: DiscreteLaw):
    """Return a list of human-readable invariant violations (empty if valid)."""
    violations = []
    mass = law.mass
    if not np.all(np.isfinite(mass)):
        idx = np.argwhere(~np.isfinite(mass))[0]
        violations.append(f"non-finite mass at {tuple(int(i) for i in idx)}")
        return violations
    neg = np.argwhere(mass < 0.0)
    for idx in neg[:8]:
        cell = tuple(int(i) for i in idx)
        violations.append(f"negative mass at {cell}")
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        violations.append(f"total mass {total:.12g} != 1")
    return violations


def _axes_of(which):
    """Map axis names to tensor positions, preserving (Y, Z, W, X) order."""
    names = set(which)
    unknown = names - set(AXES)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}")
    return tuple(i for i, a in enumerate(AXES) if a in names)


def marginal(law: DiscreteLaw, which):
    """Mass tensor of the sub-vector named by ``which`` (subset of Y, Z, W, X).

    Result axes keep the canonical (Y, Z, W, X) order.
    """
    keep = _axes_of(which)
    drop = tuple(i for i in range(4) if i not in keep)
    return law.mass.sum(axis=drop) if drop else law.mass.copy()


def tv_distance(a: DiscreteLaw, b: DiscreteLaw) -> float:
    """Total variation distance, exact for discrete laws: half the L1 gap."""
    if a.support != b.support:
        raise SupportMismatch("laws live on different supports")
    return 0.5 * float(np.abs(a.mass - b.mass).sum())


@dataclass(frozen=True, eq=False)
class Dataset:
    """A sample as its cell counts: ``counts[f, h, l, j, m]`` draws of fold f
    fell on cell (h, l, j, m).

    :func:`sample` puts the first ``n // 2`` draws in fold 0 and the rest in
    fold 1, so that cross-fitting splits a sample without rows.  Counts are
    read-only non-negative integers.
    """

    counts: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim != 5 or raw.shape[0] != 2:
            raise ValueError(
                f"counts must have shape (2, k_y, k_z, k_w, k_x), got {raw.shape}"
            )
        if raw.dtype.kind not in "iu" and not (
            np.all(np.isfinite(raw)) and np.array_equal(raw, np.round(raw))
        ):
            raise ValueError("counts must be integers")
        if (raw < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", _ro(raw, dtype=np.int64))

    def __len__(self):
        return int(self.counts.sum())

    def fold(self, i):
        """The one-fold dataset holding fold i's counts (the other fold empty)."""
        counts = np.zeros_like(self.counts)
        counts[i] = self.counts[i]
        return Dataset(counts)


def sample(law: DiscreteLaw, n: int, seed) -> Dataset:
    """Draw n i.i.d. observations as per-fold cell counts. Deterministic in seed.

    The two folds are independent multinomials of sizes ``n // 2`` and
    ``n - n // 2``, which is the law of binned i.i.d. rows split at
    ``n // 2``.  Zero-mass cells take no draw; n is at most 2**53.
    """
    if not 0 < n <= _MAX_N:
        raise ValueError(f"n must lie in [1, 2**53]; got {n}")
    rng = np.random.default_rng(seed)
    flat = law.mass.ravel()
    live = np.flatnonzero(flat)
    p = flat[live] / flat[live].sum()
    counts = np.zeros((2, flat.size), dtype=np.int64)
    for fold, size in enumerate((n // 2, n - n // 2)):
        counts[fold, live] = rng.multinomial(size, p)
    return Dataset(counts.reshape((2,) + law.mass.shape))


def estimate(dataset: Dataset, support: SupportSpec) -> DiscreteLaw:
    """Empirical law of the sample: cell counts over n.

    Raises ValueError (from DiscreteLaw) when the counts do not lie on the
    support's grid, and EmptyDataset when n is zero.
    """
    counts = dataset.counts.sum(axis=0)
    n = counts.sum()
    if n == 0:
        raise EmptyDataset("cannot estimate a law from an empty sample")
    return DiscreteLaw(support, counts / n)


# ---------------------------------------------------------------------------
# serialization


def support_to_dict(support: SupportSpec):
    return {
        "k_y": support.k_y,
        "k_z": support.k_z,
        "k_w": support.k_w,
        "k_x": support.k_x,
        "mu_y": support.mu_y.tolist(),
        "mu_z": support.mu_z.tolist(),
        "mu_w": support.mu_w.tolist(),
        "mu_x": support.mu_x.tolist(),
        "iota_y": support.iota_y.tolist(),
    }


def support_from_dict(d) -> SupportSpec:
    spec = SupportSpec(
        mu_y=d["mu_y"], mu_z=d["mu_z"], mu_w=d["mu_w"], mu_x=d["mu_x"],
        iota_y=d["iota_y"],
    )
    for key in ("k_y", "k_z", "k_w", "k_x"):
        if key in d and int(d[key]) != getattr(spec, key):
            raise ValueError(f"{key}={d[key]} inconsistent with measure lengths")
    return spec


def law_to_dict(law: DiscreteLaw):
    return {
        "support": support_to_dict(law.support),
        "mass": law.mass.ravel().tolist(),
    }


def law_from_dict(d) -> DiscreteLaw:
    support = support_from_dict(d["support"])
    mass = np.asarray(d["mass"], dtype=float)
    if mass.size != support.n_cells:
        raise ValueError(
            f"mass array has {mass.size} entries, support has {support.n_cells} cells"
        )
    return DiscreteLaw(support, mass.reshape(support.shape))

