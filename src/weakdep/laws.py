"""Finitely supported joint laws of O = (Y, Z, W, X).

A law is a 4-index probability-mass tensor over a product grid of cells.
Each cell carries a positive reference measure; densities are the derived
view mass / product-of-cell-measures.  Tensor axes are ordered (Y, Z, W, X)
throughout, row-major on disk and in memory: every array of a law and of
its support is a read-only C-ordered copy, whatever layout it was built
from, so a law's reductions give the same bits as its file read back.

The Y axis additionally carries per-cell integrals of the identity,
``iota_y[h]``, so conditional means of Y are computable without fixing
representative points; where a single value is needed, Y is summarized
by its cell mean ``iota_y[h] / mu_y[h]`` (exact when Y cells are
singletons).

A sample is its per-fold cell counts, and samples come as the stack of
their counts, ``(R, 2, k_y, k_z, k_w, k_x)``; one sample is the stack of
one.  Every confidence set reads a sample only through its counts, so no
rows and no Y values are ever drawn.  :func:`check_counts` is the one check
of counts and :func:`estimate` the one map from counts to empirical masses.

Besides laws and samples the module holds what the rest of the package
uses of them: marginals, the total variation distance, and the dict form
(:func:`law_to_dict` / :func:`law_from_dict`) that the CLI reads and writes.

Constants that depend on a support or a law alone are computed on first
use and kept on it, read-only: a support's ``y_cell_means``, a cached
property, and through :func:`computed_once` the flat cell vectors of the
score and union sets (``confsets._coordinates``) and a law's cells with
mass and their normalised masses, which :func:`sample` draws from.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CollinearSupport, SupportMismatch

AXES = ("Y", "Z", "W", "X")

MASS_TOL = 1e-12        # construction-time normalization slack

# relative scale below which two vectors count as collinear
_COLLINEAR_TOL = 1e-12

# largest sample size whose counts and n stay exact in float64, which the
# cell masses and the score set's integer moments rely on
_MAX_N = 2**53


def _is_collinear(u, v):
    """Whether u and v are parallel within _COLLINEAR_TOL.  Each is first
    scaled by the power of two that brings its largest entry into [0.5, 1),
    which is exact short of subnormals and keeps the products below finite
    for any finite entries."""
    u, v = (np.ldexp(a, -np.frexp(np.abs(a).max(initial=0.0))[1])
            for a in (np.asarray(u, dtype=float), np.asarray(v, dtype=float)))
    gram = (u @ u) * (v @ v) - (u @ v) ** 2
    return gram <= _COLLINEAR_TOL * max((u @ u) * (v @ v), 1e-300)


def _ro(a):
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def computed_once(make):
    """Decorate ``make(owner)``, a tuple of arrays that depend on a support
    or a law alone, so that it is computed on the first call and kept on
    the owner.  The arrays are made read-only: every later caller shares
    them."""
    key = f"{make.__module__}.{make.__qualname__}"

    @functools.wraps(make)
    def once(owner):
        if key not in vars(owner):
            for array in vars(owner).setdefault(key, make(owner)):
                array.setflags(write=False)
        return vars(owner)[key]
    return once


def _reduce_short(ufunc, x: np.ndarray, axis: int) -> np.ndarray:
    """``ufunc.reduce(x, axis)`` with its bits, for ``np.add`` (numpy's sum)
    and for ``np.logical_or`` and ``np.logical_and`` on booleans.

    numpy sums an axis from the identity 0, slice after slice in index
    order, unless the axis is its innermost loop and 8 or longer, which it
    sums pairwise.  So an axis of 2 to 7 slices is reduced here by the same
    slice operations, which skip a reduction's fixed cost, and any other
    axis by ``ufunc.reduce`` (over one slice it is as cheap).  The start
    from 0 makes a sum of -0.0 0.0 and counts booleans as integers, as
    numpy's sum does.
    """
    if not 1 < x.shape[axis] < 8:
        return ufunc.reduce(x, axis)
    tail = (slice(None),) * (x.ndim - 1 - axis % x.ndim)
    return functools.reduce(ufunc, [x[(..., i) + tail] for i in range(x.shape[axis])],
                            ufunc.identity)


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

    @functools.cached_property
    def y_cell_means(self):
        """Representative Y value per cell: iota_y / mu_y (read-only)."""
        return _ro(self.iota_y / self.mu_y)

    def __eq__(self, other):
        """Equal bit for bit: each of the five arrays has the same bytes.
        The bits decide every output, so a -0.0 entry of ``iota_y`` differs
        from 0.0 (``y_cell_means`` keeps the sign)."""
        if not isinstance(other, SupportSpec):
            return NotImplemented
        return self is other or all(
            getattr(self, f).tobytes() == getattr(other, f).tobytes()
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
    with np.errstate(over="ignore"):        # a sum that overflows is the inf reported
        total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        violations.append(f"total mass {total!r} != 1")
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


def sample(law: DiscreteLaw, n: int, seed, reps=1):
    """Draw ``reps`` samples of n i.i.d. observations each, as per-fold cell
    counts: the int64 stack ``(reps, 2, k_y, k_z, k_w, k_x)``, drawn in one
    call.  Deterministic in seed.

    The two folds are independent multinomials of sizes ``n // 2`` and
    ``n - n // 2``, which is the law of binned i.i.d. rows split at
    ``n // 2``.  Zero-mass cells take no draw; n is at most 2**53.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts; a
    ``Generator`` is used as it is, so successive calls continue its stream.
    R single draws from the same generator give the same stack as one draw
    of R, so it does not matter how replications are split into calls.
    ``n``, ``reps`` and a numeric ``seed`` must be integers, not bools, and
    a law that :func:`validate` rejects raises ValueError naming its
    violations: it is not renormalised into another law.
    """
    _require_integer(n, "n")
    _require_integer(reps, "reps")
    if isinstance(seed, numbers.Number):
        _require_integer(seed, "seed")
    if not 0 < n <= _MAX_N:
        raise ValueError(f"n must lie in [1, 2**53]; got {n}")
    rng = np.random.default_rng(seed)
    live, p = _live_cells(law)
    counts = np.zeros((reps, 2, law.mass.size), dtype=np.int64)
    # for even n one fold size draws the same stream as the pair of sizes
    sizes = n // 2 if n % 2 == 0 else [n // 2, n - n // 2]
    counts[..., live] = rng.multinomial(sizes, p, size=(reps, 2))
    return counts.reshape((reps, 2) + law.mass.shape)


@computed_once
def _live_cells(law: DiscreteLaw):
    """The flat indices of the law's cells with mass, and their masses
    normalised to sum to one; raises ValueError for a law that
    :func:`validate` rejects."""
    if violations := validate(law):
        raise ValueError(f"cannot sample an invalid law: {'; '.join(violations)}")
    flat = law.mass.ravel()
    live = np.flatnonzero(flat)
    return live, flat[live] / flat[live].sum()


def check_counts(counts, support: SupportSpec) -> np.ndarray:
    """Cell counts as int64, with any leading axes before the support's four.

    Raises ValueError unless the last four axes are the support's shape and
    every count is a non-negative integer (an integer-valued float counts).
    """
    raw = np.asarray(counts)
    if raw.shape[-4:] != support.shape:
        raise ValueError(
            f"counts must end in the support's shape {support.shape}, "
            f"got {raw.shape}"
        )
    if raw.dtype.kind not in "iu" and not (
        raw.dtype.kind == "f" and np.isfinite(raw).all()
        and np.array_equal(raw, np.round(raw))
    ):
        raise ValueError("counts must be integers")
    if (raw < 0).any():
        raise ValueError("counts must be non-negative")
    return raw.astype(np.int64, copy=False)


def estimate(counts, support: SupportSpec) -> np.ndarray:
    """Empirical masses: each count tensor over its own total.

    ``counts`` has any leading axes before the support's four, and the
    result has its shape; where a total is zero the masses are zero.  The
    counts are checked as :func:`check_counts` checks them.
    """
    counts = check_counts(counts, support)
    total = counts.sum(axis=(-4, -3, -2, -1))
    return counts / np.maximum(total, 1)[(...,) + (None,) * 4]


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


def _number(value, what, integer=False):
    """A number given as such: bools and strings are refused, and with
    ``integer`` so is a number with a fractional part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number; got {value!r}")
    if not integer:
        return float(value)
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{what} must be an integer; got {value!r}")
    return int(value)


def _require_integer(value, what):
    """An integer given as such: bools and numbers of other types, even
    integer-valued ones, are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer; got {value!r}")


def _json(value, kind, what):
    """value, if it is the JSON ``kind`` (dict for an object, list for an
    array); raises ValueError naming ``what`` otherwise."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _numbers(value, what):
    """A JSON number or (nested) array of numbers as a float array.

    Strings, booleans and nulls are refused, not converted.  numpy infers a
    string or object dtype from a string or null, and a bool dtype from
    booleans alone, but reads a boolean among numbers as 0 or 1; so only
    the entries equal to 0 or 1 have their types looked at.
    """
    arr = np.asarray(value)
    if arr.dtype.kind == "O" and set(map(type, arr.ravel())) <= {int, float}:
        arr = arr.astype(float)           # integers beyond 64 bits
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold numbers only")
    arr = arr.astype(float)
    suspects = (arr == 0.0) | (arr == 1.0)
    if suspects.any() and bool in set(map(type, np.array(value, dtype=object)[suspects])):
        raise ValueError(f"{what} must hold numbers only, not booleans")
    return arr


def support_from_dict(d) -> SupportSpec:
    _json(d, dict, "support")
    spec = SupportSpec(**{
        name: _numbers(d[name], name)
        for name in ("mu_y", "mu_z", "mu_w", "mu_x", "iota_y")
    })
    for key in ("k_y", "k_z", "k_w", "k_x"):
        if key in d and _number(d[key], key, integer=True) != getattr(spec, key):
            raise ValueError(f"{key}={d[key]} inconsistent with measure lengths")
    return spec


def law_to_dict(law: DiscreteLaw):
    return {
        "support": support_to_dict(law.support),
        "mass": law.mass.ravel().tolist(),
    }


def law_from_dict(d) -> DiscreteLaw:
    support = support_from_dict(_json(d, dict, "law")["support"])
    mass = _numbers(d["mass"], "mass")
    if mass.size != support.n_cells:
        raise ValueError(
            f"mass array has {mass.size} entries, support has {support.n_cells} cells"
        )
    return DiscreteLaw(support, mass.reshape(support.shape))

