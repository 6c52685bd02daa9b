"""Semantic exception hierarchy.

Every failure mode a caller can act on gets its own class; generic
ValueError is reserved for malformed arguments (wrong shapes, bad flags).
"""


class WeakdepError(Exception):
    """Base class for all package-specific errors."""


class SupportMismatch(WeakdepError):
    """Two laws live on different supports."""


class ZeroConditioningMass(WeakdepError):
    """A conditioning cell has zero probability."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"zero probability on conditioning cell {cell}")


class PositivityViolation(WeakdepError):
    """A representer denominator density is zero on some cell."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"zero density at cell {cell}")


class CollinearSupport(WeakdepError):
    """Per-cell outcome integrals are collinear with cell measures."""


class NoSolution(WeakdepError):
    """A per-stratum linear system is inconsistent: its right-hand side is
    outside the operator's range on ``stratum``."""

    def __init__(self, stratum, residual, equation):
        self.stratum, self.residual, self.equation = stratum, residual, equation
        super().__init__(f"equation for {equation} inconsistent on stratum {stratum} "
                         f"(residual {residual:.3g})")


class InvalidPerturbation(WeakdepError):
    """A kernel perturbation breaks the positivity of its Y kernels."""


class SingularPerturbation(WeakdepError):
    """The rank-one update has no inverse (update factor vanished)."""


class DegenerateBase(WeakdepError):
    """A base law has constant representer per stratum; targeting is impossible."""


class BracketingFailure(WeakdepError):
    """No admissible perturbation scale meets the requested closeness target."""

    def __init__(self, step, message):
        self.step = step
        super().__init__(f"step {step}: {message}")


class DegenerateSample(WeakdepError):
    """The empirical law does not support the plug-in construction."""
