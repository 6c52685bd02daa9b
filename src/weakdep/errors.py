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


class InvalidPerturbation(WeakdepError):
    """A kernel perturbation violates one of its positivity constraints."""

    def __init__(self, which):
        self.which = which
        super().__init__(f"perturbation constraint violated: {which}")


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
