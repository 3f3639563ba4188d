"""Exception types shared across the toolkit."""

from __future__ import annotations


class GeoquantError(Exception):
    """Base class for all toolkit errors."""


class BasisMismatch(GeoquantError):
    """Two operators or an operator/Gram pair live in different bases."""


class DegenerateGram(GeoquantError):
    """A Gram matrix is singular or not positive definite."""


class EigenFailure(GeoquantError):
    """A Gram-weighted spectrum could not be taken.

    Raised when the operator is refused as not Gram-self-adjoint, before any
    solve (``solver`` is then empty), and when the eigensolver fails or
    returns non-finite values (``solver`` names it).  ``dim`` is the matrix
    dimension.
    """

    def __init__(self, message: str, *, dim: int | None = None, solver: str = ""):
        super().__init__(message)
        self.dim = dim
        self.solver = solver


class UnsupportedObservable(GeoquantError):
    """The observable's functional form is outside an operation's domain."""


class DegreeOverflow(GeoquantError):
    """A polynomial operation would exceed the supported total degree."""


class FlowEscapesGrid(GeoquantError):
    """A flow carries too much of a state's mass outside the grid.

    ``escaped_fraction`` is the largest squared-norm fraction that one shear
    of the flow carries across the box edge.
    """

    def __init__(self, message: str, *, escaped_fraction: float):
        super().__init__(message)
        self.escaped_fraction = escaped_fraction


class PolarizationViolation(GeoquantError):
    """The observable does not preserve the chosen polarization."""


class SupportEscapesGrid(GeoquantError):
    """A state carries non-negligible mass on the boundary band of its grid."""

    def __init__(self, message: str, *, tail_mass: float = 0.0):
        super().__init__(message)
        self.tail_mass = tail_mass


class QuadratureFailure(GeoquantError):
    """An oscillatory integral could not be formed or did not converge."""

    def __init__(self, message: str, *, doubling_delta: float = 0.0):
        super().__init__(message)
        self.doubling_delta = doubling_delta


class ConfigError(GeoquantError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, message: str, *, field: str = ""):
        super().__init__(message)
        self.field = field
