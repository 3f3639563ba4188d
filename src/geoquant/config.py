"""Central tolerance configuration.

Every floating tolerance used by library code lives here; modules read the
fields of a :class:`Tolerances` instance instead of spelling literals inline,
so a run can tighten or loosen the whole stack coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    #: finite-difference residuals evaluated on interior test vectors
    grid: float = 1e-6
    #: closed-form matrix algebra (ladder relations, Casimir, exact spectra)
    exact: float = 1e-10
    #: oscillatory quadrature and small-time extrapolation, relative
    bks: float = 1e-3
    #: entrywise Hermiticity required of a Gram matrix at construction
    gram_hermiticity: float = 1e-12
    #: double-adjoint round trip, relative Frobenius
    adjoint_roundtrip: float = 1e-12
    #: spectrum drift under a Gram-unitary change of basis
    spectrum_invariance: float = 1e-10
    #: closed forms versus their quadrature oracles, relative
    quadrature_match: float = 1e-8
    #: relative goal of the spin oracle's radial quadrature (no absolute floor)
    quadrature_goal: float = 1e-12
    #: oracle Gram off-diagonals below this fraction of sqrt(G_ii G_jj) are zeroed
    quadrature_zero: float = 1e-14
    #: distance to the nearest integer accepted by integrality checks
    integer_window: float = 1e-6
    #: admissible boundary-band mass for transforms, relative to total
    tail_mass: float = 1e-8

    def override(self, **kwargs: float) -> "Tolerances":
        """Return a copy with the named tolerances replaced."""
        known = {f.name for f in fields(self)}
        unknown = set(kwargs) - known
        if unknown:
            raise KeyError(f"unknown tolerance name(s): {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()
