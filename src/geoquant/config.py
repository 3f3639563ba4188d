"""Central tolerance configuration and the shared Gauss-Legendre rule.

Every floating tolerance used by library code lives here; modules read the
fields of a :class:`Tolerances` instance instead of spelling literals inline,
so a run can tighten or loosen the whole stack coherently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    #: spectral-derivative residuals evaluated on interior test vectors
    grid: float = 1e-6
    #: closed-form matrix algebra (ladder relations, Casimir, exact spectra)
    exact: float = 1e-10
    #: oscillatory quadrature and small-time extrapolation, relative
    bks: float = 1e-3
    #: entrywise Hermiticity required of a Gram matrix at construction
    gram_hermiticity: float = 1e-12
    #: closed forms versus their quadrature oracles, relative
    quadrature_match: float = 1e-8
    #: largest relative change of the Fock and spin Gram oracles under node doubling
    quadrature_goal: float = 1e-12
    #: largest oracle Gram off-diagonal, as a fraction of sqrt(G_ii G_jj), before it refuses
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


@lru_cache(maxsize=16)
def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
