"""geoquant: finite matrix models of geometric-quantization operators.

Builds quantum operator matrices from classical symplectic data on flat
phase space, the two-sphere and the cylinder, and verifies the standard
quantitative claims: the commutation conditions of the prequantization map,
integrality of the sphere sectors, spin and oscillator spectra, canonical
operators from half-form quantization, and the Fourier/pairing route to the
free-particle evolution.
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .linalg import GramMatrix, OperatorMatrix, adjoint_wrt, commutator, spectrum

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOLERANCES",
    "GramMatrix",
    "OperatorMatrix",
    "Tolerances",
    "adjoint_wrt",
    "commutator",
    "spectrum",
    "__version__",
]
