"""Classical symbolic layer and prequantization on model phase spaces."""

from .evolution import prequantum_evolve
from .gridops import (PhaseSpaceGrid, PrequantApplier, check_dirac, liouville_gram,
                      prequantize, selfadjoint_residual)
from .observables import DEGREE_CAP, Observable, poisson_bracket
from .sectors import (WeilResult, cylinder_momentum_operator, cylinder_spectrum,
                      weil_admissible)

__all__ = [
    "DEGREE_CAP",
    "Observable",
    "PhaseSpaceGrid",
    "PrequantApplier",
    "WeilResult",
    "check_dirac",
    "cylinder_momentum_operator",
    "cylinder_spectrum",
    "liouville_gram",
    "poisson_bracket",
    "prequantize",
    "prequantum_evolve",
    "selfadjoint_residual",
    "weil_admissible",
]
