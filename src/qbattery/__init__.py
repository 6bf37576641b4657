"""Quantum-battery charging power: moments, corrected bound, dynamics, search.

The core objects are a battery-first tensor layout (`TensorStructure`),
validated operator/state wrappers (`HermitianOperator`, `DensityMatrix`),
the full verification of one instance (`verify_instance`) and of a
trajectory (`trajectory_report`). Everything else, the stacked kernel, the
seeded ensembles and the search among them, lives in the submodules
`operators`, `moments`, `ensembles`, `dynamics`, `search` and `cli`.
"""

__version__ = "0.1.0"

from .dynamics import trajectory_report
from .moments import verify_instance
from .operators import DensityMatrix, HermitianOperator, NumericalIntegrityError, TensorStructure

__all__ = [
    "__version__",
    "DensityMatrix",
    "HermitianOperator",
    "NumericalIntegrityError",
    "TensorStructure",
    "trajectory_report",
    "verify_instance",
]
