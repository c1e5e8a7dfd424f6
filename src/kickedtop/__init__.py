"""Kicked-top simulation lab.

A generic spin-j Floquet engine on the permutation-symmetric subspace plus
exact closed-form solutions for the 3- and 4-qubit cases, entanglement
measures, the classical limit map, Husimi-style sphere grids, and a
tomography post-processing pipeline.  Each closed form has a numeric
cross-check in the test suite.
"""

from .symspace import (
    BlochPoint,
    KickedTopParams,
    SymState,
    UnitaryMatrix,
    coherent_state,
    evolve,
    floquet,
    symmetric_to_qubits,
    trajectory,
)
from .measures import (
    concurrence,
    concurrences,
    entanglement_series,
    fidelity,
    linear_entropy,
    qubit_entropies,
    reduced_state,
    rmt_average,
)
from .exact3 import (
    GeneralState3,
    avg_entropy3,
    concurrence3_000,
    entropy3_closed,
    general_entropy3,
)
from .exact4 import (
    TunnelingReport,
    avg_entropy4,
    block_power4,
    entropy4_closed,
    ghz_fidelity_series,
    tunneling,
    tunneling_overlap_series,
)
from .classical import ClassicalPoint, portrait
from .husimi import SphereGrid, husimi_grid
from .tomo import (
    ReadoutModel,
    bundled_readout_model,
    correct_populations,
    pipeline_metrics,
    project_psd,
    reconstruct,
)

__version__ = "0.1.0"
