"""Discrete beam-splitter channels on prime-dimensional qudits."""

from .linalg import (
    partial_trace,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from .weyl import (
    BSParams,
    CharacteristicTable,
    QuditParams,
    WeylIndex,
    characteristic_function,
    inverse_weyl_transform,
    valid_st_pairs,
    weyl_operator,
    wigner_function,
)
from .states import (
    DensityMatrix,
    StabilizerFamily,
    enumerate_stabilizers,
    mean_state,
    preset_state,
    read_state,
    write_state,
)
from .channel import (
    BeamSplitterChannel,
    ChoiTable,
    complement_identity_check,
    convolve,
    convolve_complement,
    degradation_witness,
    iterate_convolution,
)
from .magic import mrm, mrm_enumerated, mrm_inf, wigner_negativity
from .capacity import (
    CapacityReport,
    OptimizerBudget,
    capacity_witness_construction,
    coherent_information,
    coherent_information_purification,
    qcap_one_shot,
)
from .coding import (
    CodeSpec,
    entanglement_fidelity,
    fidelity_ratio_bound_check,
    magic_code_construction,
    stabilizer_ceiling_search,
    stabilizer_code_construction,
)
from .verify import VerifyConfig, run_suite

__version__ = "0.1.0"
