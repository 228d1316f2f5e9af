"""Simulation toolkit for indirect quantum control via a resettable actuator."""

__version__ = "0.1.0"

from .qcore import (
    ConvergenceError,
    DensityMatrix,
    HilbertSpace,
    NumericalRangeError,
    Operator,
    SuperOperator,
    choi_matrix,
    dissipator_super,
    fidelity_pure,
    ham_super,
    is_cptp,
    mat_exp,
    trace_distance,
    trace_norm,
)
from .generators import (
    CycleGenerator,
    SwitchingFunction,
    constant,
    effective_hamiltonian,
    from_table,
    mean_coupling,
    phi1_super,
    phi2_super,
    sin_squared,
    square_pulse,
)
from .dynamics import (
    ResetSchedule,
    Trajectory,
    cycle_map,
    cycle_propagator,
    cycle_unitary,
    evolve_with_resets,
    intra_cycle_trajectory,
)
from .analysis import (
    DissipativeScalingResult,
    LinearFit,
    ScalingReport,
    chernoff_deviation,
    dissipative_scaling,
    fit_order,
    gradual_reset_scan,
    induced_trace_norm,
    lie_algebra_dimension,
    measured_stroboscopic_deviation,
    omega1_super,
    stroboscopic_bound_check,
    stroboscopic_deviation,
)
from .models import (
    OscillatorQubitModel,
    bloch_density,
    build_oscillator_qubit,
    coherent_state,
    fock_state,
    qubit_qubit_model,
)
from .config import ExperimentConfig, default_config, qubit_defaults
