"""capflow: a desk-scale laboratory for capacity-weighted function norms.

Computes set capacities under spectral Bessel-type kernels with certified
duality gaps, exact Lorentz quasi-norms on finite measure spaces, localized
maximal operators and A1-type weight constants, multiplier/block/weighted
norm estimates with explicit witnesses, and runs reproducible verification
campaigns over every finitely checkable inequality the estimates satisfy.
"""
from .measure import (DiscreteMeasureSpace, Field, LorentzExponents,
                      StepFunction, decreasing_rearrangement,
                      distribution_function, gamma_norm, lorentz_norm,
                      lorentz_norms, pairing, power_identity_check)
from .grid import Grid, KernelSpec, bessel_kernel, convolve, make_grid
from .capacity import (CapacityOracle, CapacityParams, CapacityProblem,
                       CapacityResult, NormEstimate, SetMask, capacity,
                       capacity_batch, capacitary_lorentz_norm,
                       equilibrium_checks, finite_problem, grid_problem,
                       identity_problem, l1c_norm, lebesgue_lower_bound_check,
                       nonlinear_potential, strichartz_check, unit_cover)
from .multiplier import (TestSetFamily, char_m_via_weights, default_grid_family,
                         m_norm, m_norm_local, m_norms,
                         maximal_boundedness_probe, script_m_norm,
                         weak_script_m_norm, weak_script_m_norms)
from .weights import (Weight, WeightConfig, a1loc_constant, average_weights,
                      level_sum_check, local_maximal, n_norm_upper,
                      potential_weight)
from .blocks import (AtomicMeasure, BlockDecomposition,
                     block_norm_upper_constructive, block_norm_upper_greedy,
                     block_norms_upper_greedy, lorentz_kothe_dual_norm,
                     trace_norm, transport_decomposition)
from .suites import CapflowConfig, Verdict, run_suite, write_verdicts

__version__ = "0.1.0"
