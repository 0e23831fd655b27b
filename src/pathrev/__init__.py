"""Time reversal of Markov diffusions and random walks, with receipts.

Simulate a forward process, estimate or evaluate its marginal densities,
assemble the reversed drift or reversed jump intensities, and certify the
construction numerically: integration-by-parts residuals, continuity of the
current velocity, entropy and free-energy balances, and two-sample law
checks between the simulated reversal and the flipped forward ensemble.
"""

__version__ = "0.1.0"

from .core import (BandwidthError, ConfigError, ConsistencyError, DomainError,
                   JumpPathEnsemble, MatrixField, NumericError, ParameterError,
                   PathEnsemble, SimulationError, SupportError, TimeGrid,
                   VectorField, ensemble_to_csv, flip_ensemble, load_ensemble,
                   make_grid, path_rng, path_streams, save_ensemble, trapezoid)
from .models import (DiffusionSpec, Gaussian, GaussianFlow, GraphWalkSpec,
                     KolmogorovSpec, ModelBundle, biased_cycle_walk, bm_diffusion,
                     bm_flow, counting_reference_walk, diffusion_spec, graph_walk,
                     kolmogorov_spec, load_model, ou_diffusion, ou_marginal_flow,
                     ou_reference, reverse_flow, walk_marginal_fn)
from .simulate import SimConfig, ctmc_simulate, euler_maruyama, jump_states_at, marginal_slice
from .density import (DensityFlow, KdeModel, exact_flow_density, kde_fit,
                      kde_flow, kde_score, score_bandwidth, silverman_bandwidth)
from .reversal import (BackwardDriftField, MomentumFields, ReversedDrift,
                       ReversedWalk, VelocityFields, momentum_fields,
                       osmotic_residual, reversed_drift,
                       reversed_jump_intensities, velocity_decomposition)
from .entropy import (ActionEstimate, EntropyReport, FisherReport,
                      current_osmosis_decomposition, entropy_vs_counting,
                      fisher_information, fisher_information_mc,
                      gaussian_relative_entropy, girsanov_action,
                      heat_flow_dissipation, jump_entropy_integrand,
                      rw_relative_entropy)
from .verify import (ContinuityReport, EnergyTestResult, ResidualReport,
                     TestFunction, carre_du_champ_estimate, constant_function,
                     continuity_residual, coordinate_function,
                     detailed_balance_residual, graph_ibp_residual,
                     ibp_residual, nelson_forward_derivative, square_function,
                     two_sample_energy, windowed_cubic)

__all__ = [name for name in dir() if not name.startswith("_")]
