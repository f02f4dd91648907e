"""Heralded photon catalysis: states, nonclassicality metrics, detector
statistics, and reflectivity design."""

from .fock import (FockState, PhotonNumberDistribution, TruncationError,
                   UndefinedQuantityError, coherent_amplitudes, default_dim,
                   distribution_moment, fidelity, inner_product, make_coherent,
                   make_css, make_fock, number_distribution, state_from_json,
                   state_to_json)
from .catalysis import (BeamSplitter, CatalysisConfig, IteratedConfig,
                        TwoModeState, bs_transform, catalysis_coefficient,
                        herald, iterated_pcoc, oracle_discrepancy, pcoc_oracle,
                        pcoc_state, success_probability_analytic,
                        two_mode_output)
from .analysis import (DomainError, PoleError, QuadratureStats, WignerGrid,
                       WignerGridSpec, g2, locus_alpha_max, locus_alpha_min,
                       quadrature_variances, variance_p_analytic,
                       variance_x_analytic, wigner, wigner_grids,
                       wigner_negativity, wigner_to_csv, wigner_to_pgm)
from .detector import (ClickDistribution, JointClickDistribution, LossChannel,
                       TMDConfig, apply_loss, g2_from_clicks,
                       joint_output_distribution, joint_to_csv, joint_to_json,
                       tmd_click_distribution)
from .design import (Axis, DesignProblem, OptimizeResult, SweepSpec,
                     optimize_reflectivities, optimize_result_to_json, sweep)

__version__ = "0.1.0"
