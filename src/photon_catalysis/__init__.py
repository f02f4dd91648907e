"""Heralded photon catalysis: states, nonclassicality metrics, detector
statistics, and reflectivity design.

Every public name below is loaded from its module on first use (PEP 562), so
importing the package, or running `catalysis --help`, loads no numpy."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# `catalysis sweep --metric` choices, kept here so that building the parser
# loads no `design`; `design` re-exports them.
METRICS = ("var_x_db", "var_p_db", "success_prob", "g2",
           "fidelity_to_target", "wigner_min")

_EXPORTS = {
    "fock": ("FockState", "PhotonNumberDistribution", "TruncationError",
             "UndefinedQuantityError", "coherent_amplitudes", "default_dim",
             "fidelity", "make_coherent", "make_css", "make_fock",
             "number_distribution", "state_from_json", "state_to_json"),
    "catalysis": ("BeamSplitter", "CatalysisConfig", "IteratedConfig",
                  "TwoModeState", "bs_transform", "catalysis_coefficient",
                  "herald", "iterated_pcoc", "oracle_discrepancy",
                  "pcoc_oracle", "pcoc_state", "success_probability_analytic",
                  "two_mode_output"),
    "analysis": ("DomainError", "PoleError", "QuadratureStats", "WignerGrid",
                 "WignerGridSpec", "g2", "locus_alpha_max", "locus_alpha_min",
                 "quadrature_variances", "variance_p_analytic",
                 "variance_x_analytic", "wigner", "wigner_negativity",
                 "wigner_to_csv", "wigner_to_pgm"),
    "detector": ("ClickDistribution", "JointClickDistribution", "LossChannel",
                 "TMDConfig", "apply_loss", "g2_from_clicks",
                 "joint_output_distribution", "tmd_click_distribution"),
    "design": ("Axis", "DesignProblem", "OptimizeResult", "SweepSpec",
               "optimize_reflectivities", "optimize_result_to_json", "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
