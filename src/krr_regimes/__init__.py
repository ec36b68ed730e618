"""Learning-curve decay regimes for kernel ridge regression under Gaussian design.

The public names below are looked up on first use (PEP 562), so importing
the package loads none of its submodules.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "dataspec": ("CapacitySourceEstimate", "FeatureDecomposition", "KernelSpec",
                 "cumulative_tails", "estimate_alpha_r", "feature_decomposition",
                 "fit_loglog_slope", "gram_matrix"),
    "regimes": ("CrossoverLines", "OptimalDecay", "PhaseDiagram", "Region", "RegimeLabel",
                "RegimeQuery", "classify", "noise_crossover_n", "noisy_optimum",
                "optimal_decay", "phase_diagram", "region_exponent",
                "regularization_crossover_n"),
    "simulator": ("LamSchedule", "LearningCurve", "SimConfig", "excess_error_empirical",
                  "fit_decay_exponent", "grid_search_lambda", "learning_curve", "ridge_fit",
                  "sample_dataset"),
    "spectrum": ("PowerLawParams", "Spectrum", "power_law_spectrum", "teacher_variance"),
    "theory": ("ErrorDecomposition", "FixedPointState", "ZSolution", "excess_error_closed",
               "optimal_lambda", "solve_fixed_point", "solve_z"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # An AttributeError lets `from krr_regimes import cli` import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
