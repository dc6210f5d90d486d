"""Query-complexity exponents for junta learning, support-recovery games,
and two-layer SGD / dimension-free dynamics.

The public names below load their module on first access (PEP 562), so that
importing the package, or `juntaleap.cli` for the command-line entry point,
does not import numpy: `cli.main` sets the BLAS thread variables before
numpy starts its BLAS.
"""

import importlib

_EXPORTS = {
    "setsystem": ("INFINITY", "SetSystem", "cover", "greedy_closure", "leap", "rel_cover", "rel_leap"),
    "losses": ("LossSpec", "get_loss"),
    "junta": (
        "FiniteMarginal", "HypercubeJunta", "JuntaProblem", "LabelNoise", "PlantedInstance", "expand_hypercube",
        "hard_instance", "problem_from_dict", "uniform_hypercube_marginal",
    ),
    "fourier": ("OrthonormalBasis", "conditional_moment_tensor", "gram_schmidt", "inverse_wht", "wht"),
    "detect": ("DetectReport", "Witness", "detect_csq", "detect_dlq", "detect_sq", "exponents"),
    "oracle": ("AdversarialOracle", "GameResult", "HonestOracle", "Query", "Transcript", "play_game"),
    "dynamics": (
        "Activation", "DFState", "KernelReport", "ParticleEnsemble", "TrainConfig", "bayes_risk", "df_risk",
        "df_step", "init_df_state", "init_ensemble", "kernel", "layerwise_train", "poly_activation", "run_df",
        "run_sgd", "sgd_step", "smallest_eigenvalue", "support_alignment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

