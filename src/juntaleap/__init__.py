"""Query-complexity exponents for junta learning, support-recovery games,
and two-layer SGD / dimension-free dynamics."""

from .setsystem import (
    INFINITY,
    SetSystem,
    cover,
    greedy_closure,
    leap,
    rel_cover,
    rel_leap,
)
from .losses import LossSpec, get_loss
from .junta import (
    FiniteMarginal,
    HypercubeJunta,
    JuntaProblem,
    LabelNoise,
    PlantedInstance,
    expand_hypercube,
    hard_instance,
    problem_from_dict,
    sample,
    uniform_hypercube_marginal,
)
from .fourier import OrthonormalBasis, conditional_moment_tensor, gram_schmidt, inverse_wht, wht
from .detect import DetectReport, Witness, detect, detect_csq, detect_dlq, detect_sq, exponents
from .oracle import (
    FAIL,
    AdversarialOracle,
    GameResult,
    HonestOracle,
    Query,
    Transcript,
    adaptive_learner,
    grouped_learner,
    nonadaptive_learner,
    play_game,
)
from .dynamics import (
    Activation,
    DFState,
    KernelReport,
    ParticleEnsemble,
    TrainConfig,
    bayes_risk,
    df_risk,
    df_step,
    excess_risk,
    init_df_state,
    init_ensemble,
    kernel,
    layerwise_train,
    poly_activation,
    risk,
    run_df,
    run_sgd,
    sgd_step,
    smallest_eigenvalue,
    support_alignment,
    tanh_activation,
)

__version__ = "0.1.0"
