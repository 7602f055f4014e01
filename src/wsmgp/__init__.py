"""Weakly-supervised multi-output GP regression via convolved sparse GPs."""

from .baselines import fit_omgp, fit_omgp_ws, fit_scmgp
from .bounds import (
    elbo_cvb,
    exact_marglik_oracle,
    vterm,
)
from .gradients import GradientBundle, finite_diff_check
from .kernels import (
    HyperParams,
    IndependentSEHyperParams,
    InducingInputs,
    LatentKernelParams,
    NoiseParams,
    OutputKernelParams,
    SEKernelParams,
    eval_cross_ff,
    eval_cross_fu,
    eval_kuu,
    eval_smoothing,
)
from .model import (
    Dataset,
    ModelConfig,
    VariationalState,
    init_state,
    make_dataset,
    validate_dataset,
)
from .predict import Prediction, posterior_predict
from .svi import elbo_svb, gaussian_kl_u, optimal_qu
from .trainer import FitReport, OptimizerConfig, fit_cvb, fit_svb_em
from .experiments import (
    SyntheticConfig,
    generate_synthetic,
    ingest_csv,
    label_accuracy,
    rmse_eval,
    run_benchmark,
)

__version__ = "0.1.0"

# the only kernel implementation; perfbench records it with each run
BACKEND = "numpy"
