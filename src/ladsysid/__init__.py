"""Robust system identification under sparse outliers and dense noise.

Parameters observed through a Toeplitz-structured regressor are estimated by
least-absolute-deviation (l1) minimization, which corrects gross outliers
that break least squares.  The package also certifies which outlier supports
are correctable and computes the analytic recoverable-fraction thresholds.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DimensionError, LadSysIdError,
                     SingularSystemError, SpecError, SupportSizeError,
                     ThresholdSearchError)
from .matgen import (InputDist, Magnitude, NoiseSpec, OutlierSpec,
                     RegressorMatrix, build_regressor, derive_seed,
                     rng_from_seed, sample_input, sample_noise,
                     sample_outliers)
from .solver import Estimate, lad_estimate, ls_estimate
from .cert import (ConcentrationReport, SupportCert, balance_gap,
                   certify_support_exact, certify_support_mc,
                   concentration_diagnostic, empirical_recovery_rate,
                   expected_gain)
from .threshold import (ThresholdResult, bernoulli_row_bounds, entropy,
                        log_normal_sf, normal_cdf, normal_sf, strong_threshold,
                        threshold_inequality)
from .harness import (ExperimentConfig, ExperimentResult, Scenario,
                      SummaryRow, Table1, TrialRecord, TrialRow, XSource,
                      config_from_dict, emit_csv, consistency_config,
                      consistency_scenario, fir_config, fir_scenario, load_config,
                      read_trials_csv, run_experiment, run_trial,
                      scenario_table1, snr_db, trial_rows)

__all__ = [
    "__version__",
    # errors
    "LadSysIdError", "DimensionError", "SpecError", "SingularSystemError",
    "SupportSizeError", "ThresholdSearchError", "ConfigError",
    # matgen
    "InputDist", "RegressorMatrix", "NoiseSpec", "Magnitude",
    "OutlierSpec", "derive_seed", "rng_from_seed", "sample_input",
    "build_regressor", "sample_noise", "sample_outliers",
    # solver
    "Estimate", "lad_estimate", "ls_estimate",
    # cert
    "SupportCert", "balance_gap", "certify_support_exact",
    "certify_support_mc", "empirical_recovery_rate", "ConcentrationReport",
    "concentration_diagnostic", "expected_gain",
    # threshold
    "ThresholdResult", "normal_cdf", "normal_sf", "log_normal_sf", "entropy",
    "threshold_inequality", "strong_threshold", "bernoulli_row_bounds",
    # harness
    "XSource", "Scenario", "TrialRecord", "TrialRow", "SummaryRow",
    "ExperimentConfig", "ExperimentResult", "run_trial", "run_experiment",
    "Table1", "scenario_table1", "emit_csv", "read_trials_csv", "trial_rows",
    "consistency_scenario", "consistency_config", "fir_scenario", "fir_config",
    "snr_db", "load_config", "config_from_dict",
]
