"""Multi-target detection and localization for noncoherent MIMO radar
with widely separated antennas: optimal joint grid search plus the SSR
and SIC successive algorithms, with a Monte Carlo evaluation harness."""

from . import _kernels
from .errors import (BandwidthError, CoincidentDelayError, ConfigError,
                     NoiseCovarianceError, ObservationWindowError)
from .geometry import (AntennaLayout, Grid, Position2D, Rect, Scene,
                       TargetTruth, bistatic_delay)
from .signal import (NoiseModel, PathObservation, WaveformSet,
                     build_waveform_set, scale_alphas_for_snr,
                     synthesize_observation, whiten)
from .likelihood import ObjectiveField, ReplicaCache, objective_field
from .estimators import (Detection, DetectionReport, EstimatorConfig,
                         ThresholdConfig, calibrate_threshold, joint_search,
                         sic_modified_term, sic_run, sic_threshold, ssr_run)
from .harness import (MetricsRecord, RunContext, ScenarioConfig, associate,
                      export_csv, load_scenario, run_sweep, run_trial,
                      valid_detection)

__version__ = "0.1.0"

KERNEL_BACKEND = _kernels.BACKEND
