"""Statistics substrate: confidence intervals, error metrics, merging.

Everything the estimation layer and the experiment harness need on the
statistics side, implemented from scratch:

* normal confidence intervals via a from-scratch inverse normal CDF
  (paper Sec. 6: ``X̂ ± 1.96·sqrt(Var[X̂])``);
* the delta-method variance for ratio estimators (paper Eq. 11, used for
  the global clustering coefficient);
* error metrics: ARE (Sec. 6), MARE and max-ARE (Table 3), NRMSE, CI
  coverage;
* Welford running moments for Monte-Carlo unbiasedness checks;
* the sharded merge layer: the union Horvitz–Thompson pass over
  per-shard reservoirs and pooled variance across replicate groups
  (:mod:`repro.stats.merge`, :mod:`repro.stats.variance`).
"""

from repro.stats.confidence import confidence_interval, inverse_normal_cdf
from repro.stats.metrics import (
    absolute_relative_error,
    ci_coverage,
    max_absolute_relative_error,
    mean_absolute_relative_error,
    normalized_rmse,
)
from repro.stats.merge import (
    MergedEstimates,
    PooledMetric,
    merge_estimates,
    merge_reports,
)
from repro.stats.running import RunningMoments
from repro.stats.variance import (
    pooled_mean,
    pooled_variance,
    ratio_variance_delta,
)

__all__ = [
    "confidence_interval",
    "inverse_normal_cdf",
    "absolute_relative_error",
    "ci_coverage",
    "max_absolute_relative_error",
    "mean_absolute_relative_error",
    "normalized_rmse",
    "RunningMoments",
    "MergedEstimates",
    "PooledMetric",
    "merge_estimates",
    "merge_reports",
    "pooled_mean",
    "pooled_variance",
    "ratio_variance_delta",
]
