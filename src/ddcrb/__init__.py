"""Cramer-Rao bounds for joint delay/Doppler estimation in passive radar
with unknown transmitted signals, plus the verification machinery (dual
formula paths, finite-difference oracles, Monte Carlo achievability)."""

from .signals import (DerivMethod, PulseTrain, SampledSignal, Scenario, eta,
                      gaussian_fn, gaussian_pulse, gaussian_pulse_train,
                      mean_vector, pulse_train_fn, synthesize_pulse_train,
                      triangle_wave)
from .fim import (Bound, BoundPair, CrbReport, FimMatrix, SingularFimError,
                  eliminated_pair, schur_complement)
from .bounds import (crb_separate_unknown, fim_known_signal, fim_unknown_signal,
                     jcrb_known, jcrb_unknown)
from .structure import (StructureQuantities, fim_known_structure,
                        jcrb_known_signal_pulse, structure_quantities,
                        support_assumption_holds)
from .scaled import (crb_separate_unknown_a, fim_known_signal_scale, fim_unknown_a,
                     jcrb_scaled_known_a, jcrb_structure_known_a,
                     jcrb_unknown_a_structure)
from .covariance import (StackedModel, build_stacked, crb_correlated, dc_list,
                         fim_trace_form)
from .overlap import OverlapFim, crb_overlap, fim_overlap, triangle_overlap_curve
from .verify import (McConfig, McReport, Observations, ml_estimate_known,
                     monte_carlo_report, oracle_fim_mean, profile_ml_estimate,
                     simulate_observations)

__version__ = "0.1.0"
