"""Exact and closed-form Cramer-Rao bounds for near-field array sensing.

The library evaluates joint reflectivity / velocity / location estimation
bounds for point targets observed by narrow-band antenna arrays whose
aperture puts the target in the Fresnel region, alongside the far-field and
near-field closed-form approximations of those bounds and the numeric
oracles used to validate everything.
"""

__version__ = "0.1.0"

from .approx import (ApproximationDomainError, CorrectionTerms, NotUlaError,
                     correction_terms, crb_location_approx, crb_rcs_approx,
                     crb_velocity_approx, gain, relative_error, slow_time_sum)
from .crb import (CrbReport, SingularFimError, TargetBounds, closed_form_single,
                  full_crb, schur_target_report)
from .fim import FisherInfo, fim
from .geometry import ArrayGeometry, ula
from .oracle import OracleReport, brute_gain, fd_fim, monte_carlo_isotropic
from .scene import (BLOCKS, DegenerateGeometryError, Scene, Target, dbm_to_watts,
                    make_scene, polar_of, target_indices)
from .steering import SteeringStack, doppler_shift, pathloss, steering_stack
