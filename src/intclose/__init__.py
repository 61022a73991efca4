"""Exact integral closures of F[x_n..x_1][y]/(f).

Characteristic q: Frobenius fixpoint iteration on modules of fractions.
Characteristic 0: per-prime closures reconciled by the Chinese remainder
theorem, lifted by extended-Euclidean rational reconstruction, and certified
by ideal-containment, numerator and Groebner-basis checks.
"""

from .closure import (ClosurePresentation, ClosureError, FractionSet,
                      canonical_generators, frobenius_images, frobenius_nf,
                      frobenius_scale, induce_presentation, minimize_denominator,
                      module_reduce, psi_combination, qth_closure, qth_power_step)
from .conductor import ConductorError, canonical_conductor, partial_derivative
from .domains import GF, INT, MODP, QQ, RAT, ZZ, Domain, DomainError, balanced, is_prime
from .driver import (Algorithm1Result, DriverError, RunConfig, run_algorithm1,
                     run_charq)
from .groebner import (GroebnerError, ModuleVector, buchberger, head_reduce,
                       is_minimal_reduced_gb, minimal_reduced, module_gb,
                       module_normal_form, normal_form, s_poly)
from .lifting import (Certificate, LiftError, LiftState, PrimeRun, SignatureError,
                      crt, is_prime_usable, mu_poly, psi_substitute, rat_recon,
                      reconcile_and_lift, run_prime, verify_candidate)
from .orders import (MonomialOrder, OrderError, grevlex_over_weight,
                     weight_over_grevlex)
from .problem import ProblemError, ProblemFile, parse_problem
from .rings import ParseError, Polynomial, Ring, RingError, format_poly
from .weights import (WeightError, mono_weight, normalize_weights,
                      validate_weight_function, weight_of)

__version__ = "0.1.0"
