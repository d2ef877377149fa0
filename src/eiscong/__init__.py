"""eiscong: exact arithmetic for non-rational Eisenstein series on Gamma0(N),
their boundary divisors and cuspidal subgroup orders, and Eisenstein
congruences with weight-2 newforms."""

from .arith import (DomainError, Factorization, euler_phi, factor, is_p_good,
                    is_prime, sturm_bound, valuation)
from .characters import (DirichletCharacter, bernoulli_B1, bernoulli_B2,
                         character_from_label, chi_in_XS,
                         enumerate_characters, gauss_sum, gauss_sum_inverse,
                         quadratic_character)
from .cusps import (Cusp, CuspDivisor, D_divisor, D_NML, beta_constant,
                    beta_tilde, boundary_divisor, closed_form_boundary,
                    cusp_from_fraction, enumerate_cusps, pullback_pi_l,
                    pullback_pi_paren, verify_boundary)
from .cyclotomic import CycElement, CyclotomicField, cyclotomic_polynomial
from .eisenstein import (EisensteinParams, QExpansion, build_E, e_phi,
                         lambda_pm, lambda_twisted, refine_critical,
                         refine_ordinary, slash_scale)
from .ffield import FiniteField
from .ideals import (CandidateReport, IdealDescriptor,
                     candidate_characteristics, cuspidal_order, descriptor,
                     s1_set, s2_set)
from .lattices import IntegralIdeal, numerator_index
from .newforms import (NewformRecord, bundled_newforms, fetch_newforms,
                       load_newforms)
from .scanner import (CongruenceReport, FullScanResult, eisenstein_basis,
                      full_scan, reduction_embeddings, scan)

__version__ = "0.1.0"
