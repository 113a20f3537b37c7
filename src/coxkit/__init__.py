"""Exact computation in Coxeter groups.

Canonical words (root action or braid rewriting), diagram classification,
parabolic closures, even-case conjugacy decisions with certificates, finite
quotients for conjugacy separation, and automorphism compatibility audits.
"""

from .budgets import DEFAULT, SearchBudget
from .diagram import (INF, CoxeterMatrix, DiagramClassification, classify,
                      components, coxeter_matrix, format_matrix, is_even,
                      is_crystallographic, is_irreducible, is_right_angled,
                      is_spherical, parse_matrix, spherical_order, submatrix,
                      theorem12_applicable)
from .roots import cartan, shortlex
from .words import (BudgetExceeded, Conjugator, Element, IDENTITY, Infinite,
                    NotFoundWithin, ball, braid_class, conjugacy_class,
                    conjugate, conjugate_search, element_order,
                    enumerate_group, format_word, generator, invert, length,
                    multiply, parse_word, reduce, reflections_of, support)
from .finite import FiniteGroup, finite_model
from .parabolic import (Parabolic, PcBounded, PcExact, PcUnknown,
                        is_essential, member, normalizer_centralizer,
                        parabolic_contains, parabolic_equal,
                        parabolic_intersection_finite, pc_coxeter_product,
                        pc_element, standard, standard_closure)
from .quotients import (CapExceeded, CosetTable, FiniteQuotientHom,
                        SeparationNotFound, SeparationWitness,
                        abelianize_even, composite_hom, perm_hom,
                        retraction_hom, separate, separation_plan, specialize,
                        todd_coxeter)
from .evenconj import (ClosedClassCertificate, ComponentCertificate,
                       Conjugate, CriterionCertificate, NotConjugate,
                       OrderCertificate, QuotientCertificate, Unknown,
                       decide_conjugacy, decide_conjugacy_even,
                       retr_criterion, retract,
                       retraction_valid, retractions_commute_check,
                       verify_decision)
from .autcompat import (AutomorphismSpec, CompatNo, CompatReport,
                        CompatUnknown, CompatYes, GeneratingSetPair, Inner,
                        InnerByGraph, Invalid, NotInnerByGraph,
                        NotPointwiseSmall, Undecided, Verified, apply_aut,
                        apply_inv, compat_report, cryst_shortcut, format_spec,
                        identity_spec, inner_by_graph, inner_spec,
                        pair_from_spec, parse_spec, smallwords_inner,
                        standard_pair, verify_automorphism)
