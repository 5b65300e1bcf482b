"""Exact combinatorics of descent statistics, perfect matchings and
Stirling permutations, with exhaustive cross-verification of every
identity the package computes."""

from .poly import CapacityError, ExactPoly, divexact, poly_reverse
from .series import (TruncatedSeries, egf_coefficient, series_exp,
                     series_inverse, series_log, series_pow_symbolic,
                     series_ratio, series_sqrt)
from .sturm import (SturmReport, chain_real_roots, descartes_real_roots,
                    sturm_real_roots)
from .objects import (CycleStirling, DecoratedPermutation, InversionSequence,
                      PerfectMatching, Permutation, SignedPermutation,
                      StirlingWord, encode, generate, parse, stats, validate)
from .bijections import (BijectionReport, MatchingTriple, encode_triple,
                         phi_map, psi_map, verify_bijection)
from .grammar import (CYCLE_GRAMMAR, EULERIAN_GRAMMAR, Grammar, derive,
                      lemma1_sides, lemma2_sides)
from .verify import CHECKS, REGISTRY, VerifyReport, run_all, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
