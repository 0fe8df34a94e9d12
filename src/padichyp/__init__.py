"""p-adic extension of Gaussian hypergeometric series, with the gamma,
character-sum, q-series and combinatorial machinery needed to verify its
congruences with truncated classical series."""

from .characters import (
    Character,
    characters_for_arguments,
    greene_series_scaled,
)
from .combinatorics import (
    apery,
    bin_harmonic_id1,
    bin_harmonic_id2,
    lemma_PQ_expected,
    lemma_PQ_sums,
)
from .gamma import (
    g1,
    g2,
    gamma_p,
    rep,
    section3_rows,
)
from .gfunction import GArguments, g_function, s_factor, theorem26_sign
from .hyp import HypParams, rising_factorial, truncated_hyp, truncated_hyp_exact
from .padic import PadicValue, PrecisionError, congruent_mod, rational_to_padic
from .checks import RunConfig, run_config
from .qseries import QSeries, eta_product, gamma_coeffs, rv_form_coeffs
from .report import CongruenceReport

__version__ = "0.1.0"

__all__ = [
    "Character", "CongruenceReport", "GArguments", "HypParams", "PadicValue",
    "PrecisionError", "QSeries", "RunConfig", "apery", "bin_harmonic_id1",
    "bin_harmonic_id2", "characters_for_arguments", "congruent_mod",
    "eta_product", "g1", "g2", "g_function", "gamma_coeffs", "gamma_p",
    "greene_series_scaled", "lemma_PQ_expected", "lemma_PQ_sums",
    "rational_to_padic", "rep", "rising_factorial", "run_config",
    "rv_form_coeffs", "s_factor", "section3_rows", "theorem26_sign",
    "truncated_hyp", "truncated_hyp_exact",
]
