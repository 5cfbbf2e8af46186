"""Wavelet analysis on the p-adic line.

Finite-precision arithmetic in Q_p, Kozyrev wavelets, the Vladimirov
pseudo-differential operator in spectral and kernel form, their symmetry
algebra (sl(2), Witt-type ladder operators, deformed commutators), and the
Monna-map correspondence with generalized Haar wavelets on [0, 1].
"""

from .errors import (
    EnumerationCapError,
    FloatRangeError,
    InsufficientPrecisionError,
    InvalidInputError,
    PadicError,
    PrimeMismatchError,
    UnsupportedCaseError,
    WindowClipError,
)
from .exact import Cyc, amp_equal, amp_is_zero, conj, p_power_amp
from .padic import (
    AffineElement,
    PAdicNumber,
    RationalPhase,
    affine_compose,
    affine_identity,
    from_rational,
    monna_rational,
    norm,
    rational_character_phase,
)
from .functions import (
    LocallyConstantFn,
    fn_equal,
    fourier,
    indicator_fn,
    inner_product,
    integrate,
    inverse_fourier,
    scale_arg,
    translate,
)
from .wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    analyze,
    closed_form_label_translated,
    closed_form_scaled,
    closed_form_scaled_translated,
    evaluate,
    evaluate_at_rational,
    materialize,
    mother,
    synthesize,
)
from .operators import (
    BasisOperator,
    check_commutator,
    check_deformed,
    ell,
    j_shift,
    ladder,
    log_vladimirov,
    translate_expansion,
    vladimirov_kernel,
    vladimirov_kernel_apply,
    vladimirov_spectral,
)
from .haar import (
    HaarIndex,
    RealStepFn,
    haar_evaluate,
    haar_step,
    monna_pushforward,
    monomial_coefficient,
    rho_exponent,
    verify_dilatation,
    verify_lowering,
)

__version__ = "0.1.0"
