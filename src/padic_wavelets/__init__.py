"""Wavelet analysis on the p-adic line.

Base-p digits and finite-precision points of Q_p, Kozyrev wavelets, the
Vladimirov pseudo-differential operator in spectral and kernel form, their
symmetry algebra (sl(2), Witt-type ladder operators, deformed commutators),
and the Monna-map correspondence with generalized Haar wavelets on [0, 1].
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
from .exact import Cyc, amp_equal, conj, p_power_amp
from .padic import (
    PAdicNumber,
    RationalPhase,
    from_rational,
    monna_rational,
    rational_character_phase,
)
from .functions import (
    LocallyConstantFn,
    fourier,
    integrate,
    inverse_fourier,
    translate,
)
from .wavelets import (
    KozyrevIndex,
    WaveletExpansion,
    Window,
    analyze,
    evaluate,
    evaluate_at_rational,
    materialize,
    synthesize,
)
from .operators import vladimirov_kernel_apply
from .haar import (
    HaarIndex,
    RealStepFn,
    haar_step,
    monna_pushforward,
    monomial_coefficient,
)

__version__ = "0.1.0"
