"""Log-domain constants and the star weight.

All probabilities in this package live in natural-log space, with -inf as
the semiring zero (a disabled arc / empty sum). Log-addition is numpy's
``np.logaddexp``, which is exact against -inf and gives +inf, never NaN, on
+inf.
"""

import math

import numpy as np

NEG_INF = float("-inf")

LN_HALF = math.log(0.5)


def star_log_prob(log_p_blank, vocab_size: int):
    """Log of the average non-blank probability: log((1 - p_blank) / (|V| - 1)).

    Elementwise on an array of blank log-probabilities; a scalar gives a float.
    Returns -inf where blank takes all the mass (log_p_blank >= 0).
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be at least 2")
    with np.errstate(divide="ignore"):
        out = np.log(-np.expm1(np.minimum(log_p_blank, 0.0))) - math.log(vocab_size - 1)
    return float(out) if np.ndim(out) == 0 else out
