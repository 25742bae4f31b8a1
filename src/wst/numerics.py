"""Log-domain primitives.

All probabilities in this package live in natural-log space, with -inf as
the semiring zero (a disabled arc / empty sum). These helpers never produce
NaN for inputs in the extended reals.
"""

import math

import numpy as np

NEG_INF = float("-inf")

LN_HALF = math.log(0.5)


def log_add(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) via the max-shift trick; exact when one side is -inf."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def log_sum(values) -> float:
    """logsumexp over a sequence with a single max-shift; empty input gives -inf."""
    vals = list(values)
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in vals))


def log1mexp(b):
    """log(1 - exp(b)) for b <= 0, switching formulas at log(1/2) for stability.

    Elementwise on arrays; a scalar gives a float. -inf where b >= 0.
    """
    b = np.asarray(b, dtype=float)
    c = np.minimum(b, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(c > LN_HALF, np.log(-np.expm1(c)), np.log1p(-np.exp(c)))
    out = np.where(c >= 0.0, NEG_INF, out)
    return float(out) if out.ndim == 0 else out


def star_log_prob(log_p_blank, vocab_size: int):
    """Log of the average non-blank probability: log((1 - p_blank) / (|V| - 1)).

    Elementwise on an array of blank log-probabilities. Returns -inf where
    blank takes all the mass.
    """
    if vocab_size < 2:
        raise ValueError("vocab_size must be at least 2")
    return log1mexp(log_p_blank) - math.log(vocab_size - 1)
