"""Named constants of the factorization theory, as functions of the exponent.

All of these are increasing in ``p* = max(p, p/(p-1))`` and equal their
minimal value at ``p = 2``.  They are *sound upper bounds* used by
certificates; nothing here is estimated numerically.

The module also names the round-off tolerances of the program's checks.
Each check holds exactly in real arithmetic, so its tolerance only absorbs
rounding; none enters a certified bound or an artifact:

* ``SAMPLED_SLACK`` (``1e-9``): the CLI's ``sampled_within_residual``, a
  sampled ratio of realized norms against the witness's column-sum
  residual.  Both sides are sums over realized grids.  (The ``xpw-game``
  equivalence check no longer reads a sample: it is decided exactly.)
* ``CLOSED_FORM_TOL`` (``1e-10``): the CLI's ``closed_forms_match``, an
  enumerated sign-pattern variance against its closed form.
* ``ROUNDOFF_TOL`` (``1e-12``): the CLI's ``means_vanish``, an enumerated
  mean that is zero in exact arithmetic.  (A composite's certified bound
  needs no check against its triangle route: it is the smaller of the two
  routes, and ``verify_certificate`` re-derives it exactly.)
* ``NEUMANN_RESIDUAL_TOL`` (``1e-8``): ``neumann_invert`` refuses an
  inverse whose column-sum residual ``||op @ inverse - I||`` exceeds it; a
  solve within a certified contraction bound below one stays far inside
  it, so a larger residual means the bound was wrong.

It also names one resource bound, which no result depends on:

* ``MAX_STRIPES`` (``8``): the most workers ``haarsys._striped`` runs,
  whatever the host's core count; each is one thread (the caller's among
  them) with one scratch buffer.  A buffer holds one batch of at most
  ``haarsys._BATCH_CELLS`` cells (512 KiB), or one row where a row is
  larger: 2 MiB on the 2^18-cell acceptance grid, so at 8 a pass holds at
  most 7 helper threads and 16 MiB of such buffers (a row that takes the
  compact route writes only the buffer's first slab, 64 KiB there).  The
  stripes fold and raise ``|v|^p``, work that streams memory, so beyond a
  handful of cores more workers mostly add buffers, and a 200-row pass
  still gives each of 8 stripes 25 rows.  Only 2 cores were measured, where
  the cap does not bind: in process, over 12 alternations on the
  acceptance source at p = 4 (numpy 2.4, Python 3.11), the ``factorize``
  command's ``factor_large_diagonal`` took a median 0.236 s on one stripe
  and 0.182 s on two, and 100 dense rows of the 2^18-cell grid took
  0.188 s against 0.126 s.
"""

from __future__ import annotations

import math

from .grids import as_exponent

__all__ = [
    "burkholder_constant",
    "diagonal_multiplier_bound",
    "complementation_constant",
    "large_diagonal_constant",
    "dichotomy_constant",
    "subspace_growth_constant",
    "constants_report",
]

SAMPLED_SLACK = 1e-9
CLOSED_FORM_TOL = 1e-10
ROUNDOFF_TOL = 1e-12
NEUMANN_RESIDUAL_TOL = 1e-8
MAX_STRIPES = 8


def burkholder_constant(p) -> float:
    """Unconditionality constant ``p* - 1`` of the Haar martingale differences."""
    return as_exponent(p).p_star - 1.0


def diagonal_multiplier_bound(p, max_entry: float = 1.0) -> float:
    """Norm bound ``(p*-1)^2 * max|d|`` for a diagonal Haar multiplier."""
    return burkholder_constant(p) ** 2 * abs(max_entry)


def complementation_constant(p) -> float:
    """Orthogonal-complementation bound ``2 (p*-1)^2 (p*/2)^(3/2)``.

    Bounds the norm of the natural projection onto the span of any
    distributional copy of the Haar system inside the model.
    """
    e = as_exponent(p)
    return 2.0 * (e.p_star - 1.0) ** 2 * (e.p_star / 2.0) ** 1.5


def projection_core_constant(p) -> float:
    """``(p*-1)^2 (p*/2)^(3/2)`` — half the complementation constant."""
    return complementation_constant(p) / 2.0


def large_diagonal_constant(p, delta: float, eps: float) -> float:
    """Factorization constant for operators with diagonal bounded below by
    ``delta``: ``2 (p*-1)^4 / (delta (1-eps)) * (p*/2)^(3/2)``."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    e = as_exponent(p)
    return 2.0 * (e.p_star - 1.0) ** 4 / (delta * (1.0 - eps)) * (e.p_star / 2.0) ** 1.5


def dichotomy_constant(p, eps: float) -> float:
    """Factorization constant of the two-sided alternative:
    ``4 / (1-eps) * (p*-1)^2 (p*/2)^(3/2)``."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    e = as_exponent(p)
    return 4.0 / (1.0 - eps) * (e.p_star - 1.0) ** 2 * (e.p_star / 2.0) ** 1.5


def subspace_growth_constant(p) -> dict:
    """The ``7.35 p / log p`` bound on complemented-subspace growth.

    The source states the constant without fixing the logarithm's base; we
    evaluate with the natural logarithm and flag the ambiguity explicitly.
    """
    p = as_exponent(p).p
    return {
        "value": 7.35 * p / math.log(p),
        "log_base": "e",
        "log_base_ambiguous": True,
    }


def constants_report(p, delta: float = 1.0, eps: float = 0.25) -> dict:
    """All named constants at one exponent, for reports and the CLI."""
    e = as_exponent(p)
    return {
        "p": e.p,
        "q": e.q,
        "p_star": e.p_star,
        "burkholder": burkholder_constant(e),
        "diagonal_multiplier": diagonal_multiplier_bound(e),
        "projection_core": projection_core_constant(e),
        "complementation": complementation_constant(e),
        "large_diagonal": {
            "delta": delta,
            "eps": eps,
            "value": large_diagonal_constant(e, delta, eps),
        },
        "dichotomy": {"eps": eps, "value": dichotomy_constant(e, eps)},
        "subspace_growth": subspace_growth_constant(e),
    }
