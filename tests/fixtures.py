"""Small worked models with closed-form effects, used by the tests.

The pair builders return two-treatment models that share their observational
and joint-interventional distributions yet disagree under single-variable
interventions, which is exactly what makes the extra parent-set regimes
necessary.
"""
from __future__ import annotations

import numpy as np

from canm.graph import Dag
from canm.scm import ConfoundedAnm, NoiseSpec, StructuralFunction

CHAIN2 = Dag(2, frozenset({(0, 1)}))


def _two_treatment(x2_coeff, y_fn, cov):
    return ConfoundedAnm(
        CHAIN2,
        (StructuralFunction(), StructuralFunction(0.0, {0: x2_coeff})),
        y_fn,
        NoiseSpec(np.zeros(3), np.asarray(cov, dtype=float)),
    )


def product_outcome_pair():
    """Two models with Y = X1*X2 + U_Y that agree observationally and under
    the joint intervention but differ under do(X1): E[X2|do(X1=1)] is 1.0 for
    the first and 1.2 for the second. The second model's scaled noise term is
    absorbed into its covariance."""
    y = StructuralFunction(0.0, {}, {(0, 1): 1.0})
    m1 = _two_treatment(1.0, y, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    m2 = _two_treatment(1.2, y, [[1.0, 0.3, 0.0], [0.3, 0.84, 0.0], [0.0, 0.0, 1.0]])
    return m1, m2


def linear_pair_a():
    """Observationally indistinguishable pair with Y = X1 + X2 + U_Y.
    E[Y|do(X1=x1)] is 3*x1 for the first model and 2*x1 for the second."""
    y = StructuralFunction(0.0, {0: 1.0, 1: 1.0})
    m1 = _two_treatment(2.0, y, [[1.0, 0.25, 0.0], [0.25, 2.0, 0.0], [0.0, 0.0, 1.0]])
    m2 = _two_treatment(1.0, y, [[1.0, 1.25, 0.0], [1.25, 3.5, 0.0], [0.0, 0.0, 1.0]])
    return m1, m2


def linear_pair_b():
    """Second indistinguishable pair, Y = 2*X1 + X2 + U_Y.
    E[Y|do(X1=x1)] is 5*x1 for the first model and 4*x1 for the second."""
    y = StructuralFunction(0.0, {0: 2.0, 1: 1.0})
    m3 = _two_treatment(3.0, y, [[1.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]])
    m4 = _two_treatment(2.0, y, [[1.0, 1.5, 0.0], [1.5, 5.0, 0.0], [0.0, 0.0, 1.0]])
    return m3, m4


def correction_fixture():
    """X1 = U1, X2 = X1 + U2, Y = X1 + X2 + U_Y with cov(U2, U_Y) = 0.5 and
    everything else diagonal. The conditional mean outcome under do(X1=x1)
    given X2 = x2 is x1 + x2 + 0.5*(x2 - x1) in closed form."""
    y = StructuralFunction(0.0, {0: 1.0, 1: 1.0})
    return _two_treatment(
        1.0, y, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]]
    )


def fig_g1():
    """Four-treatment graph: X2 -> X3 -> X4, X1 -> X4, X2 -> X4."""
    return Dag(4, frozenset({(1, 2), (2, 3), (0, 3), (1, 3)}))


def fig_g2():
    """Four-treatment chain X1 -> X2 -> X3 -> X4."""
    return Dag(4, frozenset({(0, 1), (1, 2), (2, 3)}))


def fig_g3():
    """Four treatments with no edges between them."""
    return Dag(4, frozenset())
