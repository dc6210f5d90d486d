"""Loss functions with their chosen first-argument subderivatives.

Every loss carries the exact subderivative selection the detectability and
training dynamics contracts depend on:

* abs:   d/du |u-y| = sign(u-y) with sign(0) = 0
* hinge: d/du max(1-uy, 0) = -y * 1[uy <= 1], so the boundary u = 1/y maps
  to -y (the subgradient endpoint, not 0)

Piecewise losses also expose the u-values where the derivative switches
branch, which the DLQ detection grid must straddle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def _sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class LossSpec:
    """A loss l(u, y) together with its subderivative in u.

    value and deriv are vectorized over numpy arrays (broadcasting u against y).
    breakpoints(labels) lists the u-values where deriv(., y) changes branch for
    some label y; empty for losses analytic in u.
    """

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    breakpoints: Callable[[np.ndarray], np.ndarray] | None = None

    def breakpoints_for(self, labels) -> np.ndarray:
        if self.breakpoints is None:
            return np.empty(0)
        return np.asarray(self.breakpoints(np.asarray(labels, dtype=float)), dtype=float)

    def __repr__(self):
        return f"LossSpec({self.name!r})"


def squared() -> LossSpec:
    return LossSpec(
        "squared",
        value=lambda u, y: (u - y) ** 2,
        deriv=lambda u, y: 2.0 * (u - y),
    )


def absolute() -> LossSpec:
    return LossSpec(
        "abs",
        value=lambda u, y: np.abs(u - y),
        deriv=lambda u, y: np.sign(u - y),
        breakpoints=lambda labels: labels,
    )


def hinge() -> LossSpec:
    def deriv(u, y):
        u, y = np.broadcast_arrays(np.asarray(u, float), np.asarray(y, float))
        return np.where(u * y <= 1.0, -y, 0.0)

    def bps(labels):
        nz = labels[labels != 0.0]
        return 1.0 / nz

    return LossSpec(
        "hinge",
        value=lambda u, y: np.maximum(1.0 - u * y, 0.0),
        deriv=deriv,
        breakpoints=bps,
    )


def exponential() -> LossSpec:
    return LossSpec(
        "exponential",
        value=lambda u, y: np.exp(-u * y),
        deriv=lambda u, y: -y * np.exp(-u * y),
    )


def logistic() -> LossSpec:
    return LossSpec(
        "logistic",
        value=lambda u, y: np.logaddexp(0.0, -u * y),
        deriv=lambda u, y: -y * _sigmoid(-u * y),
    )


def squared_plus_cubic() -> LossSpec:
    """(u-y)^2 + |u-y|^3, the cubic-perturbed squared loss of the SGD
    experiments. Its derivative 2r + 3r|r|, r = u - y, changes polynomial at
    u = y, so the labels are its breakpoints."""
    def deriv(u, y):
        r = np.asarray(u, float) - np.asarray(y, float)
        return 2.0 * r + 3.0 * r * np.abs(r)

    return LossSpec(
        "squared_plus_cubic",
        value=lambda u, y: (u - y) ** 2 + np.abs(u - y) ** 3,
        deriv=deriv,
        breakpoints=lambda labels: labels,
    )


def squared_plus_quartic_half() -> LossSpec:
    """(1/2)(y-u)^2 + (1/4)(y-u)^4; its gradient span is {1, y, y^2, y^3}."""
    def deriv(u, y):
        r = np.asarray(u, float) - np.asarray(y, float)
        return r + r ** 3

    return LossSpec(
        "squared_plus_quartic_half",
        value=lambda u, y: 0.5 * (y - u) ** 2 + 0.25 * (y - u) ** 4,
        deriv=deriv,
    )


def custom_polynomial(coeffs, var: str = "diff") -> LossSpec:
    """l as a polynomial: sum_k c_k (u-y)^k for var="diff", sum_k c_k (u*y)^k for "prod"."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a non-empty 1-D sequence")
    dc = c[1:] * np.arange(1, c.size)
    if var == "diff":
        value = lambda u, y: np.polynomial.polynomial.polyval(np.asarray(u, float) - y, c)
        deriv = lambda u, y: np.polynomial.polynomial.polyval(np.asarray(u, float) - y, dc)
    elif var == "prod":
        value = lambda u, y: np.polynomial.polynomial.polyval(np.asarray(u, float) * y, c)
        deriv = lambda u, y: np.polynomial.polynomial.polyval(np.asarray(u, float) * y, dc) * y
    else:
        raise ValueError(f"var must be 'diff' or 'prod', got {var!r}")
    return LossSpec(f"custom_polynomial[{var}]", value=value, deriv=deriv)


_FACTORIES = {
    "squared": squared,
    "abs": absolute,
    "hinge": hinge,
    "exponential": exponential,
    "logistic": logistic,
    "squared_plus_cubic": squared_plus_cubic,
    "squared_plus_quartic_half": squared_plus_quartic_half,
}


def get_loss(name: str, **kwargs) -> LossSpec:
    if name == "custom_polynomial":
        return custom_polynomial(**kwargs)
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; known: {sorted(_FACTORIES)} + custom_polynomial") from None
    if kwargs:
        raise ValueError(f"loss {name!r} takes no parameters")
    return factory()
