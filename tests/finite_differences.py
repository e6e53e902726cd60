"""The finite-difference oracle that the gradient tests compare the tape against."""
import math
from typing import Callable

import numpy as np

from vqkit import ContractViolation, NumericFailure


def finite_difference_gradient(f: Callable[[np.ndarray], float],
                               theta: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f, coordinate by coordinate."""
    if h <= 0.0:
        raise ContractViolation("finite differences require h > 0")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(theta))
        flat[i] = orig - h
        fm = float(f(theta))
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericFailure(f"non-finite function value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
