"""Reference derivatives for the tests: central finite differences, and
a target's Hessian as dense matrices built from its parts."""

import numpy as np


def finite_diff_gradient(U, theta: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar field at theta.

    Default step is 1e-5 relative to (1 + |theta|).
    """
    theta = np.asarray(theta, dtype=float)
    if step is None:
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    if step <= 0:
        raise ValueError("step must be positive")
    grad = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        grad[i] = (U(theta + e) - U(theta - e)) / (2.0 * step)
    return grad


def finite_diff_jacobian(f, theta: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector field at theta (columns are
    partials), used to validate analytic Hessians."""
    theta = np.asarray(theta, dtype=float)
    if step is None:
        step = 1e-5 * (1.0 + float(np.linalg.norm(theta)))
    if step <= 0:
        raise ValueError("step must be positive")
    cols = []
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = step
        cols.append((np.asarray(f(theta + e)) - np.asarray(f(theta - e))) / (2.0 * step))
    return np.stack(cols, axis=1)


def dense_hessian(target, theta) -> np.ndarray:
    """scale I + coef vec vec^T from ``target.hess_parts``, as (..., d, d)
    for theta (..., d)."""
    scale, coef, vec = target.hess_parts(np.asarray(theta, dtype=float))
    outer = vec[..., :, None] * vec[..., None, :]
    return scale[..., None, None] * np.eye(vec.shape[-1]) + coef[..., None, None] * outer
