import math

import numpy as np
import pytest
import scipy.linalg

from pdint.pds import eval_rhs


def _newton_stage_oracle(model, t, y_n, h, a_ii, rhs_accum):
    """Independent dense-Newton solve of the stage equation."""
    y = y_n + rhs_accum
    d = y.size
    sq = math.sqrt(np.finfo(float).eps)
    for _ in range(100):
        f = eval_rhs(model, t, y)
        resid = y - y_n - rhs_accum - h * a_ii * f
        jac = np.empty((d, d))
        for j in range(d):
            dy = sq * max(abs(y[j]), 1e-8)
            yp = y.copy()
            yp[j] += dy
            jac[:, j] = (eval_rhs(model, t, yp) - f) / dy
        delta = scipy.linalg.solve(np.eye(d) - h * a_ii * jac, -resid)
        y = y + delta
        if np.max(np.abs(delta)) <= 1e-14 * (1.0 + np.max(np.abs(y))):
            return y
    raise RuntimeError("oracle Newton did not converge")


@pytest.fixture
def newton_stage_oracle():
    """The dense-Newton stage solve that ``solve_stage`` is checked against."""
    return _newton_stage_oracle
