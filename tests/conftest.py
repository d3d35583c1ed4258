import functools
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


def _as_sparse(form, m):
    """The dense ``m`` as a ``scipy.sparse`` input of the named form."""
    from scipy import sparse

    if form in ("csc_array", "csr_array", "coo_array", "csc_matrix"):
        return getattr(sparse, form)(m)
    a = sparse.csc_array(m)
    if form == "csc_unsorted":  # every column stores its rows in descending order
        order = np.lexsort((-a.indices, np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))))
        return sparse.csc_array((a.data[order], a.indices[order], a.indptr), shape=a.shape)
    # csc_duplicates: each entry stored twice, as two exact halves
    return sparse.csc_array(
        (np.repeat(a.data / 2, 2), np.repeat(a.indices, 2), 2 * a.indptr), shape=a.shape
    )


@pytest.fixture(
    params=["csc_array", "csr_array", "coo_array", "csc_matrix", "csc_unsorted", "csc_duplicates"]
)
def as_sparse(request):
    """Store a dense matrix as one form of sparse input; the sparse kernels take every form."""
    return functools.partial(_as_sparse, request.param)
