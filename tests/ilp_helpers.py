"""Small hand-written :class:`~repro.ilp.MatrixForm` models for the solver tests."""

import numpy as np
from scipy.sparse import csr_array

from repro.ilp import MatrixForm


def make_form(
    objective,
    matrix=(),
    row_lower=(),
    row_upper=(),
    *,
    lower=None,
    upper=None,
    integrality=None,
    constant=0.0,
) -> MatrixForm:
    """Minimise ``objective @ x + constant`` subject to
    ``row_lower <= matrix @ x <= row_upper``, from dense rows.

    Columns default to binary: bounds ``[0, 1]`` and integral.
    """
    objective = np.asarray(objective, dtype=float)
    columns = len(objective)
    rows = csr_array(np.asarray(matrix, dtype=float).reshape(-1, columns))
    return MatrixForm(
        objective=objective,
        objective_constant=constant,
        lower=np.zeros(columns) if lower is None else np.asarray(lower, dtype=float),
        upper=np.ones(columns) if upper is None else np.asarray(upper, dtype=float),
        integrality=np.ones(columns) if integrality is None else np.asarray(integrality),
        indptr=rows.indptr,
        indices=rows.indices,
        data=rows.data,
        row_lower=np.asarray(row_lower, dtype=float),
        row_upper=np.asarray(row_upper, dtype=float),
    )


def is_feasible(form: MatrixForm, values, tolerance: float = 1e-6) -> bool:
    """Whether *values* satisfies every row and column bound of *form*."""
    matrix = csr_array(
        (form.data, form.indices, form.indptr),
        shape=(form.num_constraints, form.num_variables),
    )
    activity = matrix @ values
    return bool(
        np.all(activity >= form.row_lower - tolerance)
        and np.all(activity <= form.row_upper + tolerance)
        and np.all(values >= form.lower - tolerance)
        and np.all(values <= form.upper + tolerance)
    )
