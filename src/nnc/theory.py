"""Closed-form predictions and diagnostics used to validate simulation output."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .estimators import OutcomeTable
from .exposure import LEVEL_NAMES, _noise_factors, _own_level_probability
from .graphs import Graph
from .noise import NoiseParams


@dataclass(frozen=True, eq=False)
class BiasPrediction:
    """Predicted bias of the uncorrected observed-graph estimator per level.

    The c10 and c00 components are exact; the c11 and c01 components drop a
    vanishing remainder (``exact`` flags which is which). ``per_node`` holds
    the per-vertex terms whose average gives ``values``.
    """

    values: np.ndarray
    per_node: np.ndarray
    exact: tuple[bool, bool, bool, bool] = (False, True, False, True)


def naive_estimator_bias(
    degrees,
    table: OutcomeTable,
    noise: NoiseParams,
    p: float,
    n_v: int | None = None,
) -> BiasPrediction:
    """Predicted bias of plain inverse-probability weighting on a noisy graph.

    ``degrees`` are true degrees; ``n_v`` defaults to their count but can be
    set independently to evaluate per-node terms inside a larger graph.
    Missed edges alone inflate the no-treated-neighbor levels (c10, c00),
    while the any-treated-neighbor levels (c11, c01) are deflated by a
    degree-dependent misclassification share.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    d = np.asarray(degrees, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("degrees must be a nonempty vector")
    if table.n_v != d.size:
        raise ValueError("outcome table size does not match degree count")
    if n_v is None:
        n_v = d.size
    if not np.all((d >= 0) & (d <= n_v - 1)):
        raise ValueError("degrees must lie in [0, n_v - 1]")
    y = table.values
    tau_t = y[:, 0] - y[:, 1]
    tau_c = y[:, 2] - y[:, 3]

    miss = 1.0 - (1.0 - noise.beta * p) ** d
    qd, a, b = _noise_factors(d, n_v, p, noise.alpha, noise.beta)
    num = qd * (1.0 - a)
    den = 1.0 - a * b
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)

    per_node = np.empty((d.size, 4))
    per_node[:, 0] = -ratio * tau_t
    per_node[:, 1] = miss * tau_t
    per_node[:, 2] = -ratio * tau_c
    per_node[:, 3] = miss * tau_c
    return BiasPrediction(values=per_node.mean(axis=0), per_node=per_node)


@dataclass(frozen=True, eq=False)
class ConditionDiagnostics:
    """Finite-sample consistency diagnostics.

    ``inverse_prob_sums`` holds the per-level sums of reciprocal exposure
    probabilities normalized by n_v squared (zero-degree vertices are
    excluded from the c11/c01 sums and counted separately);
    ``dependency_fraction`` is the share of ordered vertex pairs whose
    exposures can be dependent (shared edge or common neighbor). Values far
    below 1 indicate the regime where the estimators concentrate.

    The dependency count is the off-diagonal support of A + A @ A for the
    sparse adjacency A, so time and memory grow with n + sum(d^2), not n^2.
    """

    inverse_prob_sums: dict[str, float]
    dependency_fraction: float
    zero_degree_nodes: int


def condition_diagnostics(g: Graph, p: float) -> ConditionDiagnostics:
    if not (0.0 < p < 1.0):
        raise ValueError("treatment probability must lie in (0, 1)")
    n = g.n_v
    if n < 1:
        raise ValueError("graph has no vertices")
    pos = g.degrees > 0
    norm = {}
    for level, name in enumerate(LEVEL_NAMES):
        # c11 and c01 need a treated neighbor, which an isolated vertex never has
        d = g.degrees[pos] if level % 2 == 0 else g.degrees
        norm[name] = float((1.0 / _own_level_probability(d, level, p)).sum()) / n**2

    # boolean entries add as logical or, so no count can overflow or cancel
    rows = np.concatenate([g.edge_i, g.edge_j])
    cols = np.concatenate([g.edge_j, g.edge_i])
    a = sparse.csr_array((np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n))
    dep = a + a @ a
    frac = float(dep.nnz - np.count_nonzero(dep.diagonal())) / n**2
    return ConditionDiagnostics(
        inverse_prob_sums=norm,
        dependency_fraction=frac,
        zero_degree_nodes=int((~pos).sum()),
    )
