"""Per-flow references for the vectorized bundling algorithms.

These are the scalar implementations the columnar code in
:mod:`repro.core.bundling` replaced: the per-flow token-bucket budget
scan and the triple-loop contiguous DP.  The tests hold the vectorized
code to them, partition for partition and cut for cut.
"""

from __future__ import annotations

import numpy as np


def token_bucket_reference(weights: np.ndarray, n_bundles: int) -> list:
    """The original per-flow budget scan, kept as equivalence ground truth."""
    w = np.asarray(weights, dtype=float)
    order = np.argsort(-w, kind="stable")
    budgets = np.full(n_bundles, w.sum() / n_bundles)
    members: list = [[] for _ in range(n_bundles)]
    for i in order:
        j = _first_open_bundle(members, budgets)
        members[j].append(int(i))
        budgets[j] -= w[i]
        if budgets[j] < 0 and j + 1 < n_bundles:
            budgets[j + 1] += budgets[j]
    return [np.array(m) for m in members if m]


def _first_open_bundle(members: list, budgets: np.ndarray) -> int:
    """First bundle that is empty or still has positive budget."""
    for j, bundle_members in enumerate(members):
        if not bundle_members or budgets[j] > 0:
            return j
    # Budgets sum to zero after exhaustion only when every bundle is sealed;
    # remaining flows join the last bundle (cannot happen before all budgets
    # are spent, but guard for float round-off).
    return len(members) - 1


def contiguous_dp_reference(objective, n: int, max_bundles: int) -> list:
    """The original scalar DP loop, kept as equivalence ground truth."""
    n_bundles = min(max_bundles, n)
    neg_inf = -np.inf
    dp = np.full((n_bundles + 1, n + 1), neg_inf)
    dp[0][0] = 0.0
    choice = np.zeros((n_bundles + 1, n + 1), dtype=int)
    for b in range(1, n_bundles + 1):
        for i in range(b, n + 1):
            best_val = neg_inf
            best_j = b - 1
            for j in range(b - 1, i):
                if dp[b - 1][j] == neg_inf:
                    continue
                val = dp[b - 1][j] + objective.slice_score(j, i)
                if val > best_val:
                    best_val = val
                    best_j = j
            dp[b][i] = best_val
            choice[b][i] = best_j
    best_b = int(np.argmax(dp[1:, n])) + 1
    cuts = [n]
    i = n
    for b in range(best_b, 0, -1):
        i = int(choice[b][i])
        cuts.append(i)
    cuts.reverse()
    if cuts[0] != 0:
        cuts.insert(0, 0)
    return cuts
