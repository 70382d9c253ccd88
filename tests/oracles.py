"""Brute-force ranking oracles and a byte-equality check shared by the tests."""

import numpy as np


def brute_force_auroc(scores, is_ood):
    """Pairwise counting with half credit for ties."""
    scores = np.asarray(scores, float)
    is_ood = np.asarray(is_ood, bool)
    pos = scores[is_ood][:, None]
    neg = scores[~is_ood][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (is_ood.sum() * (~is_ood).sum())


def rank_by_rank_auprc(scores, is_ood):
    order = np.argsort(-np.asarray(scores, float), kind="stable")
    flags = np.asarray(is_ood, bool)[order]
    hits = 0
    total = 0.0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    return total / flags.sum()


def exhaustive_fpr(scores, is_ood, target):
    scores = np.asarray(scores, float)
    is_ood = np.asarray(is_ood, bool)
    best = None
    for t in np.unique(scores):
        flagged = scores >= t
        tpr = (flagged & is_ood).sum() / is_ood.sum()
        fpr = (flagged & ~is_ood).sum() / (~is_ood).sum()
        if tpr >= target and (best is None or fpr < best):
            best = fpr
    return best


def assert_same_bytes(got, want):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 differs from 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
