"""Multi-speed training-set aggregation and within-speed interpolation."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .core import ContractError, make_rng

#: An interpolant's partner is one of its anchor's this many nearest same-label neighbors.
K_NEIGHBORS = 5


def aggregate_rpms(
    per_rpm: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Pool the given training sets of every speed, in speed order: their
    feature rows stacked, and the labels of those rows."""
    if len(per_rpm) < 2:
        raise ContractError("aggregation needs >= 2 rpm datasets")
    rpms = sorted(per_rpm)
    feats, labs = zip(*(per_rpm[rpm] for rpm in rpms))
    for rpm, f, l in zip(rpms, feats, labs):
        if f.shape[1] != feats[0].shape[1]:
            raise ContractError(f"feature schema mismatch: rpm {rpm} has {f.shape[1]} columns, "
                                f"expected {feats[0].shape[1]}")
        if np.shape(l) != f.shape[:1]:
            raise ContractError(f"rpm {rpm}: {np.shape(l)} labels are not row-parallel with "
                                f"{f.shape[0]} feature rows")
    return np.concatenate(feats), np.concatenate(labs)


def interpolate_within_rpm(
    features: np.ndarray,
    labels: np.ndarray,
    n_new: int,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convex combinations of same-label nearest-neighbor pairs.

    Each synthetic sample is alpha*a + (1-alpha)*b with the partner b drawn
    from a's K_NEIGHBORS nearest same-label neighbors and alpha uniform in
    (0, 1); the label is inherited. Classes with < 2 samples contribute nothing.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_new < 1:
        raise ContractError("n_new must be >= 1")
    eligible = [lab for lab in np.unique(labels) if np.sum(labels == lab) >= 2]
    if not eligible:
        raise ContractError("no label class has >= 2 samples to interpolate")
    rng = make_rng(seed)
    new_feats = np.empty((n_new, features.shape[1]))
    new_labels = np.empty(n_new, dtype=np.int64)
    class_indices = {lab: np.flatnonzero(labels == lab) for lab in eligible}
    for i in range(n_new):
        lab = eligible[int(rng.integers(len(eligible)))]
        members = class_indices[lab]
        a_idx = members[int(rng.integers(members.size))]
        a = features[a_idx]
        others = members[members != a_idx]
        if others.size > K_NEIGHBORS:
            d2 = np.sum((features[others] - a) ** 2, axis=1)
            others = others[np.argsort(d2, kind="stable")[:K_NEIGHBORS]]
        b = features[others[int(rng.integers(others.size))]]
        alpha = rng.uniform(np.nextafter(0.0, 1.0), 1.0)
        new_feats[i] = alpha * a + (1.0 - alpha) * b
        new_labels[i] = lab
    return new_feats, new_labels


def augmented_training_set(
    per_rpm: Dict[int, Tuple[np.ndarray, np.ndarray]],
    n_new_per_rpm: int = 20_000,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The given training sets of every speed, pooled, then n_new_per_rpm
    interpolants within each speed's set (seeded seed + rpm), in speed order."""
    feats, labs = aggregate_rpms(per_rpm)
    parts = [(feats, labs)]
    if n_new_per_rpm > 0:
        parts += [interpolate_within_rpm(*per_rpm[rpm], n_new_per_rpm, seed=seed + rpm)
                  for rpm in sorted(per_rpm)]
    return np.concatenate([f for f, _ in parts]), np.concatenate([l for _, l in parts])
