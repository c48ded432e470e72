"""Multi-speed training-set aggregation and within-speed interpolation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import ContractError, make_rng

#: An interpolant's partner is one of its anchor's this many nearest same-label neighbors.
K_NEIGHBORS = 5


@dataclass(frozen=True)
class LabeledSet:
    """Feature rows with labels and a per-sample provenance tag."""

    features: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray  # e.g. the source rpm per sample

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "provenance", np.asarray(self.provenance))
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.provenance.shape != (n,):
            raise ContractError("features, labels, provenance must be row-parallel")


def aggregate_rpms(per_rpm: Dict[int, Tuple[np.ndarray, np.ndarray]]) -> LabeledSet:
    """Pool the given training sets of every speed, in speed order, tagging
    each sample with its source rpm."""
    if len(per_rpm) < 2:
        raise ContractError("aggregation needs >= 2 rpm datasets")
    rpms = sorted(per_rpm)
    feats, labs = zip(*(per_rpm[rpm] for rpm in rpms))
    for rpm, f in zip(rpms, feats):
        if f.shape[1] != feats[0].shape[1]:
            raise ContractError(f"feature schema mismatch: rpm {rpm} has {f.shape[1]} columns, "
                                f"expected {feats[0].shape[1]}")
    return LabeledSet(np.concatenate(feats), np.concatenate(labs),
                      np.concatenate([np.full(l.size, rpm, dtype=np.int64)
                                      for rpm, l in zip(rpms, labs)]))


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
) -> LabeledSet:
    """The given training sets of every speed, pooled, plus n_new_per_rpm
    interpolants within each speed's set."""
    combined = aggregate_rpms(per_rpm)
    feats = [combined.features]
    labs = [combined.labels]
    prov = [combined.provenance]
    if n_new_per_rpm > 0:
        for rpm in sorted(per_rpm):
            mask = combined.provenance == rpm
            f, l = interpolate_within_rpm(
                combined.features[mask], combined.labels[mask], n_new_per_rpm, seed=seed + rpm
            )
            feats.append(f)
            labs.append(l)
            prov.append(np.full(n_new_per_rpm, rpm, dtype=np.int64))
    return LabeledSet(np.concatenate(feats), np.concatenate(labs), np.concatenate(prov))
