"""Classify machine state (On / Off / Abnormal) with a dual-loss autoencoder.

Synthetic process telemetry (5-minute cadence over a week that holds the
weekend shutdown window and one abnormal day) is aligned with vibration
feature windows; missing buckets are median-imputed. The classifier is an
autoencoder whose latent code also feeds a softmax head; alpha weights
reconstruction against classification loss.
"""

import datetime as dt

import numpy as np

from vibrosense import autoenc, features, ingest, synth
from vibrosense.classify import TrainConfig
from vibrosense.core import MachineState

SEED = 0
# Wednesday to Tuesday: the Friday-to-Sunday shutdown and a failing Monday
labeled = synth.generate_process(days=7, failure_days=[dt.date(2022, 1, 10)], seed=SEED,
                                 start_date=dt.date(2022, 1, 5))


def state_counts(states):
    return ", ".join(f"{int(np.sum(np.asarray(states) == s))} {s.name.lower()}"
                     for s in MachineState)


print(f"process rows: {len(labeled)} (5-minute cadence over 7 days): "
      f"{state_counts(labeled.states)}")

vib = synth.vibration_for_states(labeled[::6], SEED)
aligned = ingest.align_and_impute(vib, labeled)
print(f"aligned windows: {aligned.features.shape[0]} x {aligned.features.shape[1]} features "
      f"({aligned.n_dropped_buckets} empty buckets dropped): {state_counts(aligned.labels)}")

enc = features.fit_encoder(aligned.features, aligned.feature_names)
for alpha in (0.0, 0.5):
    model = autoenc.train_autoenc_classifier(
        enc.transform(aligned.features), aligned.labels, alpha=alpha,
        cfg=TrainConfig(epochs=20, batch_size=32, seed=SEED),
    )
    preds = np.argmax(model.predict_proba(enc.transform(aligned.features)), axis=1)
    acc = float(np.mean(preds == aligned.labels))
    print(f"alpha={alpha}: train accuracy {acc:.3f}  "
          f"final recon loss {model.recon_loss_curve[-1]:.4f}  "
          f"final class loss {model.class_loss_curve[-1]:.4f}")

print("alpha=0 is a plain classifier; alpha=0.5 keeps a useful latent code "
      "while still separating the three states.")
