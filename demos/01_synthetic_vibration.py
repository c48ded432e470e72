"""Generate synthetic imbalance vibration data and inspect its features.

Walks through the signal model: a rotation-locked waveform with a second
harmonic on the x axis, a quadrature copy on z, a small y component, and
amplitude set by the defect level. Then shows what a cheap low-rate sensor
sees after block-mean decimation.
"""

import numpy as np

from vibrosense import features, synth
from vibrosense.core import DefectLabel

RPM = 300

print(f"== Tri-axial vibration at {RPM} rpm (rotation {RPM / 60:.1f} Hz) ==")
for level in DefectLabel:
    rec = synth.generate_vibration(
        synth.SynthConfig(rpm=RPM, sample_rate_hz=3200.0, duration_s=1.0,
                          imbalance_level=level, noise_sigma=0.3, seed=0)
    )
    row = dict(zip(features.TIME_DOMAIN_FEATURE_NAMES, features.extract_time_domain(rec.x)))
    print(f"{level.name:>12}: x rms={row['rms']:.3f}  peak={row['peak']:.3f}  "
          f"crest={row['crest']:.2f}")

print()
print("== Same machine seen by a 10 Hz sensor (block-mean decimation) ==")
rec = synth.generate_vibration(
    synth.SynthConfig(rpm=RPM, sample_rate_hz=3200.0, duration_s=2.0,
                      imbalance_level=DefectLabel.FAILURE, noise_sigma=0.3, seed=0)
)
mems = synth.decimate_to_mems(rec, target_rate_hz=10.0, extra_noise_sigma=0.1, seed=0)
print(f"high-rate samples: {len(rec)}   low-rate samples: {len(mems)}")
print(f"high-rate x rms: {float(np.sqrt(np.mean(rec.x ** 2))):.3f}   "
      f"low-rate x rms: {float(np.sqrt(np.mean(mems.x ** 2))):.3f}")
print("averaging 320 points per output sample suppresses the oscillation, "
      "which is exactly why the low-cost sensor is the hard classification target.")
