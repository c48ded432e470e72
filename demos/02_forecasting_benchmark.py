"""Run the forecaster benchmark over two synthetic telemetry series.

Every model family — seasonal naive, autoregression, ARIMA(p,1,0), random
forest, MLP, RNN, LSTM, convolutional autoencoder, Gaussian RNN — is fit on
the chronological training split and scored by rolling one-step forecasts on
the held-out tail (teacher forcing: predictions always condition on true past
values). Detection then applies the relative-error rule to the same
predictions.
"""

from vibrosense import anomaly, synth
from vibrosense.cli import default_variants
from vibrosense.core import SplitSpec

SEED = 11
FAMILIES = ["seasonal_naive", "ar", "arima", "random_forest",
            "mlp", "rnn", "lstm", "autoencoder", "gaussian_rnn"]

datasets = []
for i, name in enumerate(("synth-a", "synth-b")):
    spiked = synth.generate_spiked_series(n=400, n_spikes=8, spike_rel=0.3, seed=SEED + i)
    datasets.append(anomaly.AnomalyDataset(
        name=name, series=spiked.series,
        truth_rule=anomaly.TruthRule.INJECTED_SPIKES,
        spike_indices=spiked.spike_indices,
    ))

grid = {family: default_variants(family, SEED) for family in FAMILIES}
bench = anomaly.run_benchmark(
    datasets, grid,
    SplitSpec(0.5),
    anomaly.AnomalyRuleConfig(lam=0.1),
)
print(anomaly.benchmark_tables(bench))
print(f"grid cells: {len(bench['grid'])} "
      f"(families x variants x datasets; reruns with seed {SEED} are byte-identical)")
