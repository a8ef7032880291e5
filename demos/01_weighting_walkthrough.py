"""Walk through the harmonized weighting on a tiny hand-checkable batch.

Shows, step by step, how gradient norms are binned, how the density estimate
comes out, and how the decoupled noisy/clean exponents change the weights of
confident-but-contradicted examples.

Run:  python3 demos/01_weighting_walkthrough.py
"""

import numpy as np

from dghm import (
    MODE_PARTITIONS,
    HarmonizerConfig,
    Mode,
    bin_counts,
    flat_bins,
    gradient_density,
    harmonize_weights,
)


def main():
    # Four examples: three clean (two easy, one medium) and one noisy outlier.
    # g = |p - p*| is the magnitude of the cross-entropy gradient.  Partitions
    # are integer codes indexing MODE_PARTITIONS[mode]: under DGHM, 0 is clean
    # and 1 is noisy.
    g = np.array([0.05, 0.05, 0.55, 0.95])
    codes = np.array([0, 0, 0, 1])
    names = [MODE_PARTITIONS[Mode.DGHM][c].value for c in codes]

    # Each (partition, bin) pair has one index into the raveled (M, B)
    # counts, code * B + bin: here [0, 0, 5, 19].  One bincount over it gives
    # every partition's histogram, and reading it back gives each density.
    g, _, flat = flat_bins(g, codes, 10)
    hists = bin_counts(flat, len(MODE_PARTITIONS[Mode.DGHM]), 10)

    print("per-partition histograms (10 unit regions over [0, 1]):")
    for part, counts in zip(MODE_PARTITIONS[Mode.DGHM], hists):
        print(f"  {part.value:6s} counts = {counts}")

    print("\ngradient densities (count in bin / clipped region length):")
    for gi, name, gd in zip(g, names, gradient_density(hists, g, flat)):
        print(f"  g = {gi:4.2f} [{name:6s}]  GD = {gd:6.2f}")

    for mu_n, mu_c, label in [(1.0, 1.0, "plain inverse density (GHM-style)"),
                              (2.0, 0.5, "decoupled outlier exponents")]:
        cfg = HarmonizerConfig(mode=Mode.DGHM, mu_n=mu_n, mu_c=mu_c)
        batch = harmonize_weights(g, codes, cfg)
        print(f"\nbeta with mu_n={mu_n}, mu_c={mu_c} ({label}):")
        for gi, name, b, gamma in zip(g, names, batch.beta, batch.gamma_applied):
            print(f"  g = {gi:4.2f} [{name:6s}]  gamma = {gamma:3.1f}  "
                  f"beta = {b:6.3f}")

    print("\nThe noisy outlier at g = 0.95 keeps weight 0.4 under unit "
          "exponents\nbut is crushed to 0.04 once its density is squared: a "
          "confident\ncontradiction of a possibly-missing annotation stops "
          "dominating the step.")


if __name__ == "__main__":
    main()
