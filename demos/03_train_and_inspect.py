"""Train two small detectors (plain CE vs the decoupled harmonized loss) on a
heavily under-annotated corpus and compare what they learn.

Prints the headline detection metrics for both models and the converged
gradient-norm histograms that motivate the weighting: under missing
annotations, CE piles noisy-partition mass into the top gradient bin.

Runtime: about 2 seconds.

Run:  python3 demos/03_train_and_inspect.py
"""

from dghm.experiments import ExperimentConfig, run_single
from dghm.harmonizer import MODE_PARTITIONS, Mode
from dghm.model import pool_gradient_histograms


def main():
    cfg = ExperimentConfig(seeds=(0,))
    eta = 0.7

    results = {}
    for loss in ("ce", "dghm_c"):
        record, model, _, pool = run_single(cfg, loss, eta, fold=0, seed=0,
                                            return_model=True)
        two_way, _ = pool_gradient_histograms(model, pool)
        results[loss] = two_way
        r = record.report
        print(f"{loss:7s} froc={r.froc:.3f} recall={r.recall:.3f} "
              f"precision={r.precision:.3f} t_recall={r.t_recall:.3f} "
              f"r_recall={r.r_recall:.3f}")

    print("\nconverged gradient-norm histograms over the training pool "
          "(counts per bin):")
    for loss, two_way in results.items():
        print(f"\n  {loss}:")
        for part, counts in zip(MODE_PARTITIONS[Mode.DGHM], two_way):
            print(f"    {part.value:6s} {counts.astype(int)}")

    _, noisy = results["ce"]  # rows: clean, noisy
    print(f"\nCE noisy-partition mass in the top bin (g >= 0.9): "
          f"{int(noisy[-1])} anchors.")
    print("Those are real objects whose annotation was dropped: the model "
          "recognizes\nthem, the label contradicts it, and plain CE keeps "
          "hammering them toward 0.\nThe decoupled loss squashes exactly that "
          "mass and recovers more of the\nremoved objects (higher R-recall).")


if __name__ == "__main__":
    main()
