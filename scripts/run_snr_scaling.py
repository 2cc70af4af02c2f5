#!/usr/bin/env python3
"""Measured versus predicted SNR as a function of averaging.

One long synthesis per replica is truncated to nested segment counts, so
every n_avg point sees the same underlying noise realizations.  Writes a
CSV of predicted and measured SNR per n_avg and prints the fitted log-log
slope, which should sit at 0.5 (root-n averaging).

    python scripts/run_snr_scaling.py --replicas 16 --output scaling.csv
"""

import argparse
import sys

import numpy as np

from holonoise import (
    ExperimentConfig,
    TimeSeriesPair,
    null_significance,
    predicted_snr,
    synthesize_pair,
    welch_csd,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shot-asd", type=float, default=2e-20,
                    help="m/sqrt(Hz); the default keeps single-run SNR measurable")
    ap.add_argument("--replicas", type=int, default=16)
    ap.add_argument("--n-avgs", type=int, nargs="+", default=[50, 100, 200, 500])
    ap.add_argument("--segment-length", type=int, default=8192)
    ap.add_argument("--output", default=None, help="CSV of the sweep")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    seg = args.segment_length
    step = seg // 2
    n_samples = seg + (max(args.n_avgs) - 1) * step

    cfg0 = ExperimentConfig(
        shot_asd=args.shot_asd, n_samples=n_samples, segment_length=seg
    )
    model = cfg0.model()
    band = (0.0, 1.0 / model.tau_c)

    measured = {k: [] for k in args.n_avgs}
    for seed in range(args.replicas):
        cfg = ExperimentConfig(
            shot_asd=args.shot_asd, n_samples=n_samples, seed=seed,
            segment_length=seg,
        )
        pair = synthesize_pair(cfg)
        for k in args.n_avgs:
            n_k = seg + (k - 1) * step
            sub = TimeSeriesPair(
                sample_rate=cfg.sample_rate,
                ch1=pair.ch1[:n_k],
                ch2=pair.ch2[:n_k],
                common=pair.common[:n_k],
            )
            est = welch_csd(sub, seg, cfg.overlap)
            measured[k].append(null_significance(est, band).sigma_level)
        print(f"  replica {seed + 1}/{args.replicas}", file=sys.stderr)

    rows = []
    for k in args.n_avgs:
        pred = predicted_snr(model, args.shot_asd, cfg0.sample_rate, seg, k, band)
        mean_z = float(np.mean(measured[k]))
        rows.append((k, pred, mean_z, mean_z / pred))

    if args.output:
        with open(args.output, "w") as fh:
            fh.write("# columns: n_avg,predicted_snr,measured_snr,ratio\n")
            for k, pred, mean_z, ratio in rows:
                fh.write(f"{k},{pred:.17g},{mean_z:.17g},{ratio:.17g}\n")

    print(f"{'n_avg':>8} {'predicted':>12} {'measured':>12} {'ratio':>8}")
    for k, pred, mean_z, ratio in rows:
        print(f"{k:>8} {pred:>12.2f} {mean_z:>12.2f} {ratio:>8.3f}")
    slope = float(np.polyfit(
        np.log10(args.n_avgs), np.log10([r[2] for r in rows]), 1
    )[0])
    print(f"log-log slope of measured SNR vs n_avg: {slope:.3f} (expect 0.5)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
