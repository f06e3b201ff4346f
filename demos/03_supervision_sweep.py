"""How much supervision is enough?

Sweeps the supervision rate on a planted corpus and tabulates matched
similarity, resolved topics, and topic coverage per rate.  The pattern to
look for: low rates are noisy (an unlucky supervised subset can hurt, see
the stddev column), gains consolidate by moderate rates, and the curve
flattens — labeling everything buys little over labeling half.

Run:  python demos/03_supervision_sweep.py   (a few seconds)
"""

import tempfile
from pathlib import Path

from tsnmf.dataio import write_planted_instance
from tsnmf.experiment import SweepConfig, run_sweep
from tsnmf.synthetic import make_planted_instance

print("=" * 70)
print("1. Plant a corpus: 120 documents, 200 terms, 6 topics, 10% noise")
print("=" * 70)

inst = make_planted_instance(120, 200, 6, noise_level=0.1, seed=5)
# the dataset and the per-cell artifacts are removed when the sweep is done
with tempfile.TemporaryDirectory(prefix="tsnmf_sweep_") as tmp:
    workdir = Path(tmp)
    data_dir = workdir / "data"
    write_planted_instance(data_dir, inst)
    print(f"dataset written to {data_dir}")

    print()
    print("=" * 70)
    print("2. Sweep rates x seeds (error-weighted fits)")
    print("=" * 70)

    cfg = SweepConfig(
        data=str(data_dir),
        out=str(workdir / "sweep"),
        rates=(0.0, 0.1, 0.25, 0.5, 1.0),
        seeds=(1, 2, 3, 4, 5),
        weighted=True,
        max_iter=120,
    )
    result = run_sweep(cfg)

print(f"{'rate':>6} {'coverage':>9} {'similarity':>11} {'resolved':>9} {'iters':>6}")
for cell in result.cells:
    print(
        f"{cell.rate:>6.2f} {cell.coverage:>9.2f} {cell.mean_similarity:>11.4f} "
        f"{cell.resolved_count:>9d} {cell.iterations:>6d}"
    )

print()
print("=" * 70)
print("3. Per-rate summary (mean over seeds)")
print("=" * 70)

print(f"{'rate':>6} {'similarity':>11} {'std':>8} {'resolved':>9}")
for rate, s in result.summary.items():
    print(
        f"{rate:>6.2f} {s['mean_similarity_mean']:>11.4f} "
        f"{s['mean_similarity_std']:>8.4f} {s['resolved_mean']:>9.1f}"
    )
