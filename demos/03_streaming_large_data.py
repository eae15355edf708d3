"""Batched streaming for data that never fits in memory.

Two passes over the training stream fit the encoder (reducer accumulation;
then extrema, batch-averaged importance scores and a copula reservoir). One
rank pass over each split spills integer copula ranks to disk, and every
swept width is measured from that spill. Memory stays at one batch plus the
model, and the coverage tables grow with unique codes only.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from bitbit import ReducerSpec, fit_encoder, make_synthetic
from bitbit.coverage import estimate_from_curve
from bitbit.encoder import read_packed
from bitbit.stream import ArrayBatchSource, stream_fit_base, stream_sweep_curve


class BlobSource:
    """Restartable generator source; recomputes its batches each pass, so it
    holds no data at all."""

    def __init__(self, total, n_features, n_classes, seed):
        self.total, self.n, self.c, self.seed = total, n_features, n_classes, seed

    def batches(self, batch_size):
        rng = np.random.default_rng(self.seed)
        remaining = self.total
        while remaining > 0:
            m = min(batch_size, remaining)
            labels = rng.integers(0, self.c, m)
            yield rng.standard_normal((m, self.n)) + 3.0 * labels[:, None], labels
            remaining -= m


with tempfile.TemporaryDirectory(prefix="bitbit_stream_") as tmp:
    work = Path(tmp)

    # Streaming the fit and the sweep: 40k training and 10k test records in
    # batches of 2k.
    train, test = BlobSource(40_000, 4, 2, seed=1), BlobSource(10_000, 4, 2, seed=2)
    tracemalloc.start()
    base = stream_fit_base(train, ReducerSpec("pca"), batch_size=2_000)
    curve = stream_sweep_curve(train, test, base, c=2, batch_size=2_000, work_dir=work, n_x_max=32, step=4)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # The batched test rule judges each test bucket by its own majority label,
    # so at narrow widths it can read 1.0 while training buckets still collide.
    for n_x, m in curve:
        print(f"n_x {n_x:>2}: train ceiling {m.theoretical_train_accuracy:.4f}, "
              f"test ceiling {m.theoretical_test_accuracy:.4f}, "
              f"overlap {m.test_train_overlap_fraction:.4f}")
    est = estimate_from_curve(curve, 0.99, c=2)
    print(f"at threshold 0.99: q_train {est.q_train}, q_test {est.q_test}, q_dataset {est.q_dataset}")
    print(f"written at width {read_packed(work / 'train.enc')[0]}: "
          f"{', '.join(sorted(p.name for p in work.iterdir()))}")
    print(f"peak traced allocation over 50k streamed records: {peak / 2**20:.1f} MB")

    # With a single batch covering everything, streaming IS the in-memory fit:
    small = make_synthetic(500, 4, 2, 3.0, seed=5)
    single = ArrayBatchSource(small.features, small.labels)
    streamed_model = stream_fit_base(single, ReducerSpec("pca"), batch_size=10_000).at_width(8)
    in_memory_model = fit_encoder(small, ReducerSpec("pca"), n_x=8)
    assert np.array_equal(streamed_model.importances.scores, in_memory_model.importances.scores)
    assert streamed_model.allocation.bits == in_memory_model.allocation.bits
    print("single-batch streaming matches the in-memory fit exactly")
