"""Train a statevector classifier against its own predicted ceiling.

The coverage metrics bound what any classifier on an encoding can achieve;
the point of this demo is that an actually-trained circuit converges to that
bound from below and can never pass it. The reversible-oracle construction
reaches loss zero outright and serves as the existence witness.
"""

import numpy as np

from bitbit import ReducerSpec, SplitSpec, make_synthetic, split_train_test
from bitbit.coverage import build_table, code_coverage, compute_q_y
from bitbit.encoder import encode_samples, fit_encoder
from bitbit.qsim import (
    build_exact_classifier,
    classification_accuracies,
    evaluate_loss,
    fresh_model,
    train_sweeps,
    training_batch_from_table,
)

dataset = make_synthetic(s=800, n=4, c=4, separation=5.0, seed=11)
train, test = split_train_test(dataset, SplitSpec(0.8, seed=1))
n_x = 4
n_y = compute_q_y(dataset.c)

enc = fit_encoder(train, ReducerSpec("pca"), n_x)
train_table = build_table(zip(encode_samples(enc, train.features), train.labels.tolist()), dataset.c)
test_table = build_table(zip(encode_samples(enc, test.features), test.labels.tolist()), dataset.c)
ceiling = code_coverage(train_table, test_table)
print(f"encoding: {n_x} data qubits + {n_y} class qubits, "
      f"{train_table.codes.shape[0]} unique training codes")
print(f"theoretical ceilings: train {ceiling.theoretical_train_accuracy:.4f}, "
      f"test {ceiling.theoretical_test_accuracy:.4f}")

# Collisions are resolved to the majority label; frequencies become weights.
batch = training_batch_from_table(train_table)

# Four layers give the entangler ring enough range to route any data bit into
# the class register; the seeded random start avoids the flat slices that
# strand coordinate descent at the all-zero point.
model = fresh_model(n_x, n_y, layers=4, init_seed=1)
print("\nsweep  loss       train_acc  test_acc")
for sweep in range(1, 11):
    loss = train_sweeps(model, batch, 1)[-1]
    tr, te = classification_accuracies(model, [train_table, test_table])
    print(f"{sweep:>5}  {loss:>9.6f}  {tr:>9.4f}  {te:>8.4f}")

final = classification_accuracies(model, [train_table])[0]
assert final <= ceiling.theoretical_train_accuracy + 1e-9
print(f"\ntrained accuracy {final:.4f} vs ceiling {ceiling.theoretical_train_accuracy:.4f} "
      "(the ceiling is a hard bound)")

# The existence witness: the oracle permutation classifies every code exactly.
# The batch already holds each training code's majority label; codes that
# never occur in training go to class 0.
targets = np.zeros(1 << n_x, dtype=np.int64)
targets[batch.z_values] = batch.targets
oracle = build_exact_classifier(targets, n_x, n_y)
print(f"exact-classifier loss on the same batch: {evaluate_loss(oracle, batch):.2e}")
