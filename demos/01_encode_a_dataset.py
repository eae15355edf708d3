"""Walk through the encoding pipeline on a small synthetic dataset.

Feature rows become fixed-width bitstrings in five steps: reduce, score each
component against the labels, split the bit budget proportionally to those
scores, push values through the training empirical CDF, and floor-discretize.
"""

import tempfile
from pathlib import Path

import numpy as np

from bitbit import (
    ReducerSpec,
    SplitSpec,
    encode_samples,
    fit_encoder,
    load_model,
    make_synthetic,
    persist_model,
    split_train_test,
)
from bitbit.encoder import hex_digits

# Two Gaussian blobs in 3 dimensions, well separated along every axis.
dataset = make_synthetic(s=400, n=3, c=2, separation=4.0, seed=7)
train, test = split_train_test(dataset, SplitSpec(train_fraction=0.8, seed=0))
print(f"dataset: {dataset.n_samples} samples, {dataset.n_features} features, {dataset.c} classes")

# Fit the full pipeline with an 8-bit budget and PCA reduction.
model = fit_encoder(train, ReducerSpec("pca"), n_x=8)

print("\nper-component importance (bits of mutual information with the label):")
print(" ", np.round(model.importances.scores, 4))
print("bit allocation (sums exactly to the budget):", model.allocation.bits)

# The first component carries nearly all the label information, so it gets
# nearly all the bits. Encode a few test rows and look at the codes.
encoded = encode_samples(model, test.features[:6])
print("\nfirst six encoded test rows:")
for bits, label in zip(encoded, test.labels[:6].tolist()):
    print(f"  {bits.value:0{bits.width}b}  (hex {bits.value:0{hex_digits(bits.width)}x}, true class {label})")

# The class is readable off the leading bits: samples of class 0 sit in the
# lower half of the copula range, class 1 in the upper half.

# Models round-trip through JSON bit-exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.json"
    persist_model(model, path)
    reloaded = load_model(path)
assert encode_samples(reloaded, test.features) == encode_samples(model, test.features)
print("\nmodel JSON round trip: encodings identical")
