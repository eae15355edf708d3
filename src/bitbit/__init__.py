"""Qubit-count estimation for tabular classification datasets.

The pipeline turns a real-valued feature matrix into fixed-width bitstrings
(dimensionality reduction, mutual-information bit allocation, empirical-CDF
copula, floor discretization), measures how many bits are needed before
train/test label collisions vanish, and verifies the resulting accuracy
ceiling with a small statevector classifier.
"""

import os

# One BLAS thread for small matrices. OpenBLAS reads this once, when numpy first loads; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from bitbit.data import Dataset, SplitSpec, load_csv, make_synthetic, split_train_test
from bitbit.dimred import FittedReducer, ReducerSpec, fit_reducer, transform
from bitbit.encoder import (
    BitAllocation,
    Bitstring,
    CopulaModel,
    EncoderModel,
    ImportanceScores,
    allocate_bits,
    apply_copula,
    discretize_value,
    encode_samples,
    estimate_mutual_information,
    fit_copula,
    fit_encoder,
    load_model,
    persist_model,
)
from bitbit.coverage import (
    BitstringTable,
    CoverageMetrics,
    QubitEstimate,
    build_table,
    code_coverage,
    compute_q_y,
    sweep_qubits,
    train_collision_incidence,
)
from bitbit.qsim import (
    Ansatz,
    ExactClassifier,
    QuantumModel,
    TrainingBatch,
    build_exact_classifier,
    evaluate_loss,
    predict_many,
    train_sweeps,
)
from bitbit.stream import stream_fit_base, stream_sweep_curve
