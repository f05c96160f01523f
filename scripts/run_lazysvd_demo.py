#!/usr/bin/env python3
"""Frugality demo: stop the SVD itself, not just the sequence estimate.

Builds a tall random matrix with square-root singular value decay, plants
a smooth signal, and solves the inverse problem computing one singular
triplet at a time until the residual rule fires. Prints the number of
triplets, matrix-vector products and passes over the matrix actually
spent, against the D triplets a full decomposition would need, and the
seconds of the lazy solve against those of a dense ``np.linalg.svd`` of
the same matrix.
"""

import argparse
import time

import numpy as np

from svdstop.lazysvd import MatrixOperator, sequential_solve
from svdstop.model import NoiseModel, make_polynomial_spectrum
from svdstop.signals import calibrated_signal
from svdstop.stopping import make_stopping_config


def demo_instance(rows=400, cols=250, delta=0.05, seed=0, signal="smooth"):
    """Matrix, data, true signal and stopping config of the demo problem."""
    rng = np.random.default_rng(seed)
    spectrum = make_polynomial_spectrum(cols, 0.5)

    # random orthogonal factors hide the diagonal structure from the solver
    q_left, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    q_right, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    matrix = q_left @ np.diag(spectrum.values) @ q_right.T

    planted = calibrated_signal(signal, cols, delta, spectrum, target=0.15 * cols)
    mu = q_right @ planted.coefficients
    y = matrix @ mu + delta * rng.standard_normal(rows)
    # the residual keeps all `rows` noise directions of the data, so the rule is calibrated on `rows`
    config = make_stopping_config(rows, delta)
    return matrix, y, mu, config


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--cols", type=int, default=250)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--signal", default="smooth")
    args = parser.parse_args()

    matrix, y, mu, config = demo_instance(args.rows, args.cols, args.delta, args.seed, args.signal)
    operator = MatrixOperator(matrix)  # copied and checked here: the timed dense SVD pays for neither
    start = time.perf_counter()
    result = sequential_solve(operator, y, NoiseModel(args.delta), config)
    lazy_s = time.perf_counter() - start
    start = time.perf_counter()
    np.linalg.svd(matrix, full_matrices=False)
    dense_s = time.perf_counter() - start

    err = float(np.linalg.norm(result.estimate.values - mu))
    print(f"matrix {args.rows}x{args.cols}, stopped after {result.outcome.tau} triplets")
    print(f"matrix-vector products: {result.matvec_count}")
    print(f"passes over the matrix: {result.state.passes}")
    print(f"estimation error |mu_hat - mu| = {err:.4f}  (|mu| = {np.linalg.norm(mu):.4f})")
    print(f"a full decomposition would compute all {args.cols} triplets")
    print(f"lazy solve {lazy_s:.3f} s, dense np.linalg.svd {dense_s:.3f} s")


if __name__ == "__main__":
    main()
