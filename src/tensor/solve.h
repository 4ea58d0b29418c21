/**
 * @file
 * Small dense SPD linear solves (Cholesky), used by the closed-form
 * screener initializer and by tests.
 */

#ifndef ENMC_TENSOR_SOLVE_H
#define ENMC_TENSOR_SOLVE_H

#include "tensor/matrix.h"

namespace enmc::tensor {

/**
 * Cholesky factorization A = L Lᵀ of a symmetric positive-definite matrix.
 * @return Lower-triangular L. Panics if A is not (numerically) SPD.
 */
Matrix cholesky(const Matrix &a);

/** Solve L Lᵀ x = b given the Cholesky factor L. */
Vector choleskySolve(const Matrix &l, std::span<const float> b);

/**
 * Solve A X = B for X where A is SPD (k x k) and B is k x n, returning X
 * (k x n). Used as X = A⁻¹ B. Each column of X is bit-equal to
 * choleskySolve(cholesky(A), that column of B); column blocks run on the
 * shared pool.
 */
Matrix spdSolve(const Matrix &a, const Matrix &b);

} // namespace enmc::tensor

#endif // ENMC_TENSOR_SOLVE_H
