/**
 * @file
 * Tests for the Cholesky SPD solver.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/solve.h"

namespace enmc::tensor {
namespace {

/** A random SPD matrix A = B Bᵀ + eps I. */
Matrix
randomSpd(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix b(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            b(i, j) = static_cast<float>(rng.normal());
    Matrix a = matmul(b, transpose(b));
    for (size_t i = 0; i < n; ++i)
        a(i, i) += 0.1f;
    return a;
}

TEST(Cholesky, ReconstructsMatrix)
{
    const Matrix a = randomSpd(8, 3);
    const Matrix l = cholesky(a);
    const Matrix llt = matmul(l, transpose(l));
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            EXPECT_NEAR(llt(i, j), a(i, j), 1e-3f);
}

TEST(Cholesky, LowerTriangular)
{
    const Matrix l = cholesky(randomSpd(6, 5));
    for (size_t i = 0; i < l.rows(); ++i)
        for (size_t j = i + 1; j < l.cols(); ++j)
            EXPECT_FLOAT_EQ(l(i, j), 0.0f);
}

TEST(CholeskySolve, RecoversKnownSolution)
{
    const Matrix a = randomSpd(10, 7);
    Rng rng(9);
    Vector x_true(10);
    for (auto &v : x_true)
        v = static_cast<float>(rng.normal());
    // b = A x.
    Vector b = gemv(a, x_true);
    const Vector x = choleskySolve(cholesky(a), b);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-2f);
}

TEST(SpdSolve, MultipleRightHandSides)
{
    const Matrix a = randomSpd(6, 11);
    Rng rng(13);
    Matrix x_true(6, 3);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = 0; j < 3; ++j)
            x_true(i, j) = static_cast<float>(rng.normal());
    const Matrix b = matmul(a, x_true);
    const Matrix x = spdSolve(a, b);
    for (size_t i = 0; i < 6; ++i)
        for (size_t j = 0; j < 3; ++j)
            EXPECT_NEAR(x(i, j), x_true(i, j), 1e-2f);
}

TEST(SpdSolve, IdentitySolvesToRhs)
{
    Matrix eye(4, 4);
    for (size_t i = 0; i < 4; ++i)
        eye(i, i) = 1.0f;
    Matrix b(4, 2);
    b(0, 0) = 1.0f;
    b(3, 1) = -2.0f;
    const Matrix x = spdSolve(eye, b);
    EXPECT_FLOAT_EQ(x(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(x(3, 1), -2.0f);
}

TEST(SpdSolve, MatchesPerColumnCholeskySolveBitForBit)
{
    // Enough columns for several solve blocks plus a short last one.
    const size_t k = 12;
    const size_t cols = 1000;
    const Matrix a = randomSpd(k, 17);
    Rng rng(19);
    Matrix b(k, cols);
    for (size_t i = 0; i < k; ++i)
        for (size_t j = 0; j < cols; ++j)
            b(i, j) = static_cast<float>(rng.normal());
    const Matrix x = spdSolve(a, b);
    const Matrix l = cholesky(a);
    Vector col(k);
    for (size_t j = 0; j < cols; ++j) {
        for (size_t i = 0; i < k; ++i)
            col[i] = b(i, j);
        const Vector want = choleskySolve(l, col);
        for (size_t i = 0; i < k; ++i) {
            const float got = x(i, j);
            ASSERT_EQ(std::memcmp(&got, &want[i], sizeof(float)), 0)
                << "row " << i << " column " << j;
        }
    }
}

TEST(CholeskyDeathTest, RejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0f; a(0, 1) = 2.0f;
    a(1, 0) = 2.0f; a(1, 1) = 1.0f; // eigenvalues 3, -1
    EXPECT_DEATH((void)cholesky(a), "not SPD");
}

} // namespace
} // namespace enmc::tensor
