#include "tensor/solve.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace enmc::tensor {

Matrix
cholesky(const Matrix &a)
{
    const size_t n = a.rows();
    ENMC_ASSERT(a.cols() == n, "cholesky: matrix must be square");
    Matrix l(n, n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j <= i; ++j) {
            double sum = a(i, j);
            for (size_t k = 0; k < j; ++k)
                sum -= static_cast<double>(l(i, k)) * l(j, k);
            if (i == j) {
                ENMC_ASSERT(sum > 0.0, "cholesky: matrix not SPD");
                l(i, j) = static_cast<float>(std::sqrt(sum));
            } else {
                l(i, j) = static_cast<float>(sum / l(j, j));
            }
        }
    }
    return l;
}

Vector
choleskySolve(const Matrix &l, std::span<const float> b)
{
    const size_t n = l.rows();
    ENMC_ASSERT(b.size() == n, "choleskySolve: size mismatch");
    // Forward substitution: L y = b.
    Vector y(n);
    for (size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (size_t k = 0; k < i; ++k)
            sum -= static_cast<double>(l(i, k)) * y[k];
        y[i] = static_cast<float>(sum / l(i, i));
    }
    // Back substitution: Lᵀ x = y.
    Vector x(n);
    for (size_t ii = n; ii-- > 0;) {
        double sum = y[ii];
        for (size_t k = ii + 1; k < n; ++k)
            sum -= static_cast<double>(l(k, ii)) * x[k];
        x[ii] = static_cast<float>(sum / l(ii, ii));
    }
    return x;
}

Matrix
spdSolve(const Matrix &a, const Matrix &b)
{
    ENMC_ASSERT(a.rows() == b.rows(), "spdSolve: size mismatch");
    const Matrix l = cholesky(a);
    const size_t n = b.rows();
    const size_t cols = b.cols();
    Matrix x(n, cols);
    // Solve kSolveBlock right-hand sides at a time, straight from b's
    // rows, with the columns innermost: each column sees choleskySolve's
    // exact double-precision operation order. The fixed-width block (the
    // last one zero-padded) holds y, then x; its constant trip count is
    // what lets -O2 vectorize the column loops.
    constexpr size_t kSolveBlock = 128;
    parallelFor(0, ceilDiv(cols, kSolveBlock), 0, [&](size_t blk) {
        const size_t j0 = blk * kSolveBlock;
        const size_t m = std::min(cols, j0 + kSolveBlock) - j0;
        std::vector<float> y(n * kSolveBlock, 0.0f);
        double sum[kSolveBlock] = {};
        // Forward substitution: L y = b.
        for (size_t i = 0; i < n; ++i) {
            std::fill(sum, sum + kSolveBlock, 0.0);
            std::copy_n(b.data() + i * cols + j0, m, sum);
            for (size_t k = 0; k < i; ++k) {
                const double lik = l(i, k);
                const float *yk = y.data() + k * kSolveBlock;
                for (size_t j = 0; j < kSolveBlock; ++j)
                    sum[j] -= lik * yk[j];
            }
            const double lii = l(i, i);
            float *yi = y.data() + i * kSolveBlock;
            for (size_t j = 0; j < kSolveBlock; ++j)
                yi[j] = static_cast<float>(sum[j] / lii);
        }
        // Back substitution in place: Lᵀ x = y.
        for (size_t ii = n; ii-- > 0;) {
            float *xi = y.data() + ii * kSolveBlock;
            std::copy_n(xi, kSolveBlock, sum);
            for (size_t k = ii + 1; k < n; ++k) {
                const double lki = l(k, ii);
                const float *xk = y.data() + k * kSolveBlock;
                for (size_t j = 0; j < kSolveBlock; ++j)
                    sum[j] -= lki * xk[j];
            }
            const double lii = l(ii, ii);
            for (size_t j = 0; j < kSolveBlock; ++j)
                xi[j] = static_cast<float>(sum[j] / lii);
            std::copy_n(xi, m, x.data() + ii * cols + j0);
        }
    });
    return x;
}

} // namespace enmc::tensor
