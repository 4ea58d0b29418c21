/**
 * @file
 * Equivalence tests for the dispatched kernel layer: every target
 * available on this CPU is checked against the scalar reference —
 * bit-exact for integer and element-wise kernels, within the documented
 * ULP envelope for FP32 reductions — plus the determinism contracts
 * (gemv row == dot, batch == per-query, any-worker-count stability).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/projection.h"
#include "tensor/quantize.h"
#include "tensor/topk.h"

namespace enmc::tensor::kernels {
namespace {

/** Restores the startup dispatch target and tune params when a test
 *  ends. */
class KernelsTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        setActiveTarget(saved_);
        setTuneParams(saved_tune_);
    }
    Target saved_ = activeTarget();
    TuneParams saved_tune_ = tune();
};

Vector
randomVector(Rng &rng, size_t n, double scale = 1.0)
{
    Vector v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

Matrix
randomMatrix(Rng &rng, size_t rows, size_t cols)
{
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return m;
}

/**
 * FP32 cross-target tolerance: each target uses its own accumulation
 * pattern, so results differ by a bounded number of float rounding steps.
 * The envelope documented in kernels.h: 64 * eps * sum |a_i b_i|.
 */
float
dotTolerance(std::span<const float> a, std::span<const float> b)
{
    double mag = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        mag += std::fabs(static_cast<double>(a[i]) * b[i]);
    constexpr double kEps = 1.1920929e-07; // 2^-23
    return static_cast<float>(64.0 * kEps * mag) + 1e-12f;
}

// Sizes straddling the vector widths and tail-handling paths.
const size_t kSizes[] = {0, 1, 3, 7, 8, 15, 16, 31, 32, 33, 100, 257, 1024};

TEST_F(KernelsTest, ScalarTargetAlwaysAvailable)
{
    const auto targets = availableTargets();
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets.front(), Target::Scalar);
    ASSERT_NE(scalarKernelOps(), nullptr);
}

TEST_F(KernelsTest, TargetNamesRoundTrip)
{
    for (Target t : availableTargets()) {
        Target parsed;
        ASSERT_TRUE(targetFromString(targetName(t), &parsed));
        EXPECT_EQ(parsed, t);
    }
    Target dummy;
    EXPECT_TRUE(targetFromString("avx512", &dummy));
    EXPECT_EQ(dummy, Target::Avx512);
    EXPECT_FALSE(targetFromString("avx999", &dummy));
    EXPECT_FALSE(targetFromString("sse2", &dummy)); // tier removed
    EXPECT_FALSE(targetFromString("", &dummy));
}

TEST_F(KernelsTest, ResolveTargetEmptyPicksBestAvailable)
{
    EXPECT_EQ(resolveTarget(nullptr), availableTargets().back());
    EXPECT_EQ(resolveTarget(""), availableTargets().back());
    EXPECT_EQ(resolveTarget("scalar"), Target::Scalar);
}

using KernelsDeathTest = KernelsTest;

TEST_F(KernelsDeathTest, ResolveTargetUnknownNameIsFatal)
{
    EXPECT_DEATH(resolveTarget("avx999"), "ENMC_KERNELS");
    EXPECT_DEATH(resolveTarget("sse2"), "is not one of"); // tier removed
}

TEST_F(KernelsDeathTest, ResolveTargetUnavailableTargetIsFatal)
{
    // Find a target this CPU/build lacks; when every tier is available
    // (full AVX-512 host), the fail-loud path has no reachable input.
    const auto avail = availableTargets();
    for (Target t : {Target::Avx2, Target::Avx512}) {
        if (std::find(avail.begin(), avail.end(), t) != avail.end())
            continue;
        EXPECT_DEATH(resolveTarget(targetName(t)), "not available");
        return;
    }
    GTEST_SKIP() << "every kernel target is available on this CPU";
}

TEST_F(KernelsTest, SetActiveTargetSwitchesTable)
{
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        EXPECT_EQ(activeTarget(), t);
        EXPECT_STREQ(ops().name, targetName(t));
    }
}

TEST_F(KernelsTest, DotWithinToleranceOfScalar)
{
    Rng rng(7);
    const KernelOps *ref = scalarKernelOps();
    for (size_t n : kSizes) {
        const Vector a = randomVector(rng, n);
        const Vector b = randomVector(rng, n);
        const float want = ref->dot(a.data(), b.data(), n);
        for (Target t : availableTargets()) {
            const float got = (t == Target::Scalar)
                                  ? want
                                  : [&] {
                                        setActiveTarget(t);
                                        return ops().dot(a.data(), b.data(),
                                                         n);
                                    }();
            EXPECT_NEAR(got, want, dotTolerance(a, b))
                << "target=" << targetName(t) << " n=" << n;
        }
    }
}

TEST_F(KernelsTest, AxpyBitExactAcrossTargets)
{
    Rng rng(11);
    for (size_t n : kSizes) {
        const Vector x = randomVector(rng, n);
        const Vector y0 = randomVector(rng, n);
        const float alpha = static_cast<float>(rng.normal(0.0, 2.0));
        Vector want = y0;
        scalarKernelOps()->axpy(alpha, x.data(), want.data(), n);
        for (Target t : availableTargets()) {
            setActiveTarget(t);
            Vector y = y0;
            ops().axpy(alpha, x.data(), y.data(), n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(y[i], want[i])
                    << "target=" << targetName(t) << " n=" << n
                    << " i=" << i;
        }
    }
}

TEST_F(KernelsTest, AbsMaxBitExactAcrossTargets)
{
    Rng rng(13);
    for (size_t n : kSizes) {
        Vector v = randomVector(rng, n, 3.0);
        if (n > 2)
            v[n / 2] = -42.5f;
        const float want = scalarKernelOps()->absMax(v.data(), n);
        for (Target t : availableTargets()) {
            setActiveTarget(t);
            ASSERT_EQ(ops().absMax(v.data(), n), want)
                << "target=" << targetName(t) << " n=" << n;
        }
    }
}

TEST_F(KernelsTest, QuantizeSpanBitExactAcrossTargets)
{
    Rng rng(17);
    for (size_t n : kSizes) {
        Vector v = randomVector(rng, n, 4.0);
        // Half-way points stress the round-half-away-from-zero contract.
        for (size_t i = 0; i + 1 < n; i += 2)
            v[i] = (i % 4 ? -1.0f : 1.0f) * (static_cast<float>(i) + 0.5f);
        for (int max_level : {1, 7, 127}) {
            const float inv = 1.0f;
            std::vector<int8_t> want(n + 1, 99), got(n + 1, 99);
            scalarKernelOps()->quantizeSpan(v.data(), n, inv, max_level,
                                            want.data());
            for (Target t : availableTargets()) {
                setActiveTarget(t);
                std::fill(got.begin(), got.end(), 99);
                ops().quantizeSpan(v.data(), n, inv, max_level, got.data());
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(got[i], want[i])
                        << "target=" << targetName(t) << " n=" << n
                        << " i=" << i << " v=" << v[i];
                ASSERT_EQ(got[n], 99) << "wrote past the span";
            }
        }
    }
}

TEST_F(KernelsTest, GemvQuantBitExactAcrossTargets)
{
    Rng rng(19);
    for (size_t cols : {size_t{1}, size_t{15}, size_t{16}, size_t{33},
                        size_t{128}, size_t{1000}}) {
        const size_t rows = 9;
        std::vector<int8_t> w(rows * cols);
        std::vector<int8_t> h(cols);
        for (auto &x : w)
            x = static_cast<int8_t>(rng.uniformInt(-127, 127));
        for (auto &x : h)
            x = static_cast<int8_t>(rng.uniformInt(-127, 127));
        std::vector<float> scales(rows), bias(rows);
        for (size_t r = 0; r < rows; ++r) {
            scales[r] = static_cast<float>(rng.normal(0.01, 0.001));
            bias[r] = static_cast<float>(rng.normal(0.0, 1.0));
        }
        Vector want(rows), got(rows);
        scalarKernelOps()->gemvQuantRows(w.data(), cols, scales.data(),
                                         h.data(), 0.02f, bias.data(),
                                         want.data(), 0, rows);
        for (Target t : availableTargets()) {
            setActiveTarget(t);
            ops().gemvQuantRows(w.data(), cols, scales.data(), h.data(),
                                0.02f, bias.data(), got.data(), 0, rows);
            for (size_t r = 0; r < rows; ++r)
                ASSERT_EQ(got[r], want[r])
                    << "target=" << targetName(t) << " cols=" << cols
                    << " r=" << r;
        }
    }
}

TEST_F(KernelsTest, GemvRowEqualsDotWithinTarget)
{
    Rng rng(23);
    const Matrix w = randomMatrix(rng, 13, 97);
    const Vector h = randomVector(rng, 97);
    Vector bias = randomVector(rng, 13);
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        Vector z(w.rows());
        ops().gemvRows(w.data(), w.cols(), h.data(), bias.data(), z.data(),
                       0, w.rows());
        for (size_t r = 0; r < w.rows(); ++r)
            ASSERT_EQ(z[r],
                      ops().dot(w.row(r).data(), h.data(), w.cols()) +
                          bias[r])
                << "target=" << targetName(t) << " r=" << r;
    }
}

TEST_F(KernelsTest, GemvBatchEqualsPerQueryWithinTarget)
{
    Rng rng(29);
    const Matrix w = randomMatrix(rng, 21, 130);
    Vector bias = randomVector(rng, 21);
    for (size_t nq : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
        std::vector<Vector> hs, single(nq, Vector(w.rows())),
            batched(nq, Vector(w.rows()));
        for (size_t q = 0; q < nq; ++q)
            hs.push_back(randomVector(rng, w.cols()));
        for (Target t : availableTargets()) {
            setActiveTarget(t);
            std::vector<const float *> hp;
            std::vector<float *> op;
            for (size_t q = 0; q < nq; ++q) {
                hp.push_back(hs[q].data());
                op.push_back(batched[q].data());
                ops().gemvRows(w.data(), w.cols(), hs[q].data(),
                               bias.data(), single[q].data(), 0, w.rows());
            }
            ops().gemvBatchRows(w.data(), w.cols(), hp.data(), op.data(),
                                nq, bias.data(), 0, w.rows());
            for (size_t q = 0; q < nq; ++q)
                for (size_t r = 0; r < w.rows(); ++r)
                    ASSERT_EQ(batched[q][r], single[q][r])
                        << "target=" << targetName(t) << " nq=" << nq
                        << " q=" << q << " r=" << r;
        }
    }
}

TEST_F(KernelsTest, ProjectionWithinToleranceOfScalar)
{
    Rng rng(31);
    SparseProjection proj(64, 300, rng);
    const Vector h = randomVector(rng, 300);
    setActiveTarget(Target::Scalar);
    const Vector want = proj.apply(h);
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        const Vector got = proj.apply(h);
        // Sum of |h| bounds every row's accumulated magnitude.
        double mag = 0.0;
        for (float x : h)
            mag += std::fabs(x);
        const float tol =
            static_cast<float>(64.0 * 1.1920929e-07 * mag) + 1e-12f;
        for (size_t r = 0; r < want.size(); ++r)
            ASSERT_NEAR(got[r], want[r], tol)
                << "target=" << targetName(t) << " r=" << r;
    }
}

TEST_F(KernelsTest, ParallelGemvBitIdenticalAcrossWorkerCounts)
{
    Rng rng(37);
    // Large enough that rows*cols clears kParallelMinWork and spans
    // several kRowChunk blocks.
    const size_t rows = 3 * kRowChunk + 17;
    const size_t cols = 768;
    ASSERT_GE(rows * cols, kParallelMinWork);
    const Matrix w = randomMatrix(rng, rows, cols);
    const Vector h = randomVector(rng, cols);
    const Vector bias = randomVector(rng, rows);
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        Vector serial(rows);
        gemvInto(w, h, bias, serial, /*workers=*/1);
        for (size_t workers : {size_t{2}, size_t{8}}) {
            Vector par(rows);
            gemvInto(w, h, bias, par, workers);
            for (size_t r = 0; r < rows; ++r)
                ASSERT_EQ(par[r], serial[r])
                    << "target=" << targetName(t)
                    << " workers=" << workers << " r=" << r;
        }
    }
}

TEST_F(KernelsTest, ParallelQuantGemvBitIdenticalAcrossWorkerCounts)
{
    Rng rng(41);
    const size_t rows = 2 * kRowChunk + 5;
    const size_t cols = 1024;
    std::vector<int8_t> w(rows * cols);
    std::vector<int8_t> h(cols);
    for (auto &x : w)
        x = static_cast<int8_t>(rng.uniformInt(-7, 7));
    for (auto &x : h)
        x = static_cast<int8_t>(rng.uniformInt(-7, 7));
    std::vector<float> scales(rows, 0.01f);
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        Vector serial(rows);
        gemvQuantInto(w.data(), rows, cols, scales.data(), h.data(), 0.02f,
                      {}, serial, /*workers=*/1);
        for (size_t workers : {size_t{2}, size_t{8}}) {
            Vector par(rows);
            gemvQuantInto(w.data(), rows, cols, scales.data(), h.data(),
                          0.02f, {}, par, workers);
            for (size_t r = 0; r < rows; ++r)
                ASSERT_EQ(par[r], serial[r])
                    << "target=" << targetName(t)
                    << " workers=" << workers << " r=" << r;
        }
    }
}

TEST_F(KernelsTest, QuantizedVectorRoundTripsAcrossTargets)
{
    Rng rng(43);
    const Vector v = randomVector(rng, 500, 2.0);
    setActiveTarget(Target::Scalar);
    const QuantizedVector want = quantize(v, QuantBits::Int4);
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        const QuantizedVector got = quantize(v, QuantBits::Int4);
        ASSERT_EQ(got.scale, want.scale) << "target=" << targetName(t);
        ASSERT_EQ(got.values, want.values) << "target=" << targetName(t);
    }
}

/**
 * The AVX-512 tier promises more than the envelope: its FP32 kernels
 * keep AVX2's 16-slot accumulation pattern exactly, so results are
 * bit-identical — the property that lets cpuid upgrade default dispatch
 * on AVX-512 hosts without moving any golden figure.
 */
TEST_F(KernelsTest, Avx512BitIdenticalToAvx2)
{
    const auto avail = availableTargets();
    const bool has512 =
        std::find(avail.begin(), avail.end(), Target::Avx512) != avail.end();
    if (!has512)
        GTEST_SKIP() << "CPU/build lacks AVX-512; nothing to compare";
    ASSERT_NE(avx512KernelOps(), nullptr);

    Rng rng(47);
    const Matrix w = randomMatrix(rng, 29, 333);
    const Vector bias = randomVector(rng, 29);
    std::vector<Vector> hs;
    for (size_t q = 0; q < 5; ++q)
        hs.push_back(randomVector(rng, w.cols()));

    for (size_t n : kSizes) {
        const Vector a = randomVector(rng, n);
        const Vector b = randomVector(rng, n);
        setActiveTarget(Target::Avx2);
        const float want = ops().dot(a.data(), b.data(), n);
        setActiveTarget(Target::Avx512);
        ASSERT_EQ(ops().dot(a.data(), b.data(), n), want) << "n=" << n;
    }

    Vector z2(w.rows()), z5(w.rows());
    setActiveTarget(Target::Avx2);
    ops().gemvRows(w.data(), w.cols(), hs[0].data(), bias.data(), z2.data(),
                   0, w.rows());
    setActiveTarget(Target::Avx512);
    ops().gemvRows(w.data(), w.cols(), hs[0].data(), bias.data(), z5.data(),
                   0, w.rows());
    ASSERT_EQ(std::vector<float>(z2.begin(), z2.end()),
              std::vector<float>(z5.begin(), z5.end()));

    std::vector<Vector> out2(hs.size(), Vector(w.rows())),
        out5(hs.size(), Vector(w.rows()));
    std::vector<const float *> hp;
    std::vector<float *> op2, op5;
    for (size_t q = 0; q < hs.size(); ++q) {
        hp.push_back(hs[q].data());
        op2.push_back(out2[q].data());
        op5.push_back(out5[q].data());
    }
    setActiveTarget(Target::Avx2);
    ops().gemvBatchRows(w.data(), w.cols(), hp.data(), op2.data(),
                        hs.size(), bias.data(), 0, w.rows());
    setActiveTarget(Target::Avx512);
    ops().gemvBatchRows(w.data(), w.cols(), hp.data(), op5.data(),
                        hs.size(), bias.data(), 0, w.rows());
    for (size_t q = 0; q < hs.size(); ++q)
        for (size_t r = 0; r < w.rows(); ++r)
            ASSERT_EQ(out2[q][r], out5[q][r]) << "q=" << q << " r=" << r;

    SparseProjection proj(48, w.cols(), rng);
    setActiveTarget(Target::Avx2);
    const Vector p2 = proj.apply(hs[1]);
    setActiveTarget(Target::Avx512);
    const Vector p5 = proj.apply(hs[1]);
    for (size_t r = 0; r < p2.size(); ++r)
        ASSERT_EQ(p2[r], p5[r]) << "r=" << r;
}

/**
 * Property test for the TuneParams contract: every parameter value is a
 * pure performance knob. GEMV (fp32 + int8), batch GEMV and top-k must
 * return bit-identical results for every sampled TuneParams point, on
 * every available target, at every worker count.
 */
TEST_F(KernelsTest, TuneParamsNeverChangeResults)
{
    Rng rng(53);
    const size_t rows = 700, cols = 257;
    const Matrix w = randomMatrix(rng, rows, cols);
    const Vector bias = randomVector(rng, rows);
    std::vector<Vector> hs;
    for (size_t q = 0; q < 3; ++q)
        hs.push_back(randomVector(rng, cols));
    std::vector<int8_t> wq(rows * cols), hq(cols);
    for (auto &x : wq)
        x = static_cast<int8_t>(rng.uniformInt(-7, 7));
    for (auto &x : hq)
        x = static_cast<int8_t>(rng.uniformInt(-7, 7));
    std::vector<float> scales(rows, 0.01f);
    std::vector<float> z(rows);
    for (size_t i = 0; i < rows; ++i)
        z[i] = static_cast<float>(rng.normal(0.0, 1.0));
    // Duplicate scores exercise the index tie-break in both topk paths.
    z[11] = z[607];
    std::vector<std::vector<Scored>> shardLists;
    for (uint32_t s = 0; s < 4; ++s)
        shardLists.push_back(
            topkScored({z.data() + 175 * s, 175}, 40, 175 * s));

    const TuneParams points[] = {
        {},                    // defaults
        {1, 1, 1, 1, 0},       // degenerate chunks, heap-only topk
        {64, 1u << 14, 2, 32, 1 << 20},  // tiny tiles, scan-only topk
        {4096, 1u << 24, 16, 8192, 512}, // oversized tiles, mixed topk
        {333, 1, 3, 251, 700}, // off-pattern sizes, cutoff == n
    };

    // References computed at defaults, workers=1, per target.
    for (Target t : availableTargets()) {
        setActiveTarget(t);
        setTuneParams(TuneParams{});
        Vector refGemv(rows), refQuant(rows);
        gemvInto(w, hs[0], bias, refGemv, 1);
        gemvQuantInto(wq.data(), rows, cols, scales.data(), hq.data(),
                      0.02f, {}, refQuant, 1);
        std::vector<const float *> hp;
        for (const Vector &h : hs)
            hp.push_back(h.data());
        std::vector<Vector> refBatch(hs.size(), Vector(rows));
        {
            std::vector<float *> op;
            for (Vector &o : refBatch)
                op.push_back(o.data());
            gemvBatchInto(w, hp.data(), op.data(), hs.size(), bias, 1);
        }
        const std::vector<Scored> refTopk = topkScored(z, 60);
        const std::vector<Scored> refMerge = mergeTopK(shardLists, 60);

        for (const TuneParams &p : points) {
            setTuneParams(p);
            for (size_t workers : {size_t{1}, size_t{3}, size_t{8}}) {
                Vector gotGemv(rows), gotQuant(rows);
                gemvInto(w, hs[0], bias, gotGemv, workers);
                gemvQuantInto(wq.data(), rows, cols, scales.data(),
                              hq.data(), 0.02f, {}, gotQuant, workers);
                std::vector<Vector> gotBatch(hs.size(), Vector(rows));
                {
                    std::vector<float *> op;
                    for (Vector &o : gotBatch)
                        op.push_back(o.data());
                    gemvBatchInto(w, hp.data(), op.data(), hs.size(), bias,
                                  workers);
                }
                for (size_t r = 0; r < rows; ++r) {
                    ASSERT_EQ(gotGemv[r], refGemv[r])
                        << targetName(t) << " chunk=" << p.gemv_row_chunk
                        << " workers=" << workers << " r=" << r;
                    ASSERT_EQ(gotQuant[r], refQuant[r])
                        << targetName(t) << " chunk=" << p.gemv_row_chunk
                        << " workers=" << workers << " r=" << r;
                }
                for (size_t q = 0; q < hs.size(); ++q)
                    for (size_t r = 0; r < rows; ++r)
                        ASSERT_EQ(gotBatch[q][r], refBatch[q][r])
                            << targetName(t)
                            << " qtile=" << p.batch_query_tile
                            << " workers=" << workers << " q=" << q
                            << " r=" << r;
            }
            ASSERT_EQ(topkScored(z, 60), refTopk)
                << "cutoff=" << p.topk_scan_cutoff;
            ASSERT_EQ(mergeTopK(shardLists, 60), refMerge)
                << "cutoff=" << p.topk_scan_cutoff;
        }
    }
}

} // namespace
} // namespace enmc::tensor::kernels
