/**
 * @file
 * AVX-512 kernels (F + BW). Compiled with -mavx512f -mavx512bw -mavx2
 * -mfma -ffp-contract=off; dispatch guarantees these run only on CPUs
 * with all of avx512f/avx512bw/avx2/fma.
 *
 * The avx512 table is the avx2 table with the entries 512-bit lanes
 * measurably win overridden (`bench/kernels` medians, archived in
 * BENCH_kernels.json): the INT4 screener GEMV, `dot` and `axpy`, each
 * called in runs of its own kind (per row, per candidate, per gradient
 * row). Every other entry is AVX2's: 512-bit FP32 GEMV and batched GEMV
 * lost to it at 1K-64K rows and at 4-8 queries, the batch sizes the
 * trainer and serving paths use; a 512-bit quantizeSpan won on one
 * reduced-dimension vector but tied on the whole screener weight matrix;
 * a 512-bit absMax won alone but made quantization, its only caller,
 * slower when followed by AVX2's quantizeSpan; and the sparse
 * projection's 8-lane gather gained nothing from EVEX encoding.
 *
 * `dot` keeps AVX2's EXACT accumulation pattern: one zmm register holds
 * the same 16 accumulator slots AVX2 spreads over two ymm (element i ->
 * slot i mod 16, FMA per slot), the 8-wide tail folds into slots 0-7,
 * and the horizontal reduction is (slots 0-7) + (slots 8-15) run through
 * the same fixed-order hsum — so it is bit-identical to the avx2 target,
 * which keeps the borrowed GEMV rows equal to dot() within the target.
 *
 * The integer MAC widens int8 pairs to int16 in zmm lanes with one
 * 256-bit load per operand (double AVX2's width per step). Integer lane
 * accumulation is exact whatever the lane pattern, so the result is
 * bit-exact vs. the scalar int64 loop for cols up to ~2^20 (each int32
 * lane accumulates at most cols/32 products of magnitude <= 127*254;
 * gemvQuantInto routes wider rows to the scalar path).
 */

#include "tensor/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX2__) && \
    defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace enmc::tensor::kernels {

namespace {

/** Fixed-order horizontal sum of one ymm — identical to the avx2 tier's. */
inline float
hsum256(__m256 v)
{
    __m128 t = _mm_add_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    t = _mm_add_ps(t, _mm_movehl_ps(t, t));
    t = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0x55));
    return _mm_cvtss_f32(t);
}

/** Upper 8 slots of a zmm as a ymm (bit reinterpretation; AVX512F-only —
 *  _mm512_extractf32x8_ps would need DQ). */
inline __m256
upperHalf(__m512 v)
{
    return _mm512_castps512_ps256(_mm512_shuffle_f32x4(v, v, 0xEE));
}

float
dotAvx512(const float *a, const float *b, size_t n)
{
    __m512 acc = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16)
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + i),
                              _mm512_loadu_ps(b + i), acc);
    // dotAvx2's op sequence from the point its main loop exits: fold the
    // 8-wide remainder into slots 0-7 (AVX2's acc0), reduce as
    // hsum256(lo + hi) like AVX2's hsum256(acc0 + acc1), then the
    // scalar tail.
    __m256 lo = _mm512_castps512_ps256(acc);
    const __m256 hi = upperHalf(acc);
    for (; i + 8 <= n; i += 8)
        lo = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                             lo);
    float s = hsum256(_mm256_add_ps(lo, hi));
    for (; i < n; ++i)
        s += a[i] * b[i];
    return s;
}

void
axpyAvx512(float alpha, const float *x, float *y, size_t n)
{
    // mul+add (not FMA): bit-exact with the scalar y[i] += alpha * x[i].
    const __m512 va = _mm512_set1_ps(alpha);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 p = _mm512_mul_ps(va, _mm512_loadu_ps(x + i));
        _mm512_storeu_ps(y + i, _mm512_add_ps(_mm512_loadu_ps(y + i), p));
    }
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

/** Exact horizontal sum of 16 int32 lanes into int64 (lanes cannot
 *  overflow int32 for cols up to ~2^20; the wide sum is exact). */
inline int64_t
hsumEpi32x16(__m512i v)
{
    alignas(64) int32_t lanes[16];
    _mm512_store_si512(reinterpret_cast<__m512i *>(lanes), v);
    int64_t s = 0;
    for (int32_t l : lanes)
        s += l;
    return s;
}

/** One row's int32-lane accumulation over `cols` columns against the
 *  already-widened activation chunks (`h16` = h converted to int16, one
 *  zmm per 32 columns). Integer lane math is exact, so the blocking
 *  below never affects results. */
inline int64_t
quantRowTotal(const int8_t *wr, const int8_t *h, size_t cols,
              const __m512i *h16, size_t chunks)
{
    __m512i acc = _mm512_setzero_si512();
    for (size_t i = 0; i < chunks; ++i) {
        const __m512i w16 = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(wr + 32 * i)));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(w16, h16[i]));
    }
    int64_t total = hsumEpi32x16(acc);
    for (size_t c = 32 * chunks; c < cols; ++c)
        total += static_cast<int64_t>(wr[c]) * h[c];
    return total;
}

void
gemvQuantRowsAvx512(const int8_t *w, size_t cols, const float *scales,
                    const int8_t *h, float hscale, const float *bias,
                    float *out, size_t r0, size_t r1)
{
    // Widen the shared activation vector once per chunk of rows instead
    // of once per row — at ENMC's short reduced dims (d' = 128..512) the
    // h conversions are half of the AVX2 tier's inner-loop work.
    constexpr size_t kMaxChunks = 64; // up to 2048 columns staged
    __m512i h16[kMaxChunks];
    const size_t chunks = std::min(cols / 32, kMaxChunks);
    for (size_t i = 0; i < chunks; ++i)
        h16[i] = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(h + 32 * i)));

    if (cols > 32 * kMaxChunks) {
        // Very wide rows fall back to the unstaged per-row loop.
        for (size_t r = r0; r < r1; ++r) {
            const int8_t *wr = w + r * cols;
            __m512i acc = _mm512_setzero_si512();
            size_t c = 0;
            for (; c + 32 <= cols; c += 32) {
                const __m512i w16 = _mm512_cvtepi8_epi16(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(wr + c)));
                const __m512i hh = _mm512_cvtepi8_epi16(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(h + c)));
                acc = _mm512_add_epi32(acc, _mm512_madd_epi16(w16, hh));
            }
            int64_t total = hsumEpi32x16(acc);
            for (; c < cols; ++c)
                total += static_cast<int64_t>(wr[c]) * h[c];
            out[r] = static_cast<float>(total) * scales[r] * hscale +
                     (bias ? bias[r] : 0.0f);
        }
        return;
    }

    size_t r = r0;
    for (; r + 4 <= r1; r += 4) {
        const int8_t *wr = w + r * cols;
        _mm_prefetch(reinterpret_cast<const char *>(wr + 4 * cols),
                     _MM_HINT_T0);
        for (size_t q = 0; q < 4; ++q) {
            const int64_t total =
                quantRowTotal(wr + q * cols, h, cols, h16, chunks);
            out[r + q] = static_cast<float>(total) * scales[r + q] *
                             hscale +
                         (bias ? bias[r + q] : 0.0f);
        }
    }
    for (; r < r1; ++r) {
        const int64_t total =
            quantRowTotal(w + r * cols, h, cols, h16, chunks);
        out[r] = static_cast<float>(total) * scales[r] * hscale +
                 (bias ? bias[r] : 0.0f);
    }
}

} // namespace

const KernelOps *
avx512KernelOps()
{
    static const KernelOps table = [] {
        KernelOps k = *avx2KernelOps();
        k.name = "avx512";
        k.dot = dotAvx512;
        k.axpy = axpyAvx512;
        k.gemvQuantRows = gemvQuantRowsAvx512;
        return k;
    }();
    return &table;
}

} // namespace enmc::tensor::kernels

#else // !(__AVX512F__ && __AVX512BW__ && __AVX2__ && __FMA__)

namespace enmc::tensor::kernels {

const KernelOps *
avx512KernelOps()
{
    return nullptr;
}

} // namespace enmc::tensor::kernels

#endif
