/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the screening/classification
 * hot path.
 *
 * Every dense numeric loop the experiments bottom out in — `dot`, `axpy`,
 * GEMV (FP32 and quantized-integer), quantization, and the sparse
 * projection — sits behind a single function-pointer table with three
 * dispatch targets: portable scalar (the reference), AVX2+FMA, and
 * AVX-512, which is AVX2 plus the kernels 512-bit lanes win (the INT4
 * screener GEMV, `dot` and `axpy`; the other entries are AVX2's, chosen
 * from `bench/kernels` medians). The
 * target is selected once at startup from cpuid and can be forced with
 * `ENMC_KERNELS=scalar|avx2|avx512` (tests and benches may also switch at
 * runtime with setActiveTarget()).
 * Forcing a target the CPU or build does not support, or naming an
 * unknown one, is a fatal configuration error — never a silent fallback.
 *
 * Numerics contract (tested in tests/tensor/test_kernels.cc):
 *  - Integer kernels (`gemvQuantRows`) and element-wise kernels (`axpy`,
 *    `absMax`, `quantizeSpan`) are BIT-EXACT across all targets.
 *  - FP32 reductions (`dot`, GEMV, projection) may differ between scalar
 *    and the SIMD targets within a documented ULP envelope: scalar
 *    accumulates in 4 double accumulators, AVX2 in 16 float slots with
 *    FMA, so the error vs. the scalar reference is bounded by
 *    ~(n/lanes) rounding steps — tests allow
 *    64 * eps * sum_i |a_i * b_i|. AVX-512's own FP32 `dot` keeps
 *    AVX2's exact 16-slot FMA pattern (one zmm register holds what AVX2
 *    spreads over two ymm), and its other FP32 entries are AVX2's, so
 *    avx512 FP32 results are BIT-IDENTICAL to avx2 — upgrading the
 *    dispatch tier never moves a paper figure.
 *  - Within one target the layer is self-consistent and deterministic:
 *    gemv(W,h)[r] == dot(W.row(r), h) + b[r] bit-for-bit, batched GEMV
 *    equals per-query GEMV bit-for-bit, and row-parallel GEMV partitions
 *    rows into fixed-size chunks with disjoint outputs, so results are
 *    bit-identical for ANY worker count (ENMC_THREADS).
 *  - Every `TuneParams` value preserves all of the above bit-for-bit:
 *    the tunables only move work-partitioning boundaries (row chunks,
 *    batch tiles) or select between algorithms with identical outputs
 *    (top-k heap vs. sort-scan under the total order `scoredBefore`),
 *    never an accumulation pattern.
 */

#ifndef ENMC_TENSOR_KERNELS_H
#define ENMC_TENSOR_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/matrix.h"

namespace enmc::tensor::kernels {

/** Dispatch targets in capability order Scalar < Avx2 < Avx512; Avx512
 *  is Avx2 plus the kernels 512-bit lanes win. */
enum class Target {
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * The per-target kernel table. All functions tolerate n == 0 / empty row
 * ranges; pointers may then be null. `w` is row-major with `cols` stride.
 * Row-range kernels process rows [r0, r1) only — the building block the
 * parallel wrappers chunk over.
 */
struct KernelOps
{
    const char *name;

    float (*dot)(const float *a, const float *b, size_t n);
    void (*axpy)(float alpha, const float *x, float *y, size_t n);
    float (*absMax)(const float *v, size_t n);

    /** out[r] = dot(w_row(r), h) + (bias ? bias[r] : 0). */
    void (*gemvRows)(const float *w, size_t cols, const float *h,
                     const float *bias, float *out, size_t r0, size_t r1);

    /**
     * Multi-query GEMV: outs[q][r] = dot(w_row(r), hs[q]) + bias[r].
     * Weight rows are streamed once per row across all queries
     * (register-blocked in query pairs); per-query results are bit-equal
     * to gemvRows.
     */
    void (*gemvBatchRows)(const float *w, size_t cols,
                          const float *const *hs, float *const *outs,
                          size_t nq, const float *bias, size_t r0,
                          size_t r1);

    /**
     * Integer GEMV on int8 storage:
     * out[r] = float(sum_c w[r][c] * h[c]) * scales[r] * hscale + bias[r].
     * The MAC runs in integer lanes and is bit-exact across targets.
     */
    void (*gemvQuantRows)(const int8_t *w, size_t cols, const float *scales,
                          const int8_t *h, float hscale, const float *bias,
                          float *out, size_t r0, size_t r1);

    /**
     * Symmetric quantization of a span: out[i] =
     * clamp(lround(v[i] * inv_scale), -max_level, max_level).
     * Round-half-away-from-zero, bit-exact across targets.
     */
    void (*quantizeSpan)(const float *v, size_t n, float inv_scale,
                         int max_level, int8_t *out);

    /**
     * Achlioptas sparse projection rows [r0, r1):
     * y[r] = (sum h[plus[i]] - sum h[minus[i]]) * scale with the flat
     * index/offset layout of SparseProjection.
     */
    void (*projectRows)(const float *h, const uint32_t *plus,
                        const uint32_t *plus_off, const uint32_t *minus,
                        const uint32_t *minus_off, float scale, float *y,
                        size_t r0, size_t r1);
};

/** Active table (never null). Selected on first use; see activeTarget(). */
const KernelOps &ops();

/**
 * The active dispatch target. First call probes cpuid and honours
 * ENMC_KERNELS=scalar|avx2|avx512 (unknown or unavailable values
 * are fatal configuration errors — a forced target never silently falls
 * back).
 */
Target activeTarget();

/**
 * Force a target (test/bench hook). Panics if the target is not
 * available on this CPU. Not thread-safe: call only from single-threaded
 * setup code.
 */
void setActiveTarget(Target t);

/** Targets usable on this CPU, ordered Scalar, [Avx2,] [Avx512]. */
std::vector<Target> availableTargets();

const char *targetName(Target t);

/** Parse "scalar"/"avx2"/"avx512". Returns false on unknown. */
bool targetFromString(std::string_view s, Target *out);

/**
 * Resolve a requested `ENMC_KERNELS` value: nullptr/empty picks the best
 * available target; a known, available name picks that target; anything
 * else — unknown name or a target this CPU/build lacks — exits via the
 * fatal configuration-error path (no silent fallback). Exposed so the
 * regression tests can exercise the error paths directly.
 */
Target resolveTarget(const char *requested);

/**
 * Stable identifier of this machine's kernel-relevant microarchitecture:
 * "<vendor>-f<family>m<model>-<best target>", e.g.
 * "intel-f6m106-avx512". Autotuned configs are keyed by this string so
 * an `enmc.tune` file is portable — a host only applies entries measured
 * on matching hardware.
 */
const std::string &microarchKey();

// ---------------------------------------------------------------------
// Performance tunables. Every value is bit-exactness-preserving (see the
// numerics contract above); the defaults reproduce the pre-tuning
// constants. `tools/autotune` sweeps these and persists the best point
// per microarchitecture; ENMC_TUNE_JSON= loads it back at startup.

struct TuneParams
{
    /** Rows per parallel GEMV work item (chunk boundaries are a pure
     *  function of the shape, so any value is worker-count stable). */
    size_t gemv_row_chunk = 1024;
    /** Minimum rows*cols (*nq for batches) before GEMV fans out. */
    size_t gemv_parallel_min_work = size_t{1} << 21;
    /** Batched-GEMV tile shape: queries per tile ... */
    size_t batch_query_tile = 8;
    /** ... by rows per tile (the batch path's parallel chunk). */
    size_t batch_row_tile = 1024;
    /** topkScored/mergeTopK switch to a sort-scan when the candidate
     *  count is at most this (0 = always use the bounded heap). */
    size_t topk_scan_cutoff = 0;

    bool operator==(const TuneParams &) const = default;
};

/** The active tunables (process-wide; defaults until set). */
const TuneParams &tune();

/**
 * Install tunables (startup / test / bench hook). Panics on degenerate
 * values (zero chunk or tile sizes). Not thread-safe: call only from
 * single-threaded setup code, like setActiveTarget().
 */
void setTuneParams(const TuneParams &p);

// ---------------------------------------------------------------------
// Span-level conveniences (active-target dispatch, serial).

float dot(std::span<const float> a, std::span<const float> b);
void axpy(float alpha, std::span<const float> x, std::span<float> y);
float absMax(std::span<const float> v);

// ---------------------------------------------------------------------
// Row-parallel GEMV wrappers. Work is split into fixed-size row blocks
// (tune().gemv_row_chunk rows; independent of worker count) executed on
// the shared pool when the matrix is large enough; outputs are disjoint
// per block, so results are bit-identical for every ENMC_THREADS value.
// `workers` follows enmc::parallelFor: 0 = process-wide pool, 1 = inline
// serial, n = a dedicated pool of n threads.

/** Default rows per parallel work item (TuneParams::gemv_row_chunk). */
inline constexpr size_t kRowChunk = 1024;

/** Default minimum rows*cols before GEMV fans out to the pool. */
inline constexpr size_t kParallelMinWork = size_t{1} << 21;

/** z = W h (+ bias); out.size() == w.rows(). */
void gemvInto(const Matrix &w, std::span<const float> h,
              std::span<const float> bias, std::span<float> out,
              size_t workers = 0);

/** Batched multi-query GEMV; outs[q] points at a w.rows() buffer. */
void gemvBatchInto(const Matrix &w, const float *const *hs,
                   float *const *outs, size_t nq,
                   std::span<const float> bias, size_t workers = 0);

/** Quantized GEMV over all rows (int8 storage, per-row scales). */
void gemvQuantInto(const int8_t *w, size_t rows, size_t cols,
                   const float *scales, const int8_t *h, float hscale,
                   std::span<const float> bias, std::span<float> out,
                   size_t workers = 0);

// ---------------------------------------------------------------------
// Per-target tables (internal; used by dispatch and the equivalence
// tests). May return null when the build/CPU lacks the target.

const KernelOps *scalarKernelOps();
const KernelOps *avx2KernelOps();
const KernelOps *avx512KernelOps();

} // namespace enmc::tensor::kernels

#endif // ENMC_TENSOR_KERNELS_H
