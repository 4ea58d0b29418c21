/**
 * @file
 * Kernel dispatch (cpuid probe + ENMC_KERNELS override), the process-wide
 * TuneParams, and the deterministic row-parallel GEMV wrappers.
 */

#include "tensor/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace enmc::tensor::kernels {

namespace {

bool
cpuHasAvx2Fma()
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    // The tier uses foundation + byte/word instructions (the widened
    // int8 MAC); both ship together on every AVX-512 server part.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw");
#else
    return false;
#endif
}

const KernelOps *
tableFor(Target t)
{
    switch (t) {
      case Target::Scalar:
        return scalarKernelOps();
      case Target::Avx2:
        return avx2KernelOps();
      case Target::Avx512:
        return avx512KernelOps();
    }
    return nullptr;
}

bool
targetAvailable(Target t)
{
    if (t == Target::Avx2 && !cpuHasAvx2Fma())
        return false;
    if (t == Target::Avx512 && !(cpuHasAvx2Fma() && cpuHasAvx512()))
        return false;
    return tableFor(t) != nullptr;
}

Target
bestAvailable()
{
    if (targetAvailable(Target::Avx512))
        return Target::Avx512;
    if (targetAvailable(Target::Avx2))
        return Target::Avx2;
    return Target::Scalar;
}

/** Active table, published once then swapped only by setActiveTarget(). */
std::atomic<const KernelOps *> g_active{nullptr};
std::atomic<Target> g_target{Target::Scalar};

const KernelOps *
initActive()
{
    const Target t = resolveTarget(envString("ENMC_KERNELS"));
    const KernelOps *table = tableFor(t);
    const KernelOps *expected = nullptr;
    if (g_active.compare_exchange_strong(expected, table))
        g_target.store(t);
    return g_active.load();
}

TuneParams g_tune; // Written only by setTuneParams() (setup code).

} // namespace

Target
resolveTarget(const char *requested)
{
    if (requested == nullptr || *requested == '\0')
        return bestAvailable();
    Target t;
    if (!targetFromString(requested, &t))
        ENMC_FATAL("ENMC_KERNELS='", requested,
                   "' is not one of scalar|avx2|avx512");
    if (!targetAvailable(t))
        ENMC_FATAL("ENMC_KERNELS=", requested,
                   " is not available on this CPU/build (best here: ",
                   targetName(bestAvailable()),
                   "); unset it or pick an available target");
    return t;
}

const KernelOps &
ops()
{
    const KernelOps *table = g_active.load(std::memory_order_acquire);
    return table ? *table : *initActive();
}

Target
activeTarget()
{
    ops();
    return g_target.load();
}

void
setActiveTarget(Target t)
{
    ENMC_ASSERT(targetAvailable(t), "kernel target ", targetName(t),
                " is not available on this CPU/build");
    g_target.store(t);
    g_active.store(tableFor(t), std::memory_order_release);
}

std::vector<Target>
availableTargets()
{
    std::vector<Target> out{Target::Scalar};
    if (targetAvailable(Target::Avx2))
        out.push_back(Target::Avx2);
    if (targetAvailable(Target::Avx512))
        out.push_back(Target::Avx512);
    return out;
}

const char *
targetName(Target t)
{
    switch (t) {
      case Target::Scalar:
        return "scalar";
      case Target::Avx2:
        return "avx2";
      case Target::Avx512:
        return "avx512";
    }
    return "?";
}

bool
targetFromString(std::string_view s, Target *out)
{
    if (s == "scalar")
        *out = Target::Scalar;
    else if (s == "avx2")
        *out = Target::Avx2;
    else if (s == "avx512")
        *out = Target::Avx512;
    else
        return false;
    return true;
}

const std::string &
microarchKey()
{
    static const std::string key = [] {
        std::string vendor = "unknown";
        unsigned family = 0, model = 0;
#if defined(__x86_64__) || defined(__i386__)
        unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
        if (__get_cpuid(0, &eax, &ebx, &ecx, &edx)) {
            char v[13] = {};
            std::memcpy(v + 0, &ebx, 4);
            std::memcpy(v + 4, &edx, 4);
            std::memcpy(v + 8, &ecx, 4);
            if (std::string_view(v) == "GenuineIntel")
                vendor = "intel";
            else if (std::string_view(v) == "AuthenticAMD")
                vendor = "amd";
            else
                vendor = "x86";
        }
        if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
            family = ((eax >> 8) & 0xf) + ((eax >> 20) & 0xff);
            model = ((eax >> 4) & 0xf) | (((eax >> 16) & 0xf) << 4);
        }
#endif
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s-f%um%u-%s", vendor.c_str(),
                      family, model, targetName(bestAvailable()));
        return std::string(buf);
    }();
    return key;
}

const TuneParams &
tune()
{
    return g_tune;
}

void
setTuneParams(const TuneParams &p)
{
    ENMC_ASSERT(p.gemv_row_chunk > 0, "gemv_row_chunk must be positive");
    ENMC_ASSERT(p.batch_query_tile > 0, "batch_query_tile must be positive");
    ENMC_ASSERT(p.batch_row_tile > 0, "batch_row_tile must be positive");
    g_tune = p;
}

float
dot(std::span<const float> a, std::span<const float> b)
{
    ENMC_ASSERT(a.size() == b.size(), "dot: size mismatch");
    return ops().dot(a.data(), b.data(), a.size());
}

void
axpy(float alpha, std::span<const float> x, std::span<float> y)
{
    ENMC_ASSERT(x.size() == y.size(), "axpy: size mismatch");
    ops().axpy(alpha, x.data(), y.data(), x.size());
}

float
absMax(std::span<const float> v)
{
    return ops().absMax(v.data(), v.size());
}

namespace {

/**
 * Shared chunking driver: run `body(r0, r1)` over fixed `chunk`-row
 * blocks of [0, rows). Chunk boundaries depend only on `rows` and the
 * installed tunables — never the worker count — and each block writes a
 * disjoint output range, so the merged result is bit-identical for every
 * worker count.
 */
template <typename Body>
void
forEachRowChunk(size_t rows, size_t work, size_t chunk, size_t workers,
                const Body &body)
{
    if (work < tune().gemv_parallel_min_work || rows <= chunk) {
        body(0, rows);
        return;
    }
    const size_t chunks = ceilDiv(rows, chunk);
    parallelFor(0, chunks, workers, [&](size_t c) {
        const size_t r0 = c * chunk;
        body(r0, std::min(rows, r0 + chunk));
    });
}

} // namespace

void
gemvInto(const Matrix &w, std::span<const float> h,
         std::span<const float> bias, std::span<float> out, size_t workers)
{
    ENMC_ASSERT(w.cols() == h.size(), "gemv: inner dim mismatch");
    ENMC_ASSERT(bias.empty() || bias.size() == w.rows(),
                "gemv: bias size mismatch");
    ENMC_ASSERT(out.size() == w.rows(), "gemv: output size mismatch");
    const KernelOps &k = ops();
    const float *b = bias.empty() ? nullptr : bias.data();
    forEachRowChunk(w.rows(), w.rows() * w.cols(), tune().gemv_row_chunk,
                    workers, [&](size_t r0, size_t r1) {
        k.gemvRows(w.data(), w.cols(), h.data(), b, out.data(), r0, r1);
    });
}

void
gemvBatchInto(const Matrix &w, const float *const *hs, float *const *outs,
              size_t nq, std::span<const float> bias, size_t workers)
{
    if (nq == 0)
        return;
    ENMC_ASSERT(bias.empty() || bias.size() == w.rows(),
                "gemvBatch: bias size mismatch");
    const KernelOps &k = ops();
    const float *b = bias.empty() ? nullptr : bias.data();
    // Tiles are (batch_query_tile x batch_row_tile): each query tile
    // streams the weight rows once, and rows are the parallel dimension.
    // Per-query results are bit-equal to gemvRows whatever the tile
    // shape (register-blocked pairs inside a tile are bit-equal to
    // independent dots), so tiling never changes an output.
    const size_t qtile = tune().batch_query_tile;
    for (size_t q0 = 0; q0 < nq; q0 += qtile) {
        const size_t qn = std::min(qtile, nq - q0);
        const size_t work = w.rows() * w.cols() * qn;
        forEachRowChunk(w.rows(), work, tune().batch_row_tile, workers,
                        [&](size_t r0, size_t r1) {
            k.gemvBatchRows(w.data(), w.cols(), hs + q0, outs + q0, qn, b,
                            r0, r1);
        });
    }
}

void
gemvQuantInto(const int8_t *w, size_t rows, size_t cols, const float *scales,
              const int8_t *h, float hscale, std::span<const float> bias,
              std::span<float> out, size_t workers)
{
    ENMC_ASSERT(bias.empty() || bias.size() == rows,
                "gemvQuantized: bias size mismatch");
    ENMC_ASSERT(out.size() == rows, "gemvQuantized: output size mismatch");
    const KernelOps &k = ops();
    // The vector int32-lane MAC is exact for any realistic width; fall
    // back to the scalar int64 path for absurdly wide rows.
    const auto rowKernel = (cols > (size_t{1} << 20))
                               ? scalarKernelOps()->gemvQuantRows
                               : k.gemvQuantRows;
    const float *b = bias.empty() ? nullptr : bias.data();
    forEachRowChunk(rows, rows * cols, tune().gemv_row_chunk, workers,
                    [&](size_t r0, size_t r1) {
        rowKernel(w, cols, scales, h, hscale, b, out.data(), r0, r1);
    });
}

} // namespace enmc::tensor::kernels
