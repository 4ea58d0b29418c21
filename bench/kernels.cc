/**
 * @file
 * google-benchmark microbenchmarks for the numeric kernels the library is
 * built on: full GEMV, quantized GEMV, sparse projection, top-k selection
 * and the SFU-style Taylor softmax. These are the host-side costs of the
 * algorithm-level experiments (Fig. 11/12).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/projection.h"
#include "tensor/quantize.h"
#include "tensor/topk.h"
#include "tensor/tune.h"

using namespace enmc;
using namespace enmc::tensor;

namespace {

Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal());
    return m;
}

Vector
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Vector v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

void
BM_GemvFp32(benchmark::State &state)
{
    const size_t l = state.range(0);
    const size_t d = 128;
    const Matrix w = randomMatrix(l, d, 1);
    const Vector h = randomVector(d, 2);
    Vector z(l);
    for (auto _ : state) {
        kernels::gemvInto(w, h, {}, z, 1);
        benchmark::DoNotOptimize(z.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * l * d * 4);
}
BENCHMARK(BM_GemvFp32)->Arg(1024)->Arg(8192)->Arg(65536);

void
BM_GemvInt4(benchmark::State &state)
{
    const size_t l = state.range(0);
    const size_t d = 128;
    const QuantizedMatrix wq = quantize(randomMatrix(l, d, 3),
                                        QuantBits::Int4);
    const QuantizedVector hq = quantize(randomVector(d, 4),
                                        QuantBits::Int4);
    Vector z(l);
    for (auto _ : state) {
        gemvQuantizedRows(wq, hq.values, hq.scale, {}, z, 0, l);
        benchmark::DoNotOptimize(z.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * l * d);
}
BENCHMARK(BM_GemvInt4)->Arg(1024)->Arg(8192)->Arg(65536);

void
BM_SparseProjection(benchmark::State &state)
{
    const size_t d = state.range(0);
    const size_t k = d / 4;
    Rng rng(5);
    const SparseProjection p(k, d, rng);
    const Vector h = randomVector(d, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.apply(h));
    state.SetItemsProcessed(int64_t(state.iterations()) * p.nonZeros());
}
BENCHMARK(BM_SparseProjection)->Arg(512)->Arg(1024)->Arg(1536);

void
BM_TopK(benchmark::State &state)
{
    const size_t l = state.range(0);
    const Vector z = randomVector(l, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(topkIndices(z, 64));
    state.SetItemsProcessed(int64_t(state.iterations()) * l);
}
BENCHMARK(BM_TopK)->Arg(8192)->Arg(65536)->Arg(262144);

void
BM_MergeTopK(benchmark::State &state)
{
    // The cluster gather path: merge per-shard top-64 lists into the
    // global top-64 (shards hold disjoint, offset index ranges).
    const size_t shards = state.range(0);
    constexpr size_t kPerShard = 64;
    std::vector<std::vector<Scored>> lists(shards);
    for (size_t s = 0; s < shards; ++s) {
        const Vector z = randomVector(8192, 9 + s);
        lists[s] = topkScored(z, kPerShard,
                              static_cast<uint32_t>(s * 8192));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(mergeTopK(lists, kPerShard));
    state.SetItemsProcessed(int64_t(state.iterations()) * shards *
                            kPerShard);
}
BENCHMARK(BM_MergeTopK)->Arg(2)->Arg(4)->Arg(16);

void
BM_ThresholdFilter(benchmark::State &state)
{
    const size_t l = state.range(0);
    const Vector z = randomVector(l, 8);
    const float cut = thresholdForCount(z, 64);
    for (auto _ : state)
        benchmark::DoNotOptimize(thresholdIndices(z, cut));
    state.SetItemsProcessed(int64_t(state.iterations()) * l);
}
BENCHMARK(BM_ThresholdFilter)->Arg(8192)->Arg(65536)->Arg(262144);

void
BM_SoftmaxExact(benchmark::State &state)
{
    const Vector z = randomVector(state.range(0), 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(softmax(z));
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SoftmaxExact)->Arg(8192)->Arg(65536);

void
BM_SoftmaxTaylor(benchmark::State &state)
{
    const Vector z = randomVector(state.range(0), 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(softmaxTaylor(z));
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SoftmaxTaylor)->Arg(8192)->Arg(65536);

void
BM_Quantize(benchmark::State &state)
{
    const Matrix w = randomMatrix(state.range(0), 128, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(quantize(w, QuantBits::Int4));
    state.SetItemsProcessed(int64_t(state.iterations()) * w.size());
}
BENCHMARK(BM_Quantize)->Arg(1024)->Arg(16384);

// ---------------------------------------------------------------------
// Per-dispatch-target variants, registered for every target this CPU
// supports so one run records the scalar/avx2/avx512 comparison of every
// kernel-table entry (the speedup numbers archived in BENCH_kernels.json,
// from which each AVX-512 override is kept or dropped).

void
DotAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const Vector a = randomVector(state.range(0), 12);
    const Vector b = randomVector(state.range(0), 13);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernels::dot(a, b));
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void
AxpyAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const Vector x = randomVector(state.range(0), 14);
    Vector y = randomVector(state.range(0), 15);
    for (auto _ : state) {
        kernels::axpy(1e-3f, x, y);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void
AbsMaxAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const Vector v = randomVector(state.range(0), 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(kernels::absMax(v));
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void
GemvFp32AtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const size_t l = state.range(0);
    const size_t d = 128;
    const Matrix w = randomMatrix(l, d, 1);
    const Vector h = randomVector(d, 2);
    Vector z(l);
    for (auto _ : state) {
        kernels::gemvInto(w, h, {}, z, 1);
        benchmark::DoNotOptimize(z.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * l * d * 4);
}

void
GemvInt4AtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const size_t l = state.range(0);
    const size_t d = 128;
    const QuantizedMatrix wq = quantize(randomMatrix(l, d, 3),
                                        QuantBits::Int4);
    const QuantizedVector hq = quantize(randomVector(d, 4),
                                        QuantBits::Int4);
    Vector z(l);
    for (auto _ : state) {
        gemvQuantizedRows(wq, hq.values, hq.scale, {}, z, 0, l);
        benchmark::DoNotOptimize(z.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * l * d);
}

void
GemvBatchAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const size_t nq = state.range(0);
    const size_t l = 65536;
    const size_t d = 128;
    const Matrix w = randomMatrix(l, d, 1);
    std::vector<Vector> hs;
    for (size_t q = 0; q < nq; ++q)
        hs.push_back(randomVector(d, 20 + q));
    for (auto _ : state)
        benchmark::DoNotOptimize(gemvBatch(w, hs));
    // Per-item effective bandwidth: the batch reads W once for nq items.
    state.SetBytesProcessed(int64_t(state.iterations()) * nq * l * d * 4);
}

void
SparseProjectionAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const size_t d = state.range(0);
    Rng rng(5);
    const SparseProjection p(d / 4, d, rng);
    const Vector h = randomVector(d, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.apply(h));
    state.SetItemsProcessed(int64_t(state.iterations()) * p.nonZeros());
}

void
QuantizeAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const Matrix w = randomMatrix(state.range(0), 128, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(quantize(w, QuantBits::Int4));
    state.SetItemsProcessed(int64_t(state.iterations()) * w.size());
}

/** The per-request quantization: one reduced-dimension feature vector
 *  (absMax + quantizeSpan), as serving runs it once per item. */
void
QuantizeVectorAtTarget(benchmark::State &state, kernels::Target t)
{
    kernels::setActiveTarget(t);
    const Vector y = randomVector(state.range(0), 17);
    for (auto _ : state)
        benchmark::DoNotOptimize(quantize(y, QuantBits::Int4));
    state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}

void
BM_GemvFp32Parallel(benchmark::State &state)
{
    const size_t workers = state.range(0);
    const size_t l = 65536;
    const size_t d = 128;
    const Matrix w = randomMatrix(l, d, 1);
    const Vector h = randomVector(d, 2);
    Vector z(l);
    for (auto _ : state) {
        kernels::gemvInto(w, h, {}, z, workers);
        benchmark::DoNotOptimize(z.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * l * d * 4);
}
BENCHMARK(BM_GemvFp32Parallel)->Arg(1)->Arg(2)->Arg(4);

void
registerTargetVariants()
{
    for (kernels::Target t : kernels::availableTargets()) {
        const std::string tn = kernels::targetName(t);
        auto name = [&tn](const char *base) {
            return std::string(base) + "<" + tn + ">";
        };
        benchmark::RegisterBenchmark(name("BM_Dot").c_str(), DotAtTarget, t)
            ->Arg(128)->Arg(1024);
        benchmark::RegisterBenchmark(name("BM_Axpy").c_str(), AxpyAtTarget,
                                     t)
            ->Arg(128)->Arg(1024);
        benchmark::RegisterBenchmark(name("BM_AbsMax").c_str(),
                                     AbsMaxAtTarget, t)
            ->Arg(128)->Arg(1024);
        benchmark::RegisterBenchmark(name("BM_GemvFp32").c_str(),
                                     GemvFp32AtTarget, t)
            ->Arg(1024)->Arg(8192)->Arg(65536);
        benchmark::RegisterBenchmark(name("BM_GemvInt4").c_str(),
                                     GemvInt4AtTarget, t)
            ->Arg(1024)->Arg(8192)->Arg(65536);
        benchmark::RegisterBenchmark(name("BM_GemvBatch").c_str(),
                                     GemvBatchAtTarget, t)
            ->Arg(1)->Arg(4)->Arg(8);
        benchmark::RegisterBenchmark(name("BM_SparseProjection").c_str(),
                                     SparseProjectionAtTarget, t)
            ->Arg(1024);
        benchmark::RegisterBenchmark(name("BM_Quantize").c_str(),
                                     QuantizeAtTarget, t)
            ->Arg(16384);
        benchmark::RegisterBenchmark(name("BM_QuantizeVector").c_str(),
                                     QuantizeVectorAtTarget, t)
            ->Arg(128)->Arg(512);
    }
}

// ---------------------------------------------------------------------
// --check: the dispatch acceptance gate. The configured dispatch
// (ENMC_TUNE_JSON + its kernel pin, or plain cpuid best when no tune
// file is set) must not lose to untuned AVX2 defaults on the headline
// kernels: FP32 and INT4 GEMV, and the 8-query batched GEMV. Each kernel
// is timed under both dispatches in alternation on the same buffers, so
// host-speed drift and memory placement hit both sides alike; the gate
// compares min-of-N, and a small tolerance absorbs scheduler noise on
// shared CI.

/** A dispatch configuration: kernel target plus tunables. */
struct Dispatch
{
    kernels::Target target;
    kernels::TuneParams tune;

    void install() const
    {
        kernels::setActiveTarget(target);
        kernels::setTuneParams(tune);
    }
};

/** Wall-clock seconds of one call of `fn`. */
double
secondsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0).count();
}

int
runCheck()
{
    const auto avail = kernels::availableTargets();
    if (std::find(avail.begin(), avail.end(), kernels::Target::Avx2) ==
        avail.end()) {
        std::printf("check: SKIP (no AVX2 tier on this CPU/build)\n");
        return 0;
    }
    // Configured state as installed by loadFromEnv() (or startup
    // defaults), against untuned AVX2.
    const Dispatch configured{kernels::activeTarget(), kernels::tune()};
    const Dispatch untuned{kernels::Target::Avx2, kernels::TuneParams{}};

    const size_t l = 65536, d = 128, nq = 8;
    const Matrix w = randomMatrix(l, d, 1);
    const Vector h = randomVector(d, 2);
    const QuantizedMatrix wq = quantize(randomMatrix(l, d, 3),
                                        QuantBits::Int4);
    const QuantizedVector hq = quantize(randomVector(d, 4),
                                        QuantBits::Int4);
    std::vector<Vector> hs(nq), zs(nq, Vector(l));
    std::vector<const float *> hp(nq);
    std::vector<float *> zp(nq);
    for (size_t q = 0; q < nq; ++q) {
        hs[q] = randomVector(d, 20 + q);
        hp[q] = hs[q].data();
        zp[q] = zs[q].data();
    }
    const struct { const char *name; std::function<void()> run; } gated[] = {
        {"GemvFp32/65536", [&] {
             kernels::gemvInto(w, h, {}, zs[0], 1);
             benchmark::DoNotOptimize(zp[0]);
         }},
        {"GemvInt4/65536", [&] {
             gemvQuantizedRows(wq, hq.values, hq.scale, {}, zs[0], 0, l);
             benchmark::DoNotOptimize(zp[0]);
         }},
        {"GemvBatch/8", [&] {
             kernels::gemvBatchInto(w, hp.data(), zp.data(), nq, {}, 1);
             benchmark::DoNotOptimize(zp[0]);
         }},
    };

    constexpr size_t kIters = 40;
    const double kTol = 1.05; // scheduler noise on min-of-N
    bool ok = true;
    std::printf("check: configured (%s) vs untuned avx2, min of %zu runs\n",
                kernels::targetName(configured.target), kIters);
    for (const auto &g : gated) {
        for (const Dispatch *dsp : {&untuned, &configured}) {
            dsp->install();
            g.run(); // warm caches and the page map
        }
        double base = 1e30, opt = 1e30;
        for (size_t i = 0; i < kIters; ++i) {
            // Alternate which side runs first so neither always inherits
            // the other's cache state.
            const bool base_first = i % 2 == 0;
            for (int side = 0; side < 2; ++side) {
                const bool is_base = (side == 0) == base_first;
                (is_base ? untuned : configured).install();
                double &best = is_base ? base : opt;
                best = std::min(best, secondsOf(g.run));
            }
        }
        const bool pass = opt <= base * kTol;
        std::printf("check: %-16s untuned %8.1f us  tuned %8.1f us  "
                    "(%.2fx) %s\n",
                    g.name, 1e6 * base, 1e6 * opt, base / opt,
                    pass ? "ok" : "REGRESSION");
        ok = ok && pass;
    }
    configured.install();
    std::printf("check: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    tune::loadFromEnv();
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--check") {
            check = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    if (check)
        return runCheck();
    registerTargetVariants();
    // The stock library_build_type context field reflects how the
    // google-benchmark *library* was compiled (the distro package says
    // "debug"); record how the kernels under test were compiled so
    // tools/bench_to_json.sh can refuse debug-build archives.
#ifdef NDEBUG
    benchmark::AddCustomContext("enmc_build_type", "release");
#else
    benchmark::AddCustomContext("enmc_build_type", "debug");
#endif
    benchmark::AddCustomContext("enmc_microarch",
                                kernels::microarchKey());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
