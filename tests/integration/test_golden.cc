/**
 * @file
 * Golden regression tests for the paper figures: a fixed-seed,
 * reduced-scale slice of Fig. 11 (quality vs speedup) and Fig. 13
 * (backend speedups over the CPU baseline) is recomputed and compared
 * against checked-in JSON. Any change to the numerical pipeline — kernel
 * dispatch, screener training, timing model — that moves a figure shows
 * up here as a diff against the golden file, not as a silent drift.
 *
 * Regenerate after an *intentional* change with:
 *   ENMC_REGEN_GOLDEN=1 ./tests/test_integration \
 *       --gtest_filter='Golden*'
 * and commit the updated JSON under tests/golden/.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/svd_softmax.h"
#include "common/logging.h"
#include "runtime/backend.h"
#include "screening/pipeline.h"
#include "screening/trainer.h"
#include "tensor/ops.h"
#include "tensor/topk.h"
#include "workloads/registry.h"

#ifndef ENMC_GOLDEN_DIR
#error "ENMC_GOLDEN_DIR must point at tests/golden"
#endif

namespace enmc {
namespace {

using GoldenMap = std::map<std::string, double>;

std::string
goldenPath(const std::string &file)
{
    const char *env = std::getenv("ENMC_GOLDEN_DIR");
    return std::string(env != nullptr ? env : ENMC_GOLDEN_DIR) + "/" +
           file;
}

bool
regenRequested()
{
    const char *env = std::getenv("ENMC_REGEN_GOLDEN");
    return env != nullptr && std::strcmp(env, "1") == 0;
}

/** Flat {"key": number, ...} JSON — all this harness needs. */
GoldenMap
loadGolden(const std::string &path)
{
    GoldenMap out;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return out;
    std::string text;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
        const size_t end = text.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        const std::string key = text.substr(pos + 1, end - pos - 1);
        const size_t colon = text.find(':', end);
        if (colon == std::string::npos)
            break;
        out[key] = std::strtod(text.c_str() + colon + 1, nullptr);
        pos = colon + 1;
    }
    return out;
}

void
writeGolden(const std::string &path, const GoldenMap &values)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << "cannot write " << path;
    std::fprintf(f, "{\n");
    size_t i = 0;
    for (const auto &[key, value] : values)
        std::fprintf(f, "  \"%s\": %.17g%s\n", key.c_str(), value,
                     ++i < values.size() ? "," : "");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

/** Regenerate (and skip) under ENMC_REGEN_GOLDEN=1, else compare. */
void
compareOrRegen(const std::string &file, const GoldenMap &computed)
{
    const std::string path = goldenPath(file);
    if (regenRequested()) {
        writeGolden(path, computed);
        GTEST_SKIP() << "regenerated " << path;
    }

    const GoldenMap golden = loadGolden(path);
    ASSERT_FALSE(golden.empty())
        << path << " missing or empty; regenerate with ENMC_REGEN_GOLDEN=1";
    EXPECT_EQ(golden.size(), computed.size());
    for (const auto &[key, expected] : golden) {
        const auto it = computed.find(key);
        ASSERT_NE(it, computed.end()) << "golden key gone: " << key;
        // %.17g round-trips doubles exactly; the slack only forgives the
        // final-digit wobble of strtod round-tripping, never real drift.
        const double tol =
            1e-12 * std::max(1.0, std::fabs(expected));
        EXPECT_NEAR(it->second, expected, tol) << key;
    }
    for (const auto &[key, value] : computed) {
        (void)value;
        EXPECT_TRUE(golden.count(key)) << "new key not in golden: " << key
                                       << " (regenerate)";
    }
}

/**
 * Fixed-seed reduced slice of Fig. 11: AS and SVD-softmax quality on the
 * first Table 2 workload at functional scale, plus the analytic
 * full-scale speedups the figure pairs them with.
 */
TEST(Golden, Fig11QualitySpeedup)
{
    const workloads::Workload w = workloads::table2Workloads().front();
    workloads::SyntheticModel model(w.functionalConfig());
    Rng rng = model.makeRng(1);
    const auto train = model.sampleHiddenBatch(rng, 96);
    const auto eval = model.sampleHiddenBatch(rng, 24);
    const size_t l_f = model.classifier().categories();
    const size_t d_f = model.classifier().hidden();

    auto quality = [&](const std::function<tensor::Vector(
                           const tensor::Vector &)> &approx,
                       const char *prefix, GoldenMap &out) {
        double top1 = 0.0, dist = 0.0;
        for (const auto &h : eval) {
            const auto ref = model.classifier().logits(h);
            const auto got = approx(h);
            top1 += (tensor::argmax(got) == tensor::argmax(ref));
            const auto p_ref = tensor::softmax(ref);
            const auto p_got = tensor::softmax(got);
            double tv = 0.0;
            for (size_t i = 0; i < p_ref.size(); ++i)
                tv += std::fabs(p_ref[i] - p_got[i]);
            dist += 1.0 - 0.5 * tv;
        }
        out[std::string(prefix) + "_top1"] = top1 / eval.size();
        out[std::string(prefix) + "_dist"] = dist / eval.size();
    };

    GoldenMap golden;

    screening::ScreenerConfig scfg;
    scfg.categories = l_f;
    scfg.hidden = d_f;
    scfg.reduction_scale = 0.25;
    Rng srng(42);
    screening::Screener screener(scfg, srng);
    screening::Trainer trainer(model.classifier(), screener,
                               screening::TrainerConfig{});
    trainer.train(train, {});
    screener.freezeQuantized();

    for (const double frac : {0.01, 0.05}) {
        const size_t m =
            std::max<size_t>(1, static_cast<size_t>(frac * l_f));
        screener.setSelection(screening::SelectionMode::TopM, m, 0.0f);
        screening::Pipeline pipe(model.classifier(), screener);
        const std::string prefix =
            "as_m" + std::to_string(static_cast<int>(frac * 1000));
        quality([&](const tensor::Vector &h) { return pipe.infer(h).logits; },
                prefix.c_str(), golden);
        // Fig. 11's x axis: analytic full-scale speedup at this fraction.
        const double l = static_cast<double>(w.categories);
        const double d = static_cast<double>(w.hidden);
        const double k = d / 4.0;
        golden[prefix + "_speedup"] =
            (l * d * 4.0) /
            (l * k * 0.5 + l * 4.0 + k * d * 0.25 + frac * l * d * 4.0);
    }

    baselines::SvdSoftmaxConfig vcfg;
    vcfg.window = std::max<size_t>(1, d_f / 8);
    vcfg.top_n = std::max<size_t>(1, l_f / 40);
    baselines::SvdSoftmax svd(model.classifier(), vcfg);
    quality([&](const tensor::Vector &h) { return svd.infer(h).logits; },
            "svd_w8", golden);

    compareOrRegen("fig11_golden.json", golden);
}

/**
 * Fixed-seed slice of Fig. 13: backend speedups over the CPU
 * full-classification baseline for the first two Table 2 workloads at
 * batch 1 and 4, resolved through the backend registry exactly as the
 * bench does.
 */
TEST(Golden, Fig13BackendSpeedups)
{
    const auto table2 = workloads::table2Workloads();
    const auto cpu_full = runtime::createBackend("cpu-full");
    const std::vector<std::string> names = {"cpu", "nda", "chameleon",
                                            "tensordimm", "enmc"};

    GoldenMap golden;
    for (size_t wi = 0; wi < 2; ++wi) {
        const workloads::Workload &w = table2[wi];
        for (const uint64_t batch : {1ull, 4ull}) {
            runtime::JobSpec spec;
            spec.categories = w.categories;
            spec.hidden = w.hidden;
            spec.reduced = std::max<uint64_t>(1, w.hidden / 4);
            spec.batch = batch;
            spec.candidates = w.candidates;
            spec.sigmoid =
                w.normalization == nn::Normalization::Sigmoid;
            runtime::JobSpec enmc_spec = spec;
            enmc_spec.candidates = w.nmpCandidates();

            const double base = cpu_full->runJob(spec).seconds;
            for (const auto &name : names) {
                const auto backend = runtime::createBackend(name);
                const double t =
                    backend->runJob(name == "enmc" ? enmc_spec : spec)
                        .seconds;
                golden[std::string("w") + std::to_string(wi) + "_b" +
                       std::to_string(batch) + "_" + name] = base / t;
            }
        }
    }

    compareOrRegen("fig13_golden.json", golden);
}

} // namespace
} // namespace enmc
