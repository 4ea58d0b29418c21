/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.h"

namespace enmc {
namespace {

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, TracksMoments)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.sample(1.0);
    s.sample(3.0);
    s.sample(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(ScalarStat, BulkSampleEqualsRepeatedSamples)
{
    // Integer values with integer sums below 2^53 add exactly, so n
    // samples at once must equal n single samples bit for bit.
    ScalarStat bulk;
    ScalarStat single;
    const std::pair<double, uint64_t> runs[] = {
        {7.0, 3}, {0.0, 5}, {64.0, 1000}, {3.0, 0}, {12.0, 1}, {1.0, 77}};
    for (const auto &[v, n] : runs) {
        bulk.sample(v, n);
        for (uint64_t i = 0; i < n; ++i)
            single.sample(v);
        EXPECT_EQ(bulk.count(), single.count());
        EXPECT_EQ(bulk.sum(), single.sum());
        EXPECT_EQ(bulk.min(), single.min());
        EXPECT_EQ(bulk.max(), single.max());
    }
    EXPECT_EQ(bulk.count(), 1086u);
    EXPECT_EQ(bulk.min(), 0.0);
    EXPECT_EQ(bulk.max(), 64.0);
}

TEST(ScalarStat, BulkSampleOfZeroLeavesAnEmptyStatEmpty)
{
    ScalarStat s;
    s.sample(9.0, 0);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    s.sample(-2.0, 4);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_EQ(s.sum(), -8.0);
    EXPECT_EQ(s.min(), -2.0);
    EXPECT_EQ(s.max(), -2.0);
}

TEST(ScalarStat, SingleNegativeSample)
{
    ScalarStat s;
    s.sample(-5.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), -5.0);
}

TEST(Histogram, BinsAndBounds)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(0.5);   // bin 0
    h.sample(2.0);   // bin 1
    h.sample(9.99);  // bin 4
    h.sample(-1.0);  // underflow
    h.sample(10.0);  // overflow (hi is exclusive)
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bin(0), 1u);
    EXPECT_EQ(h.bin(1), 1u);
    EXPECT_EQ(h.bin(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.binLo(1), 2.0);
    EXPECT_DOUBLE_EQ(h.binHi(1), 4.0);
}

TEST(Histogram, Reset)
{
    Histogram h(0.0, 1.0, 2);
    h.sample(0.3);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bin(0), 0u);
}

TEST(Histogram, LastBinHiIsExactlyHi)
{
    // binHi(numBins()-1) must return hi exactly — not lo + n*width, which
    // floating point can place one ulp off.
    Histogram h(0.0, 0.3, 3); // width 0.1 is not exact in binary
    EXPECT_EQ(h.binHi(h.numBins() - 1), 0.3);
    Histogram h2(1.0, 256.0, 7);
    EXPECT_EQ(h2.binHi(h2.numBins() - 1), 256.0);
}

TEST(Histogram, ExactHiLandsInOverflow)
{
    // The range is half-open: [lo, hi). v == hi is out of range.
    Histogram h(0.0, 10.0, 5);
    h.sample(10.0);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bin(4), 0u);
}

TEST(Histogram, BoundarySamplesRespectBinEdges)
{
    // (v - lo) / width on an exact bin edge can round to either side;
    // the selected bin must still satisfy binLo(i) <= v < binHi(i).
    // 0.1 * k edges are the classic trap (none are exact in binary).
    Histogram h(0.0, 1.0, 10);
    for (int k = 0; k < 10; ++k) {
        const double v = k * 0.1;
        Histogram probe(0.0, 1.0, 10);
        probe.sample(v);
        // find the bin it landed in
        size_t idx = probe.numBins();
        for (size_t i = 0; i < probe.numBins(); ++i) {
            if (probe.bin(i) == 1) {
                idx = i;
                break;
            }
        }
        ASSERT_LT(idx, probe.numBins()) << "v=" << v << " not binned";
        EXPECT_LE(probe.binLo(idx), v) << "v=" << v;
        EXPECT_LT(v, probe.binHi(idx)) << "v=" << v;
    }
    // A negative-lo range exercises edges on both sides of zero.
    for (int k = -5; k <= 4; ++k) {
        const double v = k * 0.3;
        Histogram probe(-1.5, 1.5, 10);
        probe.sample(v);
        size_t idx = probe.numBins();
        for (size_t i = 0; i < probe.numBins(); ++i) {
            if (probe.bin(i) == 1) {
                idx = i;
                break;
            }
        }
        ASSERT_LT(idx, probe.numBins()) << "v=" << v << " not binned";
        EXPECT_LE(probe.binLo(idx), v) << "v=" << v;
        EXPECT_LT(v, probe.binHi(idx)) << "v=" << v;
    }
}

TEST(Histogram, MergeAddsBinwise)
{
    Histogram a(0.0, 10.0, 5);
    Histogram b(0.0, 10.0, 5);
    a.sample(1.0);
    b.sample(1.5);
    b.sample(9.0);
    b.sample(-2.0);
    b.sample(11.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.bin(0), 2u);
    EXPECT_EQ(a.bin(4), 1u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
}

TEST(StatGroup, RegisterAndLookup)
{
    StatGroup g("unit");
    Counter &c = g.addCounter("events", "things that happened");
    ++c;
    ++c;
    EXPECT_EQ(g.counter("events").value(), 2u);
    EXPECT_TRUE(g.hasCounter("events"));
    EXPECT_FALSE(g.hasCounter("missing"));
}

TEST(StatGroupDeathTest, DuplicateCounterRegistrationPanics)
{
    // Silent dedupe used to hand the second caller the first stat (and
    // drop its description) — two components aggregating into one counter
    // without anyone noticing. Now it's an assertion failure.
    StatGroup g("unit");
    g.addCounter("x", "first");
    EXPECT_DEATH(g.addCounter("x", "second"), "duplicate");
}

TEST(StatGroupDeathTest, DuplicateScalarRegistrationPanics)
{
    StatGroup g("unit");
    g.addScalar("s", "first");
    EXPECT_DEATH(g.addScalar("s", "second"), "duplicate");
}

TEST(StatGroupDeathTest, DuplicateHistogramRegistrationPanics)
{
    StatGroup g("unit");
    g.addHistogram("h", "first", 0.0, 1.0, 4);
    EXPECT_DEATH(g.addHistogram("h", "second", 0.0, 1.0, 4), "duplicate");
}

TEST(StatGroup, DumpFormat)
{
    StatGroup g("mem");
    ++g.addCounter("reads", "read count");
    g.addScalar("lat", "latency").sample(7.0);
    std::ostringstream oss;
    g.dump(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("mem.reads"), std::string::npos);
    EXPECT_NE(out.find("read count"), std::string::npos);
    EXPECT_NE(out.find("mem.lat"), std::string::npos);
}

TEST(StatGroup, ResetClearsAll)
{
    StatGroup g("g");
    ++g.addCounter("c", "");
    g.addScalar("s", "").sample(1.0);
    g.reset();
    EXPECT_EQ(g.counter("c").value(), 0u);
    EXPECT_EQ(g.scalar("s").count(), 0u);
}

TEST(StatGroupDeathTest, UnknownCounterPanics)
{
    StatGroup g("g");
    EXPECT_DEATH((void)g.counter("nope"), "unknown counter");
}

TEST(StatGroup, HistogramRegistrationAndDump)
{
    StatGroup g("mem");
    Histogram &h = g.addHistogram("lat", "latency dist", 0.0, 8.0, 4);
    h.sample(1.0);
    h.sample(5.0);
    EXPECT_TRUE(g.hasHistogram("lat"));
    EXPECT_EQ(g.histogram("lat").total(), 2u);
    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("mem.lat"), std::string::npos);
}

TEST(StatGroup, MergeFromAccumulatesAndCreates)
{
    StatGroup a("g");
    StatGroup b("g");
    a.addCounter("c", "") += 2;
    b.addCounter("c", "") += 3;
    b.addScalar("s", "only in b").sample(4.0);
    b.addHistogram("h", "", 0.0, 1.0, 2).sample(0.25);
    a.mergeFrom(b);
    EXPECT_EQ(a.counter("c").value(), 5u);
    EXPECT_EQ(a.scalar("s").count(), 1u);
    EXPECT_EQ(a.histogram("h").bin(0), 1u);
}

} // namespace
} // namespace enmc
