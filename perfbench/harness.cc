#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace perfbench {

using enmc::obs::Json;

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit, const std::string &clock)
{
    e2e_.push_back({name, value, unit, clock});
}

void
Report::layer(const std::string &name, double value, const std::string &unit,
              const std::string &clock)
{
    layer_.push_back({name, value, unit, clock});
}

void
Report::fact(const std::string &key, const std::string &value)
{
    facts_.emplace_back(key, value);
}

void
Report::note(const std::string &line)
{
    notes_.push_back(line);
}

void
Report::completeLayers(const std::vector<Metric> &all)
{
    std::vector<Metric> out = all;
    for (const Metric &m : layer_) {
        auto it = std::find_if(out.begin(), out.end(), [&](const Metric &o) {
            return o.name == m.name;
        });
        if (it == out.end() || it->unit != m.unit) {
            std::fprintf(stderr, "perfbench: unlisted metric %s [%s]\n",
                         m.name.c_str(), m.unit.c_str());
            std::abort();
        }
        *it = m;
    }
    layer_ = std::move(out);
}

void
Report::fail(const std::string &why)
{
    ++failed_;
    // Keep stderr readable when a defect fails every operation.
    if (failed_ <= 20)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

namespace {

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-30s %18.6f %-12s [%s]\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.clock.c_str());
}

Json
metricsJson(const std::vector<Metric> &metrics)
{
    Json out = Json::object();
    for (const Metric &m : metrics) {
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        out.set(m.name, std::move(v));
    }
    return out;
}

} // namespace

void
Report::print(bool trace) const
{
    for (const auto &[key, value] : facts_)
        std::printf("%-22s %s\n", (key + ":").c_str(), value.c_str());
    for (const std::string &n : notes_)
        std::printf("%s\n", n.c_str());
    printMetrics("end-to-end metrics:", e2e_);
    if (trace)
        printMetrics("per-layer metrics (traced run):", layer_);
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));

    Json out = Json::object();
    out.set("correct", failed_ == 0);
    out.set("attempted", attempted_);
    out.set("failed", failed_);
    out.set("metrics", metricsJson(trace ? layer_ : e2e_));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kib = 0.0;
            is >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

namespace {

/** Which span names nest directly inside which (program spans and the
 *  benchmark's own). Spans of unrelated names that merely overlap in
 *  time — concurrent shards on other pool threads — are not children. */
const std::map<std::string, std::set<std::string>> &
childNames()
{
    static const std::map<std::string, std::set<std::string>> m = {
        {"bench.runJob", {"runTiming"}},
        {"bench.replay",
         {"request", "runTiming", "bench.refresh", "batch.prepare",
          "batch.execute"}},
        {"bench.refresh", {"request"}},
        {"bench.forward", {"request"}},
        {"bench.computeBatch", {"request"}},
        {"request", {"screen.project", "slice.sim", "merge"}},
    };
    return m;
}

struct Span
{
    double start;
    double end;
    std::string name;
};

} // namespace

void
collectSpans(SpanMap &into)
{
    enmc::obs::Tracer &tracer = enmc::obs::Tracer::instance();
    const Json events = tracer.eventsJson();
    tracer.clear();
    std::vector<Span> spans;
    for (const Json &e : events.items()) {
        if (e.at("ph").asString() != "X" ||
            static_cast<int>(e.at("pid").asDouble()) !=
                enmc::obs::kWallPid)
            continue;
        const double ts = e.at("ts").asDouble();
        spans.push_back({ts, ts + e.at("dur").asDouble(),
                         e.at("name").asString()});
    }
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        return a.start != b.start ? a.start < b.start : a.end > b.end;
    });

    const auto &children = childNames();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto kids = children.find(s.name);
        // Union of the children's intervals: they are visited in start
        // order, so one running frontier suffices.
        double covered = 0.0, frontier = s.start;
        if (kids != children.end()) {
            for (size_t j = i + 1;
                 j < spans.size() && spans[j].start < s.end; ++j) {
                const Span &c = spans[j];
                if (c.end > s.end || !kids->second.count(c.name))
                    continue;
                const double from = std::max(c.start, frontier);
                if (c.end > from) {
                    covered += c.end - from;
                    frontier = c.end;
                }
            }
        }
        SpanTotals &t = into[s.name];
        ++t.count;
        t.total_ms += (s.end - s.start) / 1e3;
        t.self_ms += (s.end - s.start - covered) / 1e3;
    }
}

StatSnapshot
statSnapshot()
{
    return enmc::obs::StatRegistry::instance().snapshot();
}

uint64_t
counterOf(const StatSnapshot &s, const std::string &group,
          const std::string &name)
{
    const auto it = s.find(group);
    if (it == s.end() || !it->second.hasCounter(name))
        return 0;
    return it->second.counter(name).value();
}

enmc::ScalarStat
scalarOf(const StatSnapshot &s, const std::string &group,
         const std::string &name)
{
    const auto it = s.find(group);
    if (it == s.end() || !it->second.hasScalar(name))
        return enmc::ScalarStat{};
    return it->second.scalar(name);
}

} // namespace perfbench
