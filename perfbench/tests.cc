/**
 * @file
 * The benchmark's own tests: the percentile rule, the output oracle,
 * generator determinism and the open-loop schedule. Run with
 * `python3 perfbench/run.py --selftest`; exits non-zero on failure.
 */

#include <bit>
#include <chrono>
#include <cmath>
#include <iostream>
#include <set>
#include <thread>

#include "core/result.hh"
#include "oracle.hh"
#include "serving.hh"
#include "stats.hh"
#include "streams.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            ++failures;                                                 \
            std::cerr << __FILE__ << ":" << __LINE__                    \
                      << ": CHECK failed: " #cond "\n";                 \
        }                                                               \
    } while (0)

std::vector<double>
ramp(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // unsorted on purpose
    return v;
}

void
percentileRule()
{
    // p99 needs ten samples above its rank: 1000 samples, not 999.
    CHECK(!percentile(ramp(999), 99.0).has_value());
    CHECK(percentile(ramp(1000), 99.0).has_value());
    CHECK(*percentile(ramp(1000), 99.0) == 990.0);
    CHECK(!percentile(ramp(199), 95.0).has_value());
    CHECK(*percentile(ramp(200), 95.0) == 190.0);
    CHECK(highestReportablePercentile(999) == 95.0);
    CHECK(highestReportablePercentile(1000) == 99.0);
    CHECK(highestReportablePercentile(15) == 0.0);
    // One stalled window cannot move a windowed percentile.
    std::vector<double> stalled(8000, 1.0);
    for (size_t i = 0; i < 1000; ++i)
        stalled[i] = 100.0;
    CHECK(windowedPercentile(stalled, 95.0) == 1.0);
    CHECK(*percentile(stalled, 95.0) == 100.0);
    CHECK(windowedPercentile(ramp(15), 95.0) == 15.0);
    // The tail mean needs the same ten samples beyond its rank.
    CHECK(!tailMean(ramp(199), 95.0).has_value());
    CHECK(*tailMean(ramp(200), 95.0) == 195.5);
    CHECK(windowedTailMean(stalled, 95.0) == 1.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

gopim::core::RunResult
sampleCell()
{
    gopim::core::RunResult run;
    run.systemName = "GoPIM";
    run.datasetName = "ddi";
    run.makespanNs = 14525.256468810187;
    run.energyPj = 1.5e9;
    run.eventsProcessed = 4096;
    run.idleFraction = {0.1, 0.25, 0.5};
    run.blockedNs = {0.0, 12.5, 3.0};
    return run;
}

double
flipLowBit(double v)
{
    auto bits = std::bit_cast<uint64_t>(v);
    return std::bit_cast<double>(bits ^ 1u);
}

void
oracleCatchesFlippedBits()
{
    const auto base = sampleCell();
    const std::string golden = cellDigest(base);
    CHECK(cellMismatch(golden, cellDigest(base)).empty());

    auto run = base;
    run.makespanNs = flipLowBit(run.makespanNs);
    CHECK(cellMismatch(golden, cellDigest(run)) == "makespanNs");
    run = base;
    run.energyPj = flipLowBit(run.energyPj);
    CHECK(cellMismatch(golden, cellDigest(run)) == "energyPj");
    run = base;
    run.eventsProcessed ^= 1;
    CHECK(cellMismatch(golden, cellDigest(run)) == "eventsProcessed");
    run = base;
    run.idleFraction[2] = flipLowBit(run.idleFraction[2]);
    CHECK(cellMismatch(golden, cellDigest(run)) == "idleFraction");
    run = base;
    run.blockedNs[1] = flipLowBit(run.blockedNs[1]);
    CHECK(cellMismatch(golden, cellDigest(run)) == "blockedNs");

    // Responses: the id is factored out, every other bit counts.
    const std::string response =
        "{\"type\":\"result\",\"id\":\"b17\",\"key\":\"37d54e8f3e8b95dd\","
        "\"result\":{\"makespan_ns\":14525.256468810187}}";
    const std::string expected = responseDigest(
        normalizeResponse(response, "b17"), kIdPlaceholder);
    CHECK(responseDigest(response, "b17") == expected);
    const std::string other = "{\"type\":\"result\",\"id\":\"o3\"," +
                              response.substr(response.find("\"key\""));
    CHECK(responseDigest(other, "o3") == expected);
    for (size_t at : {size_t{2}, response.size() / 2, response.size() - 3}) {
        std::string flipped = response;
        flipped[at] = static_cast<char>(flipped[at] ^ 1);
        CHECK(responseDigest(flipped, "b17") != expected);
    }
}

void
generatorsAreSeeded()
{
    CHECK(gridSweepSeed(7, 3) == gridSweepSeed(7, 3));
    CHECK(gridSweepSeed(7, 3) != gridSweepSeed(8, 3));
    // No sweep of a run repeats another's seed.
    std::set<uint64_t> sweepSeeds;
    for (size_t k = 0; k < 1000; ++k)
        sweepSeeds.insert(gridSweepSeed(7, k));
    CHECK(sweepSeeds.size() == 1000);

    auto lines = [](uint64_t seed) {
        const auto pool = serveMixedTemplates(seed);
        std::vector<std::string> out;
        size_t i = 0;
        for (size_t t : serveMixedOrder(pool, seed, 1, 500))
            out.push_back(requestLine(pool[t], "m" + std::to_string(i++)));
        return out;
    };
    CHECK(lines(3) == lines(3));
    CHECK(lines(3) != lines(4));

    const auto pool = serveMixedTemplates(3);
    size_t invalid = 0;
    const auto order = serveMixedOrder(pool, 3, 1, 2000);
    for (size_t t : order)
        invalid += !pool[t].expectCode.empty();
    CHECK(invalid > 0 && invalid < order.size() / 20);

    auto routerLines = [](uint64_t seed) {
        const auto pool = routerTemplates(seed);
        std::vector<std::string> out;
        for (size_t t : routerOrder(pool.size(), seed, 200))
            out.push_back(requestLine(pool[t], "r"));
        return out;
    };
    CHECK(routerTemplates(5).size() == 37);
    CHECK(routerLines(5) == routerLines(5));
    CHECK(routerLines(5) != routerLines(6));
}

/** A fake service answering each request after a fixed delay. */
class FakeTarget final : public LoadTarget
{
  public:
    FakeTarget(double serviceUs, bool blockingSend)
        : serviceUs_(serviceUs), blockingSend_(blockingSend)
    {
    }

    void
    send(size_t index) override
    {
        if (blockingSend_)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(serviceUs_));
        pending_.emplace_back(index, nowUs() + serviceUs_);
    }

    void
    poll(std::vector<std::pair<size_t, double>> *done) override
    {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second <= nowUs()) {
                done->emplace_back(it->first, nowUs());
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }

  private:
    double serviceUs_;
    bool blockingSend_;
    std::vector<std::pair<size_t, double>> pending_;
};

void
openLoopIgnoresServiceSpeed()
{
    const auto schedule = openLoopSchedule(40, 2000.0);
    CHECK(schedule == openLoopSchedule(40, 2000.0));
    CHECK(schedule[1] - schedule[0] == 500.0);

    FakeTarget fast(50.0, false);
    FakeTarget slow(3000.0, true); // every send stalls 3 ms
    const auto a = driveLoad(schedule, 0.0, fast);
    const auto b = driveLoad(schedule, 0.0, slow);
    CHECK(a.size() == schedule.size() && b.size() == schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
        CHECK(std::abs(a[i].dueUs - a[0].dueUs - schedule[i]) < 1e-6);
        CHECK(std::abs(b[i].dueUs - b[0].dueUs - schedule[i]) < 1e-6);
        CHECK(b[i].doneUs >= b[i].sentUs);
    }
    // A stalled send charges the requests behind it: their latency
    // counts from the due time, so it grows along the backlog.
    CHECK(b.back().latencyMs() > b.front().latencyMs() + 50.0);
    CHECK(b.back().lagMs() > 50.0);
    CHECK(a.back().lagMs() < 5.0);

    // A deadline cuts a backlog: only sent requests are returned, each
    // due when sent, so its latency counts from its own send.
    FakeTarget cut(10.0, true);
    const auto c = driveBacklog(100000, 2000.0, cut);
    CHECK(!c.empty() && c.size() < 100000);
    for (const auto &sample : c)
        CHECK(sample.dueUs == sample.sentUs && sample.doneUs >= sample.sentUs);
}

void
spansGiveSelfTime()
{
    Tracer tracer;
    {
        ScopedSpan outer(&tracer, "core.plan", 1);
        ScopedSpan inner(&tracer, "alloc.allocate", 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto totals = tracer.totals();
    CHECK(totals.at("core.plan").calls == 1);
    CHECK(totals.at("core.plan").selfUs <
          totals.at("alloc.allocate").selfUs);
    CHECK(tracer.coveredUs() >= totals.at("alloc.allocate").totalUs);
}

} // namespace

int
main()
{
    percentileRule();
    oracleCatchesFlippedBits();
    generatorsAreSeeded();
    openLoopIgnoresServiceSpeed();
    spansGiveSelfTime();
    if (failures == 0)
        std::cout << "perfbench tests: all passed\n";
    return failures == 0 ? 0 : 1;
}
