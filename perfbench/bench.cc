#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "oracle.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench {

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::optional<std::map<std::string, std::string>>
committedDigests(const Options &options, std::vector<std::string> *notes)
{
    if (options.seed != kGoldenSeed || !options.writeGolden.empty())
        return std::nullopt;
    Golden golden;
    std::string error;
    if (loadGolden(options.goldenDir + "/" + options.workload + ".json",
                   &golden, &error) &&
        golden.seed == options.seed)
        return golden.digests;
    notes->push_back("golden digests unavailable (" + error +
                     "); recomputing");
    return std::nullopt;
}

double
medianSetupSeconds(const std::function<void()> &setup,
                   Calibration *calibration)
{
    std::vector<double> seconds;
    double total = 0.0;
    double loopUs = calibration ? calibration->sample() : 0.0;
    while (seconds.size() < 3 ||
           (seconds.size() < 25 && total < 0.25)) {
        const double t0 = nowUs();
        setup();
        const double s = (nowUs() - t0) / 1e6;
        total += s;
        double speed = 1.0;
        if (calibration) {
            const double afterUs = calibration->sample();
            speed = Calibration::speedOf(loopUs, afterUs);
            loopUs = afterUs;
        }
        seconds.push_back(s * speed);
    }
    return median(seconds);
}

double
calibrationUs()
{
    // Fixed work shaped like the simulator's hot loops: generate and
    // sort a degree-like integer sequence, then scan it.
    std::vector<uint32_t> values(1 << 18);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    const double t0 = nowUs();
    for (auto &v : values) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = static_cast<uint32_t>(x % 100000);
    }
    std::sort(values.begin(), values.end());
    uint64_t sum = 0;
    for (size_t i = 1; i < values.size(); ++i)
        sum += values[i] - values[i - 1];
    const double us = nowUs() - t0;
    return sum == 0 ? us + 1 : us; // keep the scan alive
}

double
Calibration::sample()
{
    // Mean over the copies: one loop per thread, started together.
    std::vector<double> us(threads_);
    std::vector<std::thread> others;
    for (size_t t = 1; t < threads_; ++t)
        others.emplace_back([&us, t] { us[t] = calibrationUs(); });
    us[0] = calibrationUs();
    for (auto &thread : others)
        thread.join();
    double total = 0.0;
    for (double v : us)
        total += v;
    samplesUs_.push_back(total / static_cast<double>(threads_));
    return samplesUs_.back();
}

double
Calibration::speed() const
{
    if (samplesUs_.empty())
        return 1.0;
    return kReferenceUs / median(samplesUs_);
}

std::string
Calibration::describe() const
{
    std::ostringstream out;
    out << "calibration: " << samplesUs_.size() << " loops, median "
        << median(samplesUs_) / 1e3 << " ms, speed " << speed() << " ("
        << threads_ << " thread" << (threads_ == 1 ? "" : "s") << ")";
    return out.str();
}

} // namespace perfbench
