/**
 * @file
 * Types shared by the benchmark's workloads: the run options parsed
 * from the command line and the outcome every workload returns.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** The seed whose expected outputs are committed under golden/. */
inline constexpr uint64_t kGoldenSeed = 1;

struct Options
{
    std::string workload;
    uint64_t seed = kGoldenSeed;
    double seconds = 10.0;
    bool trace = false;
    /** serve-mixed open-loop offered rate (requests/s), from BENCHMARK.json. */
    double serveRate = 0.0;
    /** Directory of the committed golden digests. */
    std::string goldenDir = "perfbench/golden";
    /** Write this seed's expected digests here instead of running. */
    std::string writeGolden;
    /** gopim_serve binary the router workload spawns. */
    std::string serveBin;
    /** Directory for the router shards' port files. */
    std::string runDir;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Human-readable lines for stderr (timings with sample counts). */
    std::vector<std::string> notes;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** Peak resident set of this process in MiB. */
double peakRssMb();

/**
 * The committed expected digests (golden/<workload>.json) when this
 * run uses the golden seed; otherwise, or when the file is unusable,
 * nothing (with a note saying why) and the caller recomputes them.
 */
std::optional<std::map<std::string, std::string>>
committedDigests(const Options &options, std::vector<std::string> *notes);


/** Wall time of a fixed calibration loop, in microseconds. */
double calibrationUs();

/**
 * Machine-speed calibration. The host's speed drifts by tens of
 * percent over seconds (other tenants, frequency), which would swamp
 * the changes the benchmark exists to catch. Each run therefore times
 * a fixed loop between its timed operations, while the program is
 * idle, and scales its end-to-end times to the reference speed:
 * scaled time = measured time x speed, scaled rate = measured rate /
 * speed. A timed stretch is scaled by the local speed of the loops
 * just before and after it (speedOf), which follows the drift more
 * closely than the run's median speed(). The raw figures are printed
 * on stderr.
 */
class Calibration
{
  public:
    /** The loop's time on the 4-core x86-64 reference host. */
    static constexpr double kReferenceUs = 25000.0;

    /**
     * `threads` copies of the loop run at once, for a workload that
     * keeps that many cores busy: its speed depends on how the host
     * treats all of them, not one.
     */
    explicit Calibration(size_t threads = 1) : threads_(threads) {}

    /** Time the loop once; keep and return its time in microseconds. */
    double sample();

    /** Speed of a stretch between loops that took `beforeUs`, `afterUs`. */
    static double
    speedOf(double beforeUs, double afterUs)
    {
        return 2.0 * kReferenceUs / (beforeUs + afterUs);
    }

    /** Reference time over the median loop time (> 1 = faster host). */
    double speed() const;

    /** "calibration: N loops, median X ms, speed Y". */
    std::string describe() const;

  private:
    size_t threads_;
    std::vector<double> samplesUs_;
};

/**
 * Run `setup` repeatedly and return the median of its durations in
 * seconds: at least three times, and a cheap set-up up to 25 times or
 * 0.25 s in total, so that its median is steady. With `calibration`,
 * the loop is sampled before the first repetition and after each, and
 * each repetition is scaled by the speed around it; without, it is
 * reported as measured (for a set-up dominated by fixed sleeps).
 */
double medianSetupSeconds(const std::function<void()> &setup,
                          Calibration *calibration);


Outcome runGridWorkload(const Options &options);
Outcome runServeMixed(const Options &options);
Outcome runRouter(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
