/**
 * @file
 * The fig13 grid workloads: figure13Systems() over six OGB datasets,
 * one ComparisonHarness::runGrid call per cell so every cell has its
 * own latency sample.
 *
 *   grid-cold        closed-form engine, a fresh harness per sweep:
 *                    nothing is memoized, planning dominates;
 *   grid-warm-event  event engine with write retries, one shared
 *                    harness filled during set-up: every plan is a
 *                    memo hit and the event engine does the work.
 *
 * Every sweep runs on a fresh sim seed (gridSweepSeed), so nothing
 * keyed on the seed can carry over from one sweep to the next.
 *
 * The traced run times the same cells through the layers' public
 * functions (profile build, mapping artifacts, stage costs, the
 * allocator, buildPlan, executePlan, JSON reporting) instead of
 * through runGrid, which cannot be timed from outside.
 */

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/hash.hh"
#include "core/accelerator.hh"
#include "core/harness.hh"
#include "core/report.hh"
#include "core/systems.hh"
#include "layers.hh"
#include "gcn/time_model.hh"
#include "obs/metrics.hh"
#include "oracle.hh"
#include "stats.hh"
#include "streams.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace gopim;

const std::vector<std::string> kGridDatasets = {
    "ddi", "collab", "proteins", "arxiv", "ppa", "products"};

/**
 * Timed sweeps of the golden seed whose cells are committed under
 * golden/ (sweeps 1..kGoldenSweeps; sweep 0 is the set-up sweep).
 */
constexpr size_t kGoldenSweeps = 3;

struct GridConfig
{
    bool warm = false;
    sim::SimContext ctx;
};

GridConfig
gridConfig(const std::string &workload)
{
    GridConfig config;
    if (workload == "grid-warm-event") {
        config.warm = true;
        config.ctx.engine = sim::EngineKind::EventDriven;
        // A non-zero retry probability makes every schedule depend on
        // the seed, so the timeline memo cannot serve it.
        config.ctx.event.writeRetryProb = 0.05;
        config.ctx.event.writeFraction = 0.3;
    }
    return config;
}

std::string
cellKey(size_t sweep, const std::string &dataset, const std::string &system)
{
    return std::to_string(sweep) + "/" + dataset + "/" + system;
}

/** One sweep over the grid, cells in dataset-major order. */
struct Sweep
{
    /** Sweep number; its sim seed is gridSweepSeed(seed, index). */
    size_t index = 0;
    std::vector<core::RunResult> cells;
    std::vector<double> cellMs;
    double wallUs = 0.0;
    /** Calibrated speed around the sweep (1 when not calibrated). */
    double speed = 1.0;
};

class GridRunner
{
  public:
    GridRunner(const Options &options)
        : options_(options), config_(gridConfig(options.workload)),
          hw_(reram::AcceleratorConfig::paperDefault()),
          systems_(core::figure13Systems())
    {
    }

    /**
     * What a user pays before the first timed cell. Cold: the
     * paper-default workloads plus one ddi row on a throwaway harness
     * (process pool, catalogs). Warm: a fresh harness filled by one
     * complete sweep (sweep 0, whose seed no timed sweep uses).
     */
    void
    setup()
    {
        workloads_.clear();
        for (const auto &name : kGridDatasets)
            workloads_.push_back(gcn::Workload::paperDefault(name));
        const sim::SimContext ctx = sweepContext(0);
        if (config_.warm) {
            harness_ =
                std::make_unique<core::ComparisonHarness>(hw_, ctx);
            harness_->runGrid(systems_, kGridDatasets, 1);
        } else {
            core::ComparisonHarness warmup(hw_, ctx);
            warmup.runGrid(systems_, {"ddi"}, 1);
        }
    }

    /**
     * Untraced sweeps for at least `seconds` (at least one sweep),
     * sampling `calibration` (if given) before the first sweep and
     * after each one.
     */
    std::vector<Sweep>
    runSweeps(double seconds,
              const std::shared_ptr<obs::MetricsRegistry> &metrics,
              Calibration *calibration = nullptr)
    {
        std::vector<Sweep> sweeps;
        planHits_ = harness_ ? harness_->planCache().hits() : 0;
        planMisses_ = harness_ ? harness_->planCache().misses() : 0;
        const uint64_t hitsBefore = planHits_;
        const uint64_t missesBefore = planMisses_;
        double loopUs = calibration ? calibration->sample() : 0.0;
        const double start = nowUs();
        while (sweeps.empty() || nowUs() - start < seconds * 1e6) {
            Sweep sweep;
            sweep.index = nextSweep_++;
            sim::SimContext ctx = sweepContext(sweep.index);
            ctx.metrics = metrics;
            const double sweepStart = nowUs();
            std::unique_ptr<core::ComparisonHarness> fresh;
            core::ComparisonHarness *harness = harness_.get();
            if (config_.warm) {
                harness->setSimContext(ctx);
            } else {
                fresh = std::make_unique<core::ComparisonHarness>(hw_,
                                                                  ctx);
                harness = fresh.get();
            }
            for (const auto &dataset : kGridDatasets)
                for (const auto kind : systems_) {
                    const double t0 = nowUs();
                    auto rows = harness->runGrid({kind}, {dataset}, 1);
                    sweep.cellMs.push_back((nowUs() - t0) / 1000.0);
                    sweep.cells.push_back(
                        std::move(rows[0].results[0]));
                }
            if (fresh) {
                planHits_ += fresh->planCache().hits();
                planMisses_ += fresh->planCache().misses();
            }
            sweep.wallUs = nowUs() - sweepStart;
            if (calibration) {
                const double afterUs = calibration->sample();
                sweep.speed = Calibration::speedOf(loopUs, afterUs);
                loopUs = afterUs;
            }
            sweeps.push_back(std::move(sweep));
        }
        if (harness_) {
            planHits_ = harness_->planCache().hits();
            planMisses_ = harness_->planCache().misses();
        }
        planHits_ -= hitsBefore;
        planMisses_ -= missesBefore;
        return sweeps;
    }

    /**
     * The same cells through the layers' public functions, each call
     * in a span. Cold cells re-run mapping and costing as probes,
     * because buildPlan does both internally.
     */
    std::vector<Sweep>
    runTracedSweeps(double seconds, Tracer &tracer)
    {
        std::vector<Sweep> sweeps;
        const gcn::StageTimeModel timeModel(hw_);
        uint64_t op = 0;
        const double start = nowUs();
        while (sweeps.empty() || nowUs() - start < seconds * 1e6) {
            Sweep sweep;
            sweep.index = nextSweep_++;
            const sim::SimContext ctx = sweepContext(sweep.index);
            const double sweepStart = nowUs();
            for (size_t d = 0; d < kGridDatasets.size(); ++d) {
                const gcn::Workload &workload = workloads_[d];
                gcn::VertexProfile profile;
                if (!config_.warm) {
                    ScopedSpan span(&tracer, "gcn.profile", op);
                    profile = gcn::VertexProfile::build(workload.dataset,
                                                        workload.seed);
                }
                for (const auto kind : systems_) {
                    const double t0 = nowUs();
                    core::SystemConfig system = core::makeSystem(kind);
                    system.sim = ctx;
                    if (system.allocator)
                        system.allocator =
                            std::make_shared<TimedAllocator>(
                                system.allocator, &tracer, &op);
                    const core::Accelerator accel(hw_, system);
                    core::StagePlan built;
                    const core::StagePlan *plan = &built;
                    if (config_.warm) {
                        ScopedSpan span(&tracer, "core.plan", op);
                        const std::string key =
                            core::planConfigPrefix(system, hw_, workload)
                                .canonical();
                        plan = harness_->planCache().find(fnv1a64(key),
                                                          key);
                        if (!plan) {
                            // Not in the memo after set-up: plan it
                            // (a plan cache miss shows in the counts).
                            profile = gcn::VertexProfile::build(
                                workload.dataset, workload.seed);
                            built = accel.buildPlan(workload, profile);
                            plan = &built;
                        }
                    } else {
                        gcn::MappingArtifacts artifacts;
                        {
                            ScopedSpan span(&tracer, "mapping.artifacts",
                                            op, true);
                            artifacts = gcn::MappingArtifacts::build(
                                profile, system.policy, workload.dataset,
                                hw_.crossbar.rows);
                        }
                        {
                            ScopedSpan span(&tracer, "gcn.cost", op, true);
                            timeModel.allCosts(workload, system.policy,
                                               artifacts);
                        }
                        ScopedSpan span(&tracer, "core.plan", op);
                        built = accel.buildPlan(workload, profile);
                    }
                    core::RunResult result;
                    {
                        ScopedSpan span(&tracer, "sim.schedule", op);
                        result = accel.executePlan(*plan, workload);
                    }
                    {
                        ScopedSpan span(&tracer, "core.report", op);
                        core::runResultToJson(result).dump();
                    }
                    sweep.cellMs.push_back((nowUs() - t0) / 1000.0);
                    sweep.cells.push_back(std::move(result));
                    ++op;
                }
            }
            sweep.wallUs = nowUs() - sweepStart;
            sweeps.push_back(std::move(sweep));
        }
        return sweeps;
    }

    /**
     * Expected cell digests of the sweeps numbered `indices`: the
     * committed golden file
     * covers the golden seed's first kGoldenSweeps sweeps; every other
     * sweep is recomputed by reference().
     */
    std::map<std::string, std::string>
    expected(const std::vector<size_t> &indices,
             std::vector<std::string> *notes) const
    {
        std::map<std::string, std::string> out;
        std::vector<size_t> recompute;
        const auto golden = committedDigests(options_, notes);
        for (size_t k : indices) {
            if (golden && k >= 1 && k <= kGoldenSweeps)
                continue;
            recompute.push_back(k);
        }
        if (golden)
            out = *golden;
        out.merge(reference(recompute));
        return out;
    }

    /**
     * Cell digests of `sweeps` recomputed outside the timed region,
     * without the harness or any of its memos: every (dataset, system)
     * plan is built once from a fresh profile through the public
     * buildPlan, then executed once per sweep seed. Plans do not
     * depend on the seed; the sweeps are spread over a few threads,
     * each cell computed serially by one.
     */
    std::map<std::string, std::string>
    reference(const std::vector<size_t> &sweeps) const
    {
        struct Cell
        {
            const gcn::Workload *workload;
            core::SystemConfig system;
            core::StagePlan plan;
        };
        std::vector<Cell> cells;
        if (!sweeps.empty())
            for (const auto &workload : workloads_) {
                const auto profile = gcn::VertexProfile::build(
                    workload.dataset, workload.seed);
                for (const auto kind : systems_) {
                    core::SystemConfig system = core::makeSystem(kind);
                    system.sim = config_.ctx;
                    const core::Accelerator accel(hw_, system);
                    cells.push_back({&workload, system,
                                     accel.buildPlan(workload, profile)});
                }
            }
        const unsigned cores = std::thread::hardware_concurrency();
        const size_t threads =
            std::min<size_t>(sweeps.size(), cores > 1 ? cores - 1 : 1);
        std::vector<std::map<std::string, std::string>> parts(threads);
        std::atomic<size_t> next{0};
        auto work = [&](size_t t) {
            for (size_t i; (i = next++) < sweeps.size();)
                for (const auto &cell : cells) {
                    core::SystemConfig system = cell.system;
                    system.sim = sweepContext(sweeps[i]);
                    const core::RunResult run =
                        core::Accelerator(hw_, system)
                            .executePlan(cell.plan, *cell.workload);
                    parts[t][cellKey(sweeps[i], run.datasetName,
                                     run.systemName)] = cellDigest(run);
                }
        };
        std::vector<std::thread> pool;
        for (size_t t = 0; t < threads; ++t)
            pool.emplace_back(work, t);
        for (auto &thread : pool)
            thread.join();
        std::map<std::string, std::string> out;
        for (auto &part : parts)
            out.merge(part);
        return out;
    }

    /** Count cells whose digest differs from the expectation. */
    void
    check(const std::vector<Sweep> &sweeps,
          const std::map<std::string, std::string> &expected,
          Outcome *outcome) const
    {
        for (const auto &sweep : sweeps)
            for (const auto &run : sweep.cells) {
                ++outcome->attempted;
                const std::string key =
                    cellKey(sweep.index, run.datasetName, run.systemName);
                const auto it = expected.find(key);
                const std::string why =
                    it == expected.end()
                        ? "no expectation"
                        : cellMismatch(it->second, cellDigest(run));
                if (why.empty())
                    continue;
                if (++outcome->failed <= 5)
                    outcome->notes.push_back("oracle: " + key + ": " +
                                             why + " differs");
            }
    }

    /** Geomean over datasets of GoPIM's makespan speedup over Serial. */
    static double
    speedupGeomean(const Sweep &sweep)
    {
        std::map<std::string, double> serial, gopim;
        for (const auto &run : sweep.cells) {
            if (run.systemName == "Serial")
                serial[run.datasetName] = run.makespanNs;
            if (run.systemName == "GoPIM")
                gopim[run.datasetName] = run.makespanNs;
        }
        std::vector<double> speedups;
        for (const auto &[dataset, ns] : gopim)
            speedups.push_back(serial.at(dataset) / ns);
        return geomean(speedups);
    }

    uint64_t planHits() const { return planHits_; }
    uint64_t planMisses() const { return planMisses_; }

  private:
    sim::SimContext
    sweepContext(size_t sweep) const
    {
        sim::SimContext ctx = config_.ctx;
        ctx.seed = gridSweepSeed(options_.seed, sweep);
        return ctx;
    }

    const Options &options_;
    GridConfig config_;
    reram::AcceleratorConfig hw_;
    std::vector<core::SystemKind> systems_;
    std::vector<gcn::Workload> workloads_;
    std::unique_ptr<core::ComparisonHarness> harness_;
    size_t nextSweep_ = 1;
    uint64_t planHits_ = 0;
    uint64_t planMisses_ = 0;
};

std::vector<size_t>
sweepIndices(const std::vector<const std::vector<Sweep> *> &runs)
{
    std::vector<size_t> out;
    for (const auto *sweeps : runs)
        for (const auto &sweep : *sweeps)
            out.push_back(sweep.index);
    return out;
}

double
sweepSeconds(const std::vector<Sweep> &sweeps)
{
    double us = 0.0;
    for (const auto &s : sweeps)
        us += s.wallUs;
    return us / 1e6;
}

void
addLatencies(const std::vector<Sweep> &sweeps, Outcome *outcome)
{
    std::vector<double> ms;
    for (const auto &s : sweeps)
        for (double cell : s.cellMs)
            ms.push_back(cell * s.speed);
    outcome->add("latency_p50_ms", windowedPercentile(ms, 50.0), "ms");
    outcome->add("latency_tail_ms", windowedTailMean(ms, 95.0), "ms");
    outcome->notes.push_back("cell latency (scaled): " +
                             describeTiming(ms));
}

} // namespace

Outcome
runGridWorkload(const Options &options)
{
    GridRunner runner(options);
    Outcome outcome;

    Calibration setupCalibration;
    const double setupS =
        medianSetupSeconds([&] { runner.setup(); }, &setupCalibration);

    if (!options.writeGolden.empty()) {
        std::vector<size_t> committed;
        for (size_t k = 1; k <= kGoldenSweeps; ++k)
            committed.push_back(k);
        Golden golden{options.seed, runner.reference(committed)};
        if (!writeGolden(options.writeGolden, golden))
            outcome.failed = outcome.attempted = 1;
        return outcome;
    }

    if (!options.trace) {
        Calibration calibration;
        const auto sweeps =
            runner.runSweeps(options.seconds, nullptr, &calibration);
        outcome.add("peak_rss_mb", peakRssMb(), "MiB");
        runner.check(sweeps,
                     runner.expected(sweepIndices({&sweeps}),
                                     &outcome.notes),
                     &outcome);
        // Times are scaled to the reference machine speed (bench.hh).
        std::vector<double> sweepS;
        for (const auto &sweep : sweeps)
            sweepS.push_back(sweep.wallUs / 1e6 * sweep.speed);
        // An operation of a grid workload is one grid cell.
        outcome.add("ops_per_s",
                    static_cast<double>(sweeps[0].cells.size()) /
                        median(sweepS),
                    "ops/s");
        addLatencies(sweeps, &outcome);
        outcome.add("sim_speedup_geomean",
                    GridRunner::speedupGeomean(sweeps.front()), "x");
        outcome.add("setup_s", setupS, "s");
        outcome.notes.push_back(calibration.describe());
        std::ostringstream note;
        note << sweeps.size() << " sweeps of " << sweeps[0].cells.size()
             << " cells in " << sweepSeconds(sweeps) << " s";
        outcome.notes.push_back(note.str());
        return outcome;
    }

    // Traced run: an untraced reference phase (with the program's
    // own metrics registry attached) and then the span-timed phase.
    auto registry = std::make_shared<obs::MetricsRegistry>();
    const auto plain = runner.runSweeps(0.4 * options.seconds, registry);
    Tracer tracer;
    const auto traced =
        runner.runTracedSweeps(0.6 * options.seconds, tracer);
    const auto expected =
        runner.expected(sweepIndices({&plain, &traced}), &outcome.notes);
    runner.check(plain, expected, &outcome);
    runner.check(traced, expected, &outcome);
    if (!options.traceOut.empty())
        tracer.write(options.traceOut);

    const double plainPerSweepUs =
        sweepSeconds(plain) * 1e6 / static_cast<double>(plain.size());
    const double tracedPerSweepUs =
        sweepSeconds(traced) * 1e6 / static_cast<double>(traced.size());
    const double n = static_cast<double>(traced.size());
    auto totals = tracer.totals();
    auto ms = [&](const std::string &name) {
        return totals[name].selfUs / 1000.0 / n;
    };
    auto calls = [&](const std::string &name) {
        return static_cast<double>(totals[name].calls) / n;
    };
    outcome.add("gcn.profile_ms", ms("gcn.profile"), "ms");
    outcome.add("gcn.profile_calls", calls("gcn.profile"), "count");
    outcome.add("mapping.artifacts_ms", ms("mapping.artifacts"), "ms");
    outcome.add("mapping.artifacts_calls", calls("mapping.artifacts"),
                "count");
    outcome.add("gcn.cost_ms", ms("gcn.cost"), "ms");
    outcome.add("alloc.allocate_ms", ms("alloc.allocate"), "ms");
    outcome.add("alloc.allocate_calls", calls("alloc.allocate"), "count");
    outcome.add("core.plan_self_ms",
                std::max(0.0, ms("core.plan") - ms("mapping.artifacts") -
                                  ms("gcn.cost")),
                "ms");
    const double plainSweeps = static_cast<double>(plain.size());
    outcome.add("core.plan_cache.hits",
                static_cast<double>(runner.planHits()) / plainSweeps,
                "count");
    outcome.add("core.plan_cache.misses",
                static_cast<double>(runner.planMisses()) / plainSweeps,
                "count");
    outcome.add("core.report_ms", ms("core.report"), "ms");
    outcome.add("sim.schedule_ms", ms("sim.schedule"), "ms");
    const obs::Counter *schedules = registry->findCounter("sim.schedule.count");
    outcome.add("sim.schedule.count",
                schedules ? static_cast<double>(schedules->value()) /
                                plainSweeps
                          : 0.0,
                "count");
    // Events of the first traced sweep: a pure function of the seed.
    double events = 0.0;
    for (const auto &run : traced.front().cells)
        events += static_cast<double>(run.eventsProcessed);
    outcome.add("sim.events", events, "count");
    double plainEvents = 0.0;
    for (const auto &sweep : plain)
        for (const auto &run : sweep.cells)
            plainEvents += static_cast<double>(run.eventsProcessed);
    outcome.add("sim.events_per_s", plainEvents / sweepSeconds(plain),
                "events/s");
    const obs::Gauge *depth =
        registry->findGauge("sim.event_queue.max_depth");
    outcome.add("sim.event_queue.max_depth",
                depth ? static_cast<double>(depth->value()) : 0.0,
                "count");
    outcome.add("trace.overhead_pct",
                100.0 * (tracedPerSweepUs / plainPerSweepUs - 1.0), "%");
    outcome.add("trace.covered_pct",
                100.0 * tracer.coveredUs() / n / plainPerSweepUs, "%");
    std::ostringstream note;
    note << "traced " << traced.size() << " sweeps, reference "
         << plain.size() << " sweeps; per sweep " << tracedPerSweepUs / 1e3
         << " ms traced vs " << plainPerSweepUs / 1e3 << " ms untraced";
    outcome.notes.push_back(note.str());
    return outcome;
}

} // namespace perfbench
