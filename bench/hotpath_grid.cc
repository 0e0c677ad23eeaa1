/**
 * @file
 * Hot-path baseline for runGrid sweeps: the bench behind the
 * committed BENCH_hotpath_before.json / BENCH_hotpath_after.json
 * trajectory (ROADMAP item 4).
 *
 * For each engine (closed-form, event-driven, replay) it times a
 * fig13-style (system x dataset) grid swept `--sweeps` times with a
 * varying seed, two ways:
 *
 *   cold   a fresh ComparisonHarness per sweep — nothing can be
 *          reused across sweeps, every sweep pays workload build,
 *          vertex profiling, mapping, allocation, and lowering from
 *          scratch;
 *   warm   one shared harness across sweeps — the memoized runGrid
 *          path may reuse per-dataset workloads/profiles and
 *          per-cell stage plans keyed by canonical config prefixes.
 *
 * Every cell of every sweep is asserted bit-identical between its
 * cold and warm runs (memoization must change nothing), the replay
 * engine is asserted bit-identical to the event engine, and the
 * closed form is held to the repo's pinned 1e-9 relative parity
 * (tests/test_engine.cc) — so the speedup this bench reports is at
 * equal results by construction. --baseline compares the measured
 * warm-vs-cold speedup against a committed BENCH_hotpath_*.json and
 * fails (exit 1) when it regresses past --tolerance, which is what
 * the CI perf-smoke job runs.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "common/flags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/harness.hh"
#include "core/options.hh"
#include "core/systems.hh"
#include "gcn/trainer.hh"
#include "graph/generators.hh"
#include "obs/profile.hh"

using namespace gopim;

namespace {

std::vector<std::string>
splitCsv(std::string rest)
{
    std::vector<std::string> out;
    while (!rest.empty()) {
        const size_t comma = rest.find(',');
        out.push_back(rest.substr(0, comma));
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
    return out;
}

std::vector<core::RunResult>
runGridFlat(const core::ComparisonHarness &harness,
            const std::vector<core::SystemKind> &systems,
            const std::vector<std::string> &datasets, size_t jobs)
{
    std::vector<core::RunResult> flat;
    for (const auto &row : harness.runGrid(systems, datasets, jobs))
        for (const auto &result : row.results)
            flat.push_back(result);
    return flat;
}

bool
bitIdentical(const core::RunResult &a, const core::RunResult &b)
{
    return a.makespanNs == b.makespanNs && a.energyPj == b.energyPj &&
           a.eventsProcessed == b.eventsProcessed &&
           a.idleFraction == b.idleFraction &&
           a.blockedNs == b.blockedNs;
}

void
assertGridsIdentical(const std::vector<core::RunResult> &a,
                     const std::vector<core::RunResult> &b,
                     const char *what)
{
    if (a.size() != b.size())
        fatal("grid size mismatch (", what, ")");
    for (size_t i = 0; i < a.size(); ++i)
        if (!bitIdentical(a[i], b[i]))
            fatal("results diverged (", what, ") on ", a[i].systemName,
                  " / ", a[i].datasetName);
}

/**
 * Closed-form vs event parity at the tolerance pinned by
 * tests/test_engine.cc (eventsProcessed intentionally differs: the
 * closed form processes no events).
 */
void
assertGridsParity(const std::vector<core::RunResult> &closed,
                  const std::vector<core::RunResult> &event)
{
    if (closed.size() != event.size())
        fatal("grid size mismatch (closed vs event)");
    for (size_t i = 0; i < closed.size(); ++i) {
        const auto &a = closed[i];
        const auto &b = event[i];
        const bool ok =
            std::abs(a.makespanNs - b.makespanNs) <=
                1e-9 * a.makespanNs &&
            std::abs(a.energyPj - b.energyPj) <= 1e-9 * a.energyPj;
        if (!ok)
            fatal("closed form lost parity with the event engine on ",
                  a.systemName, " / ", a.datasetName);
    }
}

struct EngineTiming
{
    std::string name;
    double coldUs = 0.0;
    double warmUs = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("hotpath_grid",
                "runGrid hot-path trajectory bench: cold vs warm "
                "(memoized) sweeps on all three engines, bit-identity "
                "asserted cell by cell");
    flags.addString("datasets", "ddi,collab,ppa,proteins,arxiv",
                    "comma-separated catalog datasets");
    flags.addInt("sweeps", 6, "grid sweeps per engine and mode");
    flags.addBool("quick", false,
                  "small CI-sized run (ddi,collab x 4 sweeps)");
    flags.addInt("trainer-epochs", 20,
                 "epochs for the FunctionalTrainer timing probe");
    flags.addString("baseline", "",
                    "committed BENCH_hotpath_*.json to regress "
                    "against (CI perf gate)");
    flags.addDouble("tolerance", 1.15,
                    "allowed warm-speedup regression factor vs the "
                    "baseline");
    core::addSimFlags(flags);
    core::addJsonOutFlag(flags, "BENCH_hotpath.json");
    if (!flags.parse(argc, argv))
        return 0;

    const bool quick = flags.getBool("quick");
    std::vector<std::string> datasets =
        splitCsv(flags.getString("datasets"));
    auto sweeps = static_cast<uint32_t>(flags.getInt("sweeps"));
    if (quick) {
        datasets = {"ddi", "collab"};
        sweeps = 4;
    }
    GOPIM_ASSERT(sweeps >= 1, "need at least one sweep");
    const size_t jobs = core::jobsFromFlags(flags);
    const auto systems = core::figure13Systems();
    const auto hw = reram::AcceleratorConfig::paperDefault();

    // The engine under test cycles through the registry; --engine
    // only contributes the base seed / knobs each engine runs under.
    const sim::SimContext base = core::simContextFromFlags(flags);

    const std::vector<std::pair<sim::EngineKind, std::string>> engines =
        {{sim::EngineKind::ClosedForm, "closed"},
         {sim::EngineKind::EventDriven, "event"},
         {sim::EngineKind::Replay, "replay"}};

    // warmByEngine[label][iter]: kept for the cross-engine checks
    // after all three engines have run.
    std::map<std::string, std::vector<std::vector<core::RunResult>>>
        warmByEngine;
    std::vector<EngineTiming> timings;
    uint64_t cells = 0;

    for (const auto &[kind, label] : engines) {
        sim::SimContext engineCtx = base;
        engineCtx.engine = kind;
        engineCtx.engineOverride = nullptr;

        EngineTiming t;
        t.name = label;

        // Cold: a fresh harness per sweep, no cross-sweep reuse.
        std::vector<std::vector<core::RunResult>> cold(sweeps);
        {
            const double start = obs::profileNowUs();
            for (uint32_t iter = 0; iter < sweeps; ++iter) {
                sim::SimContext ctx = engineCtx;
                ctx.seed = engineCtx.seed + iter;
                core::ComparisonHarness fresh(hw, ctx);
                cold[iter] =
                    runGridFlat(fresh, systems, datasets, jobs);
            }
            t.coldUs = obs::profileNowUs() - start;
        }

        // Warm: one harness shared across the sweep, only the sim
        // section changes between iterations.
        core::ComparisonHarness shared(hw, engineCtx);
        std::vector<std::vector<core::RunResult>> warm(sweeps);
        {
            const double start = obs::profileNowUs();
            for (uint32_t iter = 0; iter < sweeps; ++iter) {
                sim::SimContext ctx = engineCtx;
                ctx.seed = engineCtx.seed + iter;
                shared.setSimContext(ctx);
                warm[iter] =
                    runGridFlat(shared, systems, datasets, jobs);
            }
            t.warmUs = obs::profileNowUs() - start;
        }

        for (uint32_t iter = 0; iter < sweeps; ++iter)
            assertGridsIdentical(cold[iter], warm[iter],
                                 "cold vs warm");
        cells += static_cast<uint64_t>(sweeps) * warm[0].size();
        warmByEngine[label] = std::move(warm);
        timings.push_back(t);
    }
    for (uint32_t iter = 0; iter < sweeps; ++iter) {
        assertGridsIdentical(warmByEngine.at("event")[iter],
                             warmByEngine.at("replay")[iter],
                             "event vs replay");
        assertGridsParity(warmByEngine.at("closed")[iter],
                          warmByEngine.at("event")[iter]);
    }

    // FunctionalTrainer probe: the SoA/arena kernel trajectory, on a
    // density-matched synthetic graph (same recipe as table05).
    double trainerUs = 0.0;
    {
        Rng rng(7);
        const auto data =
            graph::degreeCorrectedPartition(1200, 6, 20.0, 2.1, 0.35,
                                            rng);
        gcn::TrainerConfig cfg;
        cfg.epochs =
            static_cast<uint32_t>(flags.getInt("trainer-epochs"));
        cfg.featureDim = 16;
        cfg.hiddenChannels = 32;
        cfg.seed = 11;
        const gcn::FunctionalTrainer trainer(data, cfg);
        const gcn::SelectivePolicy isu{.enabled = true,
                                       .theta = 0.5,
                                       .coldPeriod = 20};
        const double start = obs::profileNowUs();
        const auto result = trainer.train(isu);
        trainerUs = obs::profileNowUs() - start;
        GOPIM_ASSERT(result.finalTestAccuracy > 0.0,
                     "trainer probe produced no accuracy");
    }

    double coldTotalUs = 0.0;
    double warmTotalUs = 0.0;
    Table table("runGrid hot path (" + std::to_string(cells) +
                    " cells, " + std::to_string(sweeps) +
                    " sweeps/engine)",
                {"engine", "cold ms", "warm ms", "speedup"});
    for (const auto &t : timings) {
        coldTotalUs += t.coldUs;
        warmTotalUs += t.warmUs;
        table.row()
            .cell(t.name)
            .cell(t.coldUs / 1000.0, 2)
            .cell(t.warmUs / 1000.0, 2)
            .cell(t.warmUs > 0.0 ? t.coldUs / t.warmUs : 0.0, 2);
    }
    const double speedup =
        warmTotalUs > 0.0 ? coldTotalUs / warmTotalUs : 0.0;
    table.print(std::cout);
    std::cout << "\ntotal: cold " << coldTotalUs / 1000.0
              << " ms, warm " << warmTotalUs / 1000.0
              << " ms (speedup " << speedup << "x); trainer probe "
              << trainerUs / 1000.0 << " ms\n";

    if (const std::string path = flags.getString("json-out");
        !path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("bench", "hotpath_grid");
        doc.set("quick", quick);
        doc.set("sweeps", static_cast<double>(sweeps));
        doc.set("cells", static_cast<double>(cells));
        json::Value ds = json::Value::array();
        for (const auto &name : datasets)
            ds.push(name);
        doc.set("datasets", std::move(ds));
        json::Value perEngine = json::Value::object();
        for (const auto &t : timings) {
            json::Value e = json::Value::object();
            e.set("cold_ms", t.coldUs / 1000.0);
            e.set("warm_ms", t.warmUs / 1000.0);
            perEngine.set(t.name, std::move(e));
        }
        doc.set("engines", std::move(perEngine));
        doc.set("cold_total_ms", coldTotalUs / 1000.0);
        doc.set("sweep_total_ms", warmTotalUs / 1000.0);
        doc.set("speedup_warm_vs_cold", speedup);
        doc.set("trainer_train_ms", trainerUs / 1000.0);
        doc.set("bit_identical", true);
        std::ofstream out(path);
        if (!out)
            fatal("cannot open --json-out file ", path);
        out << doc.dumpIndented() << '\n';
    }
    core::writeMetricsIfRequested(flags, base);

    // CI perf gate: the warm-vs-cold speedup is a machine-independent
    // ratio, so it can be compared against the committed baseline.
    if (const std::string path = flags.getString("baseline");
        !path.empty()) {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open --baseline file ", path);
        std::stringstream buf;
        buf << in.rdbuf();
        json::Value doc;
        std::string error;
        if (!json::Value::parse(buf.str(), &doc, &error))
            fatal("cannot parse --baseline file ", path, ": ", error);
        const json::Value *committed =
            doc.find("speedup_warm_vs_cold");
        if (!committed)
            fatal("--baseline file ", path,
                  " has no speedup_warm_vs_cold field");
        // The ratio is only comparable between runs of the same
        // shape: fewer sweeps/datasets amortize the caches less, so
        // gating a --quick run against a full-run baseline would
        // always read as a regression. Refuse the mismatch loudly
        // instead of failing with a misleading number.
        const json::Value *baseQuick = doc.find("quick");
        const json::Value *baseSweeps = doc.find("sweeps");
        if (!baseQuick || !baseSweeps ||
            baseQuick->asBool() != quick ||
            static_cast<uint32_t>(baseSweeps->asDouble()) != sweeps)
            fatal("--baseline file ", path,
                  " was recorded with a different sweep shape; "
                  "regenerate it with the same --quick/--sweeps/"
                  "--datasets flags as this run");
        const double tolerance = flags.getDouble("tolerance");
        const double floor = committed->asDouble() / tolerance;
        if (speedup < floor) {
            std::cerr << "PERF REGRESSION: warm-vs-cold speedup "
                      << speedup << "x fell below " << floor
                      << "x (baseline " << committed->asDouble()
                      << "x / tolerance " << tolerance << ")\n";
            return 1;
        }
    }
    return 0;
}
