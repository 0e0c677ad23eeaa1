#include "streams.hh"

#include <algorithm>
#include <utility>

#include "common/rng.hh"

namespace perfbench {

namespace {

/** Small positive sim seeds drawn from the benchmark seed. */
std::vector<uint64_t>
drawSeeds(uint64_t benchSeed, uint64_t salt, size_t count)
{
    gopim::Rng rng(benchSeed * 0x9E3779B97F4A7C15ULL + salt);
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < count; ++i)
        seeds.push_back(1 + rng.uniformInt(uint64_t{1000000}));
    return seeds;
}

void
shuffle(std::vector<size_t> &items, gopim::Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.uniformInt(uint64_t{i})]);
}

std::string
field(const std::string &key, const std::string &value)
{
    return ",\"" + key + "\":\"" + value + "\"";
}

std::string
field(const std::string &key, uint64_t value)
{
    return ",\"" + key + "\":" + std::to_string(value);
}

} // namespace

uint64_t
gridSweepSeed(uint64_t benchSeed, size_t sweep)
{
    // Consecutive from a seeded base: distinct within a run by
    // construction, so no sweep ever repeats an earlier one's seed.
    return drawSeeds(benchSeed, 11, 1)[0] + sweep;
}

std::string
requestLine(const RequestTemplate &t, const std::string &id)
{
    // A malformed line carries no id: its error message quotes a byte
    // offset, which must not depend on the id's length.
    if (t.expectCode == "bad_json")
        return t.body;
    return "{\"id\":\"" + id + "\"" + t.body + "}";
}

std::vector<RequestTemplate>
serveMixedTemplates(uint64_t benchSeed)
{
    const auto seeds = drawSeeds(benchSeed, 23, 4);
    const char *engines[] = {"closed", "event", "replay"};
    const char *partitions[] = {"row", "col", "nnz"};
    std::vector<RequestTemplate> pool;
    auto add = [&pool](std::string body) {
        pool.push_back({std::move(body), ""});
    };

    // gcn-train: many requests share (dataset, seed) and differ only
    // in engine, system or micro-batch.
    for (const char *dataset : {"ddi", "Cora"})
        for (uint64_t seed : seeds)
            for (const char *engine : engines)
                for (const char *system : {"GoPIM", "ReGraphX"})
                    for (uint64_t mb : {32, 64}) {
                        std::string body = field("dataset", dataset) +
                                           field("engine", engine) +
                                           field("system", system) +
                                           field("seed", seed) +
                                           field("micro_batch", mb);
                        if (mb == 64)
                            body += field("baseline", "Serial");
                        add(body);
                    }
    for (const char *dataset : {"collab", "arxiv"})
        for (size_t s = 0; s < 2; ++s)
            for (const char *engine : engines) {
                std::string body = field("dataset", dataset) +
                                   field("engine", engine) +
                                   field("seed", seeds[s]);
                if (s == 0)
                    body += field("baseline", "Serial");
                add(body);
            }

    // gnn-infer across every partition; Cora carries most of it.
    for (uint64_t seed : seeds)
        for (const char *partition : partitions)
            for (const char *system : {"GoPIM", "Serial"})
                add(field("workload", "gnn-infer") +
                    field("dataset", "Cora") +
                    field("partition", partition) +
                    field("system", system) + field("seed", seed));
    for (const char *dataset : {"collab", "arxiv"})
        for (const char *partition : partitions)
            add(field("workload", "gnn-infer") +
                field("dataset", dataset) +
                field("partition", partition) +
                field("seed", seeds[0]));

    // cnn-infer presets.
    for (const char *preset : {"mnist", "cifar", "tiny-imagenet"})
        for (const char *system : {"GoPIM", "Serial"})
            for (uint64_t mb : {32, 64})
                add(field("workload", "cnn-infer") +
                    field("dataset", preset) + field("system", system) +
                    field("micro_batch", mb) + field("seed", seeds[1]));

    // Invalid shapes, each with the structured code it must return.
    pool.push_back({field("dataset", "no-such-dataset"), "unknown_name"});
    pool.push_back({field("micro_batch", uint64_t{0}), "out_of_range"});
    pool.push_back({field("colour", "red"), "unknown_field"});
    pool.push_back({",\"seed\":\"seven\"", "bad_type"});
    pool.push_back({"{\"dataset\":\"ddi\",", "bad_json"});
    return pool;
}

std::vector<size_t>
serveMixedOrder(const std::vector<RequestTemplate> &pool,
                uint64_t benchSeed, uint64_t salt, size_t length)
{
    std::vector<size_t> valid, invalid;
    for (size_t i = 0; i < pool.size(); ++i)
        (pool[i].expectCode.empty() ? valid : invalid).push_back(i);

    gopim::Rng rng(benchSeed * 0xD1B54A32D192ED03ULL + salt);
    std::vector<size_t> order;
    size_t nextInvalid = 0;
    while (order.size() < length) {
        std::vector<size_t> round = valid;
        shuffle(round, rng);
        for (size_t k = 0; k < round.size() && order.size() < length;
             ++k) {
            order.push_back(round[k]);
            if (k % 7 == 6) {
                // An exact repeat of one of the last few requests: it
                // is still cached (or in flight) when it arrives.
                const size_t back = 1 + rng.uniformInt(uint64_t{
                                            std::min<size_t>(k, 6)});
                order.push_back(round[k - back]);
            }
            if (k % 30 == 29 && !invalid.empty())
                order.push_back(invalid[nextInvalid++ % invalid.size()]);
        }
    }
    order.resize(length);
    return order;
}

std::vector<RequestTemplate>
routerTemplates(uint64_t benchSeed)
{
    const auto seeds = drawSeeds(benchSeed, 37, 3);
    std::vector<RequestTemplate> pool;
    for (const char *dataset : {"ddi", "Cora"})
        for (const char *system : {"GoPIM", "Serial", "ReGraphX"})
            for (uint64_t seed : seeds)
                for (uint64_t mb : {32, 64})
                    pool.push_back({field("dataset", dataset) +
                                        field("system", system) +
                                        field("baseline", "Serial") +
                                        field("seed", seed) +
                                        field("micro_batch", mb),
                                    ""});
    pool.push_back({field("dataset", "no-such-dataset"), "unknown_name"});
    return pool;
}

std::vector<size_t>
routerOrder(size_t poolSize, uint64_t benchSeed, size_t length)
{
    gopim::Rng rng(benchSeed * 0x94D049BB133111EBULL + 5);
    std::vector<size_t> order;
    order.reserve(length);
    std::vector<size_t> block(poolSize);
    for (size_t i = 0; i < poolSize; ++i)
        block[i] = i;
    while (order.size() < length) {
        shuffle(block, rng);
        for (size_t i = 0; i < poolSize && order.size() < length; ++i)
            order.push_back(block[i]);
    }
    return order;
}

std::vector<double>
openLoopSchedule(size_t count, double ratePerS)
{
    std::vector<double> due(count);
    for (size_t i = 0; i < count; ++i)
        due[i] = static_cast<double>(i) * 1e6 / ratePerS;
    return due;
}

} // namespace perfbench
