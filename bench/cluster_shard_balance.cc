/**
 * @file
 * Cluster placement bench: how evenly rendezvous hashing spreads
 * real serving cache keys across shard counts, and how much of the
 * keyspace moves when a shard is added (the reshard cost). Keys are
 * genuine serve::cacheKey digests of a request grid — the same
 * content-addressed keys the router places — not synthetic strings,
 * so the reported imbalance is what a cluster operator would see.
 *
 * With --json-out, writes the grid as BENCH_shard_balance.json.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/shards.hh"
#include "common/flags.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "reram/config.hh"
#include "serve/request.hh"

namespace {

using namespace gopim;

/** Cache keys of a realistic request grid (2048 unique requests). */
std::vector<std::string>
requestGridKeys()
{
    const reram::AcceleratorConfig hw =
        reram::AcceleratorConfig::paperDefault();
    const serve::Request defaults;
    std::vector<std::string> keys;
    for (const char *dataset : {"ddi", "Cora"}) {
        for (const char *system : {"GoPIM", "Serial"}) {
            for (int microBatch : {32, 64}) {
                for (int seed = 1; seed <= 256; ++seed) {
                    json::Value body = json::Value::object();
                    body.set("dataset", dataset);
                    body.set("system", system);
                    body.set("micro_batch", microBatch);
                    body.set("seed", seed);
                    serve::Request request;
                    if (auto err = serve::parseRequest(
                            body, defaults, &request);
                        !err.ok())
                        fatal(err.message);
                    serve::ResolvedRequest resolved;
                    if (auto err =
                            serve::resolveRequest(request, &resolved);
                        !err.ok())
                        fatal(err.message);
                    keys.push_back(serve::cacheKey(resolved, hw));
                }
            }
        }
    }
    return keys;
}

std::vector<std::string>
shardNames(size_t count)
{
    std::vector<std::string> names;
    for (size_t i = 0; i < count; ++i)
        names.push_back("shard" + std::to_string(i));
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags("cluster_shard_balance",
                "rendezvous placement balance of real serve cache "
                "keys across shard counts");
    flags.addString("json-out", "",
                    "write the balance grid as JSON here");
    if (!flags.parse(argc, argv))
        return 0;

    const std::vector<std::string> keys = requestGridKeys();

    Table table("Rendezvous placement of " +
                    std::to_string(keys.size()) +
                    " serve cache keys (imbalance = max/avg; "
                    "moved = keys relocated when one shard joins)",
                {"shards", "min", "max", "avg", "imbalance",
                 "moved", "moved frac", "ideal frac"});
    json::Value rows = json::Value::array();

    for (const size_t shardCount : {2u, 4u, 8u, 16u}) {
        const std::vector<std::string> names =
            shardNames(shardCount);
        std::vector<std::string> grown = names;
        grown.push_back("shard" + std::to_string(shardCount));

        std::vector<size_t> perShard(shardCount, 0);
        size_t moved = 0;
        for (const std::string &key : keys) {
            const size_t before =
                cluster::rendezvousShard(key, names);
            ++perShard[before];
            if (grown[cluster::rendezvousShard(key, grown)] !=
                names[before])
                ++moved;
        }
        size_t lo = keys.size(), hi = 0;
        for (const size_t count : perShard) {
            lo = count < lo ? count : lo;
            hi = count > hi ? count : hi;
        }
        const double avg = static_cast<double>(keys.size()) /
                           static_cast<double>(shardCount);
        const double movedFrac =
            static_cast<double>(moved) /
            static_cast<double>(keys.size());
        const double idealFrac =
            1.0 / static_cast<double>(shardCount + 1);

        table.row()
            .cell(static_cast<uint64_t>(shardCount))
            .cell(static_cast<uint64_t>(lo))
            .cell(static_cast<uint64_t>(hi))
            .cell(avg, 1)
            .cell(static_cast<double>(hi) / avg, 3)
            .cell(static_cast<uint64_t>(moved))
            .cell(movedFrac, 3)
            .cell(idealFrac, 3);

        json::Value row = json::Value::object();
        row.set("shards", static_cast<int64_t>(shardCount));
        row.set("min", static_cast<int64_t>(lo));
        row.set("max", static_cast<int64_t>(hi));
        row.set("avg", avg);
        row.set("imbalance", static_cast<double>(hi) / avg);
        row.set("moved", static_cast<int64_t>(moved));
        row.set("moved_fraction", movedFrac);
        row.set("ideal_fraction", idealFrac);
        rows.push(std::move(row));
    }

    table.print(std::cout);
    std::cout << "\nRendezvous hashing relocates only the keys the "
                 "joining shard wins:\nthe moved fraction should "
                 "track the ideal 1/(n+1) share, and the\nimbalance "
                 "stays near 1 — no shard's LRU cache is starved or "
                 "swamped.\n";

    if (const std::string path = flags.getString("json-out");
        !path.empty()) {
        json::Value doc = json::Value::object();
        doc.set("bench", "shard_balance");
        doc.set("keys", static_cast<int64_t>(keys.size()));
        doc.set("rows", std::move(rows));
        std::ofstream out(path);
        if (!out)
            fatal("cannot write ", path);
        out << doc.dumpIndented() << '\n';
    }
    return 0;
}
