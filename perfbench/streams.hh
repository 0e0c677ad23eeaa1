/**
 * @file
 * Seeded input generators. The benchmark seed fixes every generated
 * input; the program under test only ever receives the generated
 * grid seeds or request lines.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The sim seed of grid sweep `sweep` (0 = the set-up sweep): a fresh
 * seed for every sweep of a run, a pure function of its arguments.
 */
uint64_t gridSweepSeed(uint64_t benchSeed, size_t sweep);

/** One request shape; the stream instantiates it with fresh ids. */
struct RequestTemplate
{
    /**
     * JSON members after "id" (no braces), or for a "bad_json"
     * template the whole malformed line.
     */
    std::string body;
    /** Structured error code an invalid template must return; "" = valid. */
    std::string expectCode;
};

/** The JSONL request line for `t` carrying `id`. */
std::string requestLine(const RequestTemplate &t, const std::string &id);

/**
 * serve-mixed pool: gcn-train on ddi/Cora/collab/arxiv across the
 * closed, event and replay engines, gnn-infer over all three
 * partitions, cnn-infer presets, some with "baseline":"Serial", and
 * five invalid shapes (the last ones in the pool).
 */
std::vector<RequestTemplate> serveMixedTemplates(uint64_t benchSeed);

/**
 * serve-mixed stream order as template indices. Each round visits
 * every valid template once in a seeded order; every 7th position is
 * followed by an exact repeat of a recent template and every 30th by
 * an invalid line. `salt` separates independent streams of one seed.
 */
std::vector<size_t> serveMixedOrder(const std::vector<RequestTemplate> &pool,
                                    uint64_t benchSeed, uint64_t salt,
                                    size_t length);

/**
 * router-3shard pool: ddi/Cora x GoPIM/Serial/ReGraphX x 3 seeds x 2
 * micro-batch sizes, all with "baseline":"Serial", plus one invalid
 * line (the last template).
 */
std::vector<RequestTemplate> routerTemplates(uint64_t benchSeed);

/** Repeated blocks, each a seeded permutation of the whole pool. */
std::vector<size_t> routerOrder(size_t poolSize, uint64_t benchSeed,
                                size_t length);

/**
 * Open-loop send schedule: due offsets (microseconds from the phase
 * start) of `count` requests at a constant `ratePerS`. It depends on
 * nothing but its arguments, never on how fast the service answers.
 */
std::vector<double> openLoopSchedule(size_t count, double ratePerS);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH
