/**
 * @file
 * Content-addressed LRU result cache for the serving layer: maps a
 * canonical request hash (serve::cacheKey) to the serialized result
 * object a fresh simulation would produce. Because cached values are
 * the exact bytes the JSON writer emitted, a cache hit is
 * byte-identical to re-simulating — the property the determinism
 * tests pin down. Thread-safe; eviction is strict LRU.
 *
 * serve::Service does not use this class: it memoizes result
 * futures in a MemoTable. The class remains for the benchmark's
 * traced serving path (perfbench/serving.cc).
 */

#ifndef GOPIM_SERVE_CACHE_HH
#define GOPIM_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace gopim::serve {

/** LRU map of cache key -> serialized result JSON. */
class ResultCache
{
  public:
    /** `capacity` = max resident entries (0 disables caching). */
    explicit ResultCache(size_t capacity);

    /** Lookup; promotes the entry to most-recently-used on hit. */
    std::optional<std::string> get(const std::string &key);

    /**
     * Insert (or refresh) an entry, evicting the least-recently-used
     * entries beyond capacity.
     */
    void put(const std::string &key, std::string value);

    struct Stats
    {
        size_t entries = 0;
        size_t capacity = 0;
        uint64_t evictions = 0;
    };
    Stats stats() const;

  private:
    mutable std::mutex mutex_;
    size_t capacity_;
    /** Front = most recently used. */
    std::list<std::pair<std::string, std::string>> lru_;
    // gopim-lint: allow(determinism-unordered) pure point lookups
    // into the LRU list; recency order lives in lru_, and no output
    // path iterates this index.
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, std::string>>::iterator>
        index_;
    uint64_t evictions_ = 0;
};

} // namespace gopim::serve

#endif // GOPIM_SERVE_CACHE_HH
