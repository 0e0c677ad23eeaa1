/**
 * @file
 * The one memo primitive: a thread-safe map from a canonical key
 * string to an immutable value, for results that are a pure function
 * of that key (plans, timelines).
 *
 * Keys are two-level: an FNV-1a fingerprint of the key picks the
 * bucket (getOrBuild computes it; lookup and insert take it from the
 * caller), and the full key string is compared inside the bucket, so
 * a fingerprint collision between two different keys can never alias
 * their values. The first insert under a key wins; a racing duplicate
 * is dropped and the stored value returned (callers only memoize
 * deterministic results, so both copies are identical).
 *
 * Capacity 0 means unbounded. A positive capacity keeps at most that
 * many entries and evicts the least recently used. Values are handed
 * out as shared handles, so a value evicted while a caller still
 * holds it stays alive until that handle is dropped.
 */

#ifndef GOPIM_COMMON_MEMO_TABLE_HH
#define GOPIM_COMMON_MEMO_TABLE_HH

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"

namespace gopim {

/** Fingerprint-bucketed, full-key-verified memo with optional LRU. */
template <typename V>
class MemoTable
{
  public:
    using Handle = std::shared_ptr<const V>;

    /** Counters and size, read under one lock. */
    struct Stats
    {
        size_t entries = 0;
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
    };

    /** `capacity` = max resident entries (0 = unbounded). */
    explicit MemoTable(size_t capacity = 0) : capacity_(capacity) {}

    MemoTable(const MemoTable &) = delete;
    MemoTable &operator=(const MemoTable &) = delete;

    /**
     * The value stored under (fingerprint, key), or null. Counts a
     * hit or a miss; a hit becomes the most recently used entry.
     */
    Handle
    lookup(uint64_t fingerprint, const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto node = locate(fingerprint, key)) {
            lru_.splice(lru_.begin(), lru_, *node);
            ++hits_;
            return (*node)->value;
        }
        ++misses_;
        return nullptr;
    }

    /**
     * lookup() as a raw pointer. Only an unbounded table may hand
     * these out: its entries live as long as the table, whereas a
     * bounded table could evict the pointee under the caller.
     */
    const V *
    find(uint64_t fingerprint, const std::string &key) const
    {
        GOPIM_ASSERT(capacity_ == 0,
                     "raw pointers into a bounded memo can dangle");
        return lookup(fingerprint, key).get();
    }

    /**
     * Store `value` under (fingerprint, key) unless the key is
     * already present, and return the stored value. Evicts the least
     * recently used entry when a bounded table overflows.
     */
    Handle
    insert(uint64_t fingerprint, std::string key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const auto node = locate(fingerprint, key))
            return (*node)->value;
        lru_.push_front(Node{fingerprint, std::move(key),
                             std::make_shared<const V>(
                                 std::move(value))});
        buckets_[fingerprint].push_back(lru_.begin());
        Handle stored = lru_.front().value;
        if (capacity_ > 0 && lru_.size() > capacity_) {
            const auto victim = std::prev(lru_.end());
            auto bucket = buckets_.find(victim->fingerprint);
            std::erase(bucket->second, victim);
            if (bucket->second.empty())
                buckets_.erase(bucket);
            lru_.erase(victim);
            ++evictions_;
        }
        return stored;
    }

    /**
     * The value under `key` (fingerprinted with FNV-1a), calling
     * `build()` and storing its result only on a miss. The build runs
     * unlocked, so racing misses may both build; the first insert
     * wins.
     */
    template <typename Build>
    Handle
    getOrBuild(std::string key, Build &&build)
    {
        const uint64_t fingerprint = fnv1a64(key);
        if (Handle hit = lookup(fingerprint, key))
            return hit;
        return insert(fingerprint, std::move(key), build());
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {lru_.size(), hits_, misses_, evictions_};
    }

    size_t size() const { return stats().entries; }
    uint64_t hits() const { return stats().hits; }
    uint64_t misses() const { return stats().misses; }
    uint64_t evictions() const { return stats().evictions; }
    size_t capacity() const { return capacity_; }

  private:
    struct Node
    {
        uint64_t fingerprint;
        std::string key;
        Handle value;
    };
    using NodeIt = typename std::list<Node>::iterator;

    /** The entry for (fingerprint, key), if any; mutex_ held. */
    std::optional<NodeIt>
    locate(uint64_t fingerprint, const std::string &key) const
    {
        const auto bucket = buckets_.find(fingerprint);
        if (bucket != buckets_.end())
            for (const NodeIt node : bucket->second)
                if (node->key == key)
                    return node;
        return std::nullopt;
    }

    const size_t capacity_;
    mutable std::mutex mutex_;
    /** Front = most recently used. */
    mutable std::list<Node> lru_;
    std::map<uint64_t, std::vector<NodeIt>> buckets_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace gopim

#endif // GOPIM_COMMON_MEMO_TABLE_HH
