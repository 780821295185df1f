#ifndef ATUM_CACHE_CACHE_H_
#define ATUM_CACHE_CACHE_H_

/**
 * @file
 * Trace-driven cache model, in the style of the mid-80s memory-system
 * studies ATUM's traces enabled.
 *
 * Caches are virtually indexed and virtually tagged (the traces carry
 * virtual addresses). Two multiprogramming disciplines are modelled, the
 * comparison at the heart of experiment F4:
 *   - flush-on-switch: tags carry no process id, so the driver flushes the
 *     cache on every context switch;
 *   - PID tags: tags are extended with the process id (kernel references
 *     tag as pid 0, matching the shared system address space).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace atum::cache {

/** Replacement policies. */
enum class Replacement : uint8_t { kLru, kFifo, kRandom };

struct CacheConfig {
    uint32_t size_bytes = 64u << 10;
    uint32_t block_bytes = 16;
    uint32_t assoc = 1;  ///< 0 means fully associative
    Replacement replacement = Replacement::kLru;
    bool write_allocate = true;
    bool write_back = true;
    bool pid_tags = false;  ///< extend tags with the process id
    /** One-block lookahead (Smith): a miss also fills block+1. */
    bool prefetch_next_on_miss = false;

    std::string ToString() const;
};

/**
 * Checks a geometry without constructing anything: powers of two, block
 * within bounds, associativity dividing the block count. Cache's
 * constructor Fatals on exactly these conditions; callers that must
 * survive a bad configuration (sweep workers) validate first.
 */
util::Status ValidateConfig(const CacheConfig& config);

struct CacheStats {
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t reads = 0;
    uint64_t read_misses = 0;
    uint64_t writes = 0;
    uint64_t write_misses = 0;
    uint64_t writebacks = 0;
    uint64_t flushes = 0;
    uint64_t flushed_blocks = 0;
    uint64_t prefetch_fills = 0;  ///< blocks brought in by lookahead

    bool operator==(const CacheStats&) const = default;

    double MissRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

class Cache
{
  public:
    /** Validates the configuration (power-of-two sizes); Fatal if bad. */
    explicit Cache(const CacheConfig& config);

    /**
     * Simulates one access. `pid` participates in the tag when pid_tags
     * is configured and is otherwise ignored. Returns true on hit.
     *
     * When `writeback_addr` is non-null and the access evicts a dirty
     * block, the evicted block's address is stored there (for driving a
     * next cache level); otherwise it is left untouched.
     */
    bool Access(uint32_t addr, bool is_write, uint16_t pid = 0,
                uint32_t* writeback_addr = nullptr);

    /** Invalidates everything (a context-switch flush); dirty blocks of a
     *  write-back cache count as writebacks. */
    void Flush();

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }
    uint32_t num_sets() const { return sets_; }

  private:
    void Fill(uint32_t block, uint64_t tag_extra);

    struct Line {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t stamp = 0;  ///< LRU stamp or FIFO fill order
    };

    Line& Victim(uint32_t set);

    CacheConfig config_;
    uint32_t sets_;
    unsigned block_shift_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    Rng rng_;
    CacheStats stats_;
};

}  // namespace atum::cache

#endif  // ATUM_CACHE_CACHE_H_
