#include "analysis/compare.h"

#include "util/bitops.h"

namespace atum::analysis {

using cache::Cache;
using cache::CacheConfig;
using cache::DriverOptions;
using cache::TraceCacheDriver;

cache::CacheStats
SimulateCache(const std::vector<trace::Record>& records,
              const CacheConfig& config, const DriverOptions& options)
{
    Cache c(config);
    TraceCacheDriver driver(c, options);
    for (const trace::Record& r : records)
        driver.Feed(r);
    return c.stats();
}

SampledStats
SetSampledMissRate(const std::vector<trace::Record>& records,
                   const CacheConfig& config, const DriverOptions& options,
                   unsigned sample_shift)
{
    Cache c(config);
    const uint32_t sets = c.num_sets();
    const uint32_t sample_mask = (1u << sample_shift) - 1;
    const unsigned block_shift = Log2Floor(config.block_bytes);

    cache::RecordFilter filter(options);
    SampledStats stats;
    for (const trace::Record& r : records) {
        const cache::Selection selection = filter.Select(r);
        if (selection == cache::Selection::kSwitch && options.flush_on_switch)
            c.Flush();
        if (selection != cache::Selection::kFed)
            continue;
        const uint32_t set = (r.addr >> block_shift) & (sets - 1);
        // Hash-select sets: alignment-free sampling (see header).
        const uint32_t pick = (set * 2654435761u) >> 16;
        if ((pick & sample_mask) != 0)
            continue;  // not a sampled set
        ++stats.sampled_accesses;
        if (!c.Access(r.addr, r.type == trace::RecordType::kWrite,
                      filter.TagPid(r))) {
            ++stats.sampled_misses;
        }
    }
    return stats;
}

}  // namespace atum::analysis
