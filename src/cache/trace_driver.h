#ifndef ATUM_CACHE_TRACE_DRIVER_H_
#define ATUM_CACHE_TRACE_DRIVER_H_

/**
 * @file
 * Feeds ATUM trace records into cache models, with the filtering options
 * the paper's comparisons require (full-system vs user-only, unified vs
 * split I/D, flush-on-switch vs PID-tagged).
 */

#include <cstdint>

#include "cache/cache.h"
#include "trace/record.h"

namespace atum::cache {

/** Record filtering and multiprogramming discipline. */
struct DriverOptions {
    bool include_kernel = true;  ///< false models user-only trace studies
    bool include_ifetch = true;
    /** PTE references carry physical addresses; including them in a
     *  virtually-addressed cache is usually wrong, so default off. */
    bool include_pte = false;
    bool flush_on_switch = false;  ///< flush caches at context switches
    uint16_t only_pid = 0;         ///< nonzero: keep just this process
};

class TraceCacheDriver
{
  public:
    /**
     * `unified` receives all selected references. Pass a separate
     * `icache` to split the instruction stream off into it. Caches are
     * borrowed and must outlive the driver.
     */
    explicit TraceCacheDriver(Cache& unified, const DriverOptions& options,
                              Cache* icache = nullptr);

    /** Feeds one record (records must arrive in trace order). */
    void Feed(const trace::Record& record);

    /** References accepted (fed into a cache). */
    uint64_t fed() const { return fed_; }
    /** References rejected by the filters. */
    uint64_t filtered() const { return filtered_; }
    uint16_t current_pid() const { return current_pid_; }

  private:
    Cache& dcache_;
    Cache* icache_;
    DriverOptions options_;
    uint16_t current_pid_ = 0;
    uint64_t fed_ = 0;
    uint64_t filtered_ = 0;
};

}  // namespace atum::cache

#endif  // ATUM_CACHE_TRACE_DRIVER_H_
