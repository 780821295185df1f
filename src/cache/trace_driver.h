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

/** What the driver's filters make of one record. */
enum class Selection : uint8_t {
    kSwitch,    ///< context-switch marker: the current pid has changed
    kSkipped,   ///< not a memory reference, and not counted
    kFiltered,  ///< a memory reference the options reject
    kFed,       ///< a memory reference for the cache
};

/**
 * The one record-selection rule for cache replay, shared by
 * TraceCacheDriver and the sweep's stack replay. It follows the running
 * process through context-switch markers. The type and mode tests are
 * folded into a table at construction, so Select costs one load and no
 * unpredictable branch on the replay hot path.
 */
class RecordFilter
{
  public:
    explicit RecordFilter(const DriverOptions& options);

    /** Classifies one record; records must arrive in trace order. */
    Selection Select(const trace::Record& record)
    {
        Selection s = table_[static_cast<unsigned>(record.type) << 1 |
                             (record.flags & trace::kFlagKernel)];
        if (s == Selection::kSwitch)
            current_pid_ = record.info;
        if (s == Selection::kFed && only_pid_ != 0 && !record.kernel() &&
            current_pid_ != only_pid_)
            s = Selection::kFiltered;
        return s;
    }

    /**
     * The pid a fed reference tags with. Kernel references tag as pid 0:
     * the system region is shared, so a PID-tagged cache keeps one copy,
     * as the 8200-era studies modelled.
     */
    uint16_t TagPid(const trace::Record& record) const
    {
        return record.kernel() ? 0 : current_pid_;
    }

  private:
    Selection table_[512];  ///< by record type << 1 | kernel flag
    uint16_t only_pid_;
    uint16_t current_pid_ = 0;
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

  private:
    Cache& dcache_;
    Cache* icache_;
    bool flush_on_switch_;
    RecordFilter filter_;
    uint64_t fed_ = 0;
    uint64_t filtered_ = 0;
};

}  // namespace atum::cache

#endif  // ATUM_CACHE_TRACE_DRIVER_H_
