#ifndef ATUM_TLBSIM_TLB_SIM_H_
#define ATUM_TLBSIM_TLB_SIM_H_

/**
 * @file
 * Trace-driven TLB simulation (experiment T4): how big a translation
 * buffer must be once operating-system references and context-switch
 * flushes are accounted for — one of the questions ATUM's full-system
 * traces made answerable.
 */

#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "util/status.h"

namespace atum::tlbsim {

struct TlbSimConfig {
    uint32_t entries = 64;
    uint32_t ways = 0;  ///< 0 = fully associative
    bool include_kernel = true;
    bool include_pte = false;        ///< PTE refs are physical; usually skip
    bool flush_on_switch = true;     ///< no ASIDs, VAX-style
    bool flush_system_too = false;   ///< flush S0 entries as well
};

/**
 * Checks a TLB geometry without constructing; TlbSim's constructor
 * Fatals on the same conditions. Sweep workers validate first so a bad
 * row errors out instead of killing the whole sweep.
 */
util::Status ValidateConfig(const TlbSimConfig& config);

struct TlbSimStats {
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t flushes = 0;

    double MissRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

class TlbSim
{
  public:
    explicit TlbSim(const TlbSimConfig& config);

    /** Feeds one trace record, in order. */
    void Feed(const trace::Record& record);

    const TlbSimStats& stats() const { return stats_; }

  private:
    struct Entry {
        bool valid = false;
        uint32_t vpn = 0;
        uint64_t stamp = 0;
    };

    void Access(uint32_t vaddr);
    void FlushProcess();

    TlbSimConfig config_;
    uint32_t sets_;
    uint32_t ways_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;
    TlbSimStats stats_;
};

}  // namespace atum::tlbsim

#endif  // ATUM_TLBSIM_TLB_SIM_H_
