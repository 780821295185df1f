#include "cache/trace_driver.h"

#include "util/logging.h"

namespace atum::cache {

using trace::Record;
using trace::RecordType;

TraceCacheDriver::TraceCacheDriver(Cache& unified,
                                   const DriverOptions& options,
                                   Cache* icache)
    : dcache_(unified), icache_(icache), options_(options)
{
}

void
TraceCacheDriver::Feed(const Record& record)
{
    if (record.type == RecordType::kCtxSwitch) {
        current_pid_ = record.info;
        if (options_.flush_on_switch) {
            dcache_.Flush();
            if (icache_ != nullptr)
                icache_->Flush();
        }
        return;
    }
    if (!record.IsMemory())
        return;

    if (record.type == RecordType::kPte && !options_.include_pte) {
        ++filtered_;
        return;
    }
    if (record.kernel() && !options_.include_kernel) {
        ++filtered_;
        return;
    }
    if (record.type == RecordType::kIFetch && !options_.include_ifetch) {
        ++filtered_;
        return;
    }
    if (options_.only_pid != 0 && !record.kernel() &&
        current_pid_ != options_.only_pid) {
        ++filtered_;
        return;
    }

    // Kernel references tag as pid 0: the system region is shared, so a
    // PID-tagged cache keeps one copy, as the 8200-era studies modelled.
    const uint16_t pid = record.kernel() ? 0 : current_pid_;
    const bool is_write = record.type == RecordType::kWrite;
    if (record.type == RecordType::kIFetch && icache_ != nullptr)
        icache_->Access(record.addr, false, pid);
    else
        dcache_.Access(record.addr, is_write, pid);
    ++fed_;
}

}  // namespace atum::cache
