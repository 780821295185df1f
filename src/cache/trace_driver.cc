#include "cache/trace_driver.h"

#include "util/logging.h"

namespace atum::cache {

using trace::Record;
using trace::RecordType;

RecordFilter::RecordFilter(const DriverOptions& options)
    : only_pid_(options.only_pid)
{
    for (unsigned i = 0; i < 512; ++i) {
        const auto type = static_cast<RecordType>(i >> 1);
        const bool kernel = (i & 1) != 0;
        Selection& s = table_[i];
        if (type == RecordType::kCtxSwitch)
            s = Selection::kSwitch;
        else if (type != RecordType::kIFetch && type != RecordType::kRead &&
                 type != RecordType::kWrite && type != RecordType::kPte)
            s = Selection::kSkipped;
        else if (type == RecordType::kPte && !options.include_pte)
            s = Selection::kFiltered;
        else if (kernel && !options.include_kernel)
            s = Selection::kFiltered;
        else if (type == RecordType::kIFetch && !options.include_ifetch)
            s = Selection::kFiltered;
        else
            s = Selection::kFed;  // only_pid is tested per record
    }
}

TraceCacheDriver::TraceCacheDriver(Cache& unified,
                                   const DriverOptions& options,
                                   Cache* icache)
    : dcache_(unified),
      icache_(icache),
      flush_on_switch_(options.flush_on_switch),
      filter_(options)
{
}

void
TraceCacheDriver::Feed(const Record& record)
{
    switch (filter_.Select(record)) {
      case Selection::kSwitch:
        if (flush_on_switch_) {
            dcache_.Flush();
            if (icache_ != nullptr)
                icache_->Flush();
        }
        return;
      case Selection::kSkipped:
        return;
      case Selection::kFiltered:
        ++filtered_;
        return;
      case Selection::kFed:
        break;
    }

    const uint16_t pid = filter_.TagPid(record);
    const bool is_write = record.type == RecordType::kWrite;
    if (record.type == RecordType::kIFetch && icache_ != nullptr)
        icache_->Access(record.addr, false, pid);
    else
        dcache_.Access(record.addr, is_write, pid);
    ++fed_;
}

}  // namespace atum::cache
