#include "analysis/mix.h"

#include "analysis/working_set.h"

namespace atum::analysis {

using trace::Record;
using trace::RecordType;

void
FootprintAnalyzer::Feed(const Record& record)
{
    if (record.type == RecordType::kCtxSwitch) {
        current_pid_ = record.info;
        return;
    }
    if (!record.IsMemory() || record.type == RecordType::kPte)
        return;
    const uint32_t page = PageOf(record);
    all_pages_.insert(page);
    if (record.kernel()) {
        kernel_pages_.insert(page);
    } else {
        user_pages_.insert(page);
        per_pid_pages_[current_pid_].insert(page);
    }
}

}  // namespace atum::analysis
