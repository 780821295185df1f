#include "bench_spans.h"

#include <cstdio>

#include "io/vfs.h"
#include "obs/spans.h"
#include "util/logging.h"

namespace atum::perfbench {

uint32_t
SpanRecorder::Begin(const char* name, uint64_t start_ns)
{
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    spans_.push_back(
        {name, start_ns, 0, open_.empty() ? kNoParent : open_.back()});
    open_.push_back(id);
    return id;
}

void
SpanRecorder::End(uint32_t id, uint64_t end_ns)
{
    if (open_.empty() || open_.back() != id)
        Fatal("perfbench: span ", spans_[id].name, " closed out of order");
    open_.pop_back();
    spans_[id].end_ns = end_ns;
}

util::Status
SpanRecorder::Write(const std::string& path) const
{
    obs::SpanDump dump;
    dump.threads.emplace_back(1, "perfbench");
    for (uint32_t id = 0; id < spans_.size(); ++id) {
        const Span& s = spans_[id];
        if (s.end_ns == 0)
            continue;
        obs::SpanEvent e;
        e.name = s.name;
        e.category = "perfbench";
        e.start_ns = s.start_ns;
        e.dur_ns = s.end_ns - s.start_ns;
        e.tid = 1;
        std::snprintf(e.detail, sizeof(e.detail), "run=%s", run_id_.c_str());
        e.arg_name0 = "id";
        e.arg0 = id;
        // Roots carry parent = id, so every span names one.
        e.arg_name1 = "parent";
        e.arg1 = s.parent == kNoParent ? id : s.parent;
        dump.events.push_back(e);
    }
    dump.recorded = dump.events.size();
    const std::string json = obs::SpansToChromeJson(dump, "atum-perfbench");
    auto file = io::RealVfs().Create(path);
    if (!file.ok())
        return file.status();
    if (util::Status s = (*file)->Write(json.data(), json.size()); !s.ok())
        return s;
    return (*file)->Close();
}

}  // namespace atum::perfbench
