#ifndef ATUM_PERFBENCH_BENCH_SPANS_H_
#define ATUM_PERFBENCH_BENCH_SPANS_H_

/**
 * @file
 * Benchmark-side spans around the calls into each layer. The recorder
 * keeps every span in memory (name, start, end, parent, run id) and
 * writes them once, at exit, as Chrome trace-event JSON in the shape
 * `atum-report --spans` emits (obs::SpansToChromeJson).
 *
 * Stage times come from the same Timer in traced and untraced runs; the
 * untraced run passes a null recorder, so it records nothing.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace atum::perfbench {

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}

    /** Opens a span whose parent is the innermost open one. `name` must
     *  be a string literal (the exporter keeps the pointer). */
    uint32_t Begin(const char* name, uint64_t start_ns);
    void End(uint32_t id, uint64_t end_ns);

    size_t size() const { return spans_.size(); }

    /** Writes every closed span to `path` as Chrome trace-event JSON. */
    util::Status Write(const std::string& path) const;

  private:
    static constexpr uint32_t kNoParent = UINT32_MAX;

    struct Span {
        const char* name;
        uint64_t start_ns;
        uint64_t end_ns;
        uint32_t parent;
    };

    std::string run_id_;
    std::vector<Span> spans_;
    std::vector<uint32_t> open_;
};

/** Monotonic nanoseconds on steady_clock. */
inline uint64_t
NowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Times one stage and, when a recorder is given, records it as a span.
 * Stop() is idempotent and returns the stage's seconds.
 */
class Timer
{
  public:
    Timer(SpanRecorder* recorder, const char* name)
        : recorder_(recorder), start_ns_(NowNs())
    {
        if (recorder_ != nullptr)
            id_ = recorder_->Begin(name, start_ns_);
    }
    ~Timer() { Stop(); }

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    double Stop()
    {
        if (end_ns_ == 0) {
            end_ns_ = NowNs();
            if (recorder_ != nullptr)
                recorder_->End(id_, end_ns_);
        }
        return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
    }

  private:
    SpanRecorder* recorder_;
    uint64_t start_ns_;
    uint64_t end_ns_ = 0;
    uint32_t id_ = 0;
};

}  // namespace atum::perfbench

#endif  // ATUM_PERFBENCH_BENCH_SPANS_H_
