#include "core/atum_tracer.h"

#include <chrono>

#include "obs/flight.h"
#include "obs/spans.h"
#include "util/json.h"
#include "util/logging.h"

namespace atum::core {

using trace::Record;
using ucode::MemAccess;

AtumTracer::AtumTracer(cpu::Machine& machine, trace::TraceSink& sink,
                       const AtumConfig& config)
    : machine_(machine),
      sink_(sink),
      config_(config),
      drain_hist_(&obs::Registry::Global().GetHistogram("tracer.drain_us"))
{
    if (config_.buffer_bytes < trace::kRecordBytes)
        Fatal("trace buffer too small: ", config_.buffer_bytes);
    buf_base_ = machine_.memory().ReserveTop(config_.buffer_bytes);
    buf_bytes_ = config_.buffer_bytes;
}

AtumTracer::~AtumTracer()
{
    Detach();
    machine_.memory().Unreserve();
}

void
AtumTracer::Attach()
{
    machine_.control_store().Install(*this);
}

void
AtumTracer::Detach()
{
    if (attached())
        machine_.control_store().Remove();
}

uint32_t
AtumTracer::OnMemAccess(const MemAccess& access)
{
    return Append(trace::FromMemAccess(access));
}

uint32_t
AtumTracer::OnContextSwitch(uint16_t pid, uint32_t pcb_pa)
{
    return Append(trace::MakeCtxSwitch(pid, pcb_pa));
}

uint32_t
AtumTracer::OnTlbMiss(uint32_t vaddr, bool kernel)
{
    return Append(trace::MakeTlbMiss(vaddr, kernel));
}

uint32_t
AtumTracer::OnException(uint8_t vector)
{
    return Append(trace::MakeException(vector));
}

uint32_t
AtumTracer::OnDecode(uint32_t pc, uint8_t opcode, bool kernel)
{
    if (!config_.record_opcodes)
        return 0;
    return Append(trace::MakeOpcode(pc, opcode, kernel));
}

uint32_t
AtumTracer::Append(const Record& record)
{
    // The patch micro-routine: pack the record and store it into the
    // reserved region with physical writes, then bump the buffer head.
    uint8_t bytes[trace::kRecordBytes];
    trace::PackRecord(record, bytes);
    machine_.memory().WriteBlock(buf_base_ + head_, bytes, sizeof bytes);
    head_ += trace::kRecordBytes;
    ++records_;

    uint32_t cost = config_.cost_per_record;
    if (head_ + trace::kRecordBytes > buf_bytes_)
        cost += Drain();
    overhead_ucycles_ += cost;
    return cost;
}

util::Status
AtumTracer::DeliverRange(uint32_t* delivered, uint32_t total)
{
    // The machine is "frozen" while the host reads the buffer back out of
    // physical memory — the console extraction step of the paper.
    uint8_t bytes[trace::kRecordBytes];
    while (*delivered < total) {
        machine_.memory().ReadBlock(
            buf_base_ + *delivered * trace::kRecordBytes, bytes,
            sizeof bytes);
        util::Status status = sink_.Append(trace::UnpackRecord(bytes));
        if (!status.ok())
            return status;
        ++*delivered;  // a failed Append consumed nothing; resume here
    }
    return util::OkStatus();
}

bool
AtumTracer::TryRecover()
{
    // Probe the sink with the loss marker it is owed. Success ends the
    // degrade episode and documents the gap in-stream, so consumers can
    // resynchronize instead of silently analyzing a torn trace.
    const uint32_t lost =
        lost_records_ > UINT32_MAX ? UINT32_MAX
                                   : static_cast<uint32_t>(lost_records_);
    if (!sink_.Append(trace::MakeLoss(lost,
                                      static_cast<uint16_t>(loss_events_)))
             .ok())
        return false;
    degraded_ = false;
    Inform("trace sink recovered after ", lost_records_,
           " lost records; capture resumed");
    return true;
}

uint32_t
AtumTracer::Drain()
{
    const uint32_t total = head_ / trace::kRecordBytes;
    head_ = 0;
    ++buffer_fills_;

    if (degraded_ && !TryRecover()) {
        // Counting-only capture: the machine keeps running undisturbed,
        // the buffered records are tallied as lost, and no extraction
        // pause is charged (there is no extraction).
        lost_records_ += total;
        return 0;
    }

    uint32_t pause = kDrainPauseUcycles;
    uint32_t delivered = 0;
    ATUM_SPAN_NAMED(drain_span, "tracer", "drain");
    drain_span.set_arg("records", total);
    const uint64_t t0_ns = obs::MonotonicNowNs();
    const auto t0 = std::chrono::steady_clock::now();
    util::Status status = DeliverRange(&delivered, total);
    for (uint32_t retry = 0;
         !status.ok() && status.code() != util::StatusCode::kNoSpace &&
         retry < kDrainMaxRetries;
         ++retry) {
        // Bounded backoff: the freeze lengthens 1x, 2x, 4x... while the
        // host-side sink sorts itself out. ENOSPC skips this: a full
        // disk will not recover within a freeze, so degrade immediately.
        pause += kDrainRetryUcycles << retry;
        ++drain_retries_;
        status = DeliverRange(&delivered, total);
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    drain_hist_->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    if (profiler_ != nullptr) {
        // Drains run inside a traced instruction (Append → Drain), so
        // the window that caught one must not scale it by N: account the
        // wall time exactly and excise it from the sample.
        const uint64_t drain_ns = obs::MonotonicNowNs() - t0_ns;
        profiler_->AddExact(obs::Phase::kDrain, drain_ns);
        profiler_->SkipTime(drain_ns);
    }
    if (!status.ok()) {
        degraded_ = true;
        ++loss_events_;
        if (status.code() == util::StatusCode::kNoSpace)
            ++enospc_events_;
        lost_records_ += total - delivered;
        last_drain_error_ = status;
        // One structured line so log scrapers can alert on degrades
        // without parsing prose.
        util::JsonWriter w;
        w.BeginObject();
        w.KeyValue("event", "trace-drain-degrade");
        w.KeyValue("episode", static_cast<uint64_t>(loss_events_));
        w.KeyValue("retries", static_cast<uint64_t>(kDrainMaxRetries));
        w.KeyValue("delivered", static_cast<uint64_t>(delivered));
        w.KeyValue("lost", static_cast<uint64_t>(total - delivered));
        w.KeyValue("error", status.ToString());
        w.EndObject();
        Warn(w.str());
        // Post-mortem context: the degrade is one of the flight
        // recorder's dump triggers (docs/TRACING.md).
        obs::flight::Note("tracer.degrade", status.ToString().c_str(),
                          loss_events_, total - delivered);
        obs::flight::DumpNow("tracer-degrade");
    }
    return pause;
}

util::Status
AtumTracer::Flush()
{
    if (head_ != 0) {
        // The machine has already stopped: the final extraction pause is
        // not charged (matches the pre-Status accounting).
        (void)Drain();
        --buffer_fills_;  // a final partial drain is not a buffer fill
    } else if (degraded_) {
        TryRecover();  // still owe the stream its loss marker
    }
    if (degraded_ || lost_records_ > 0) {
        if (!last_drain_error_.ok())
            return last_drain_error_;
        return util::DataLoss(lost_records_, " records lost in ",
                              loss_events_, " sink-failure episodes");
    }
    return util::OkStatus();
}

void
AtumTracer::PublishMetrics(obs::Registry& reg) const
{
    reg.GetCounter("tracer.records").Set(records_);
    reg.GetCounter("tracer.buffer_fills").Set(buffer_fills_);
    reg.GetCounter("tracer.overhead_ucycles").Set(overhead_ucycles_);
    reg.GetCounter("tracer.lost_records").Set(lost_records_);
    reg.GetCounter("tracer.loss_events").Set(loss_events_);
    reg.GetCounter("tracer.enospc_events").Set(enospc_events_);
    reg.GetCounter("tracer.drain_retries").Set(drain_retries_);
    reg.GetGauge("tracer.degraded").Set(degraded_ ? 1 : 0);
    reg.GetGauge("tracer.buffered_records").Set(buffered_records());
}

util::Status
AtumTracer::Save(util::StateWriter& w) const
{
    w.U32(buf_base_);
    w.U32(buf_bytes_);
    w.U32(head_);
    w.Bool(attached());
    w.U64(records_);
    w.U64(buffer_fills_);
    w.U64(overhead_ucycles_);
    w.Bool(degraded_);
    w.U64(lost_records_);
    w.U32(loss_events_);
    w.U32(enospc_events_);
    w.U64(drain_retries_);
    w.U8(static_cast<uint8_t>(last_drain_error_.code()));
    w.Str(std::string(last_drain_error_.message()));
    return util::OkStatus();
}

util::Status
AtumTracer::Restore(util::StateReader& r)
{
    const uint32_t base = r.U32();
    const uint32_t bytes = r.U32();
    if (r.ok() && (base != buf_base_ || bytes != buf_bytes_))
        r.Fail(util::DataLoss(
            "checkpoint tracer buffer at ", base, "+", bytes,
            " does not match this tracer's reservation at ", buf_base_, "+",
            buf_bytes_, " (was the tracer built from the checkpoint meta?)"));
    const uint32_t head = r.U32();
    if (r.ok() && (head > buf_bytes_ || head % trace::kRecordBytes != 0))
        r.Fail(util::DataLoss("checkpoint buffer cursor ", head,
                              " outside the ", buf_bytes_, "-byte buffer"));
    // The saved attach flag is informational only: microcode patches are
    // live objects on this process's control store, so the caller (not
    // the checkpoint) decides when to Attach() the restored tracer.
    (void)r.Bool();
    const uint64_t records = r.U64();
    const uint64_t fills = r.U64();
    const uint64_t overhead = r.U64();
    const bool degraded = r.Bool();
    const uint64_t lost = r.U64();
    const uint32_t loss_events = r.U32();
    const uint32_t enospc_events = r.U32();
    const uint64_t retries = r.U64();
    const auto code = static_cast<util::StatusCode>(r.U8());
    const std::string message = r.Str();
    if (!r.ok())
        return r.status();

    head_ = head;
    records_ = records;
    buffer_fills_ = fills;
    overhead_ucycles_ = overhead;
    degraded_ = degraded;
    lost_records_ = lost;
    loss_events_ = loss_events;
    enospc_events_ = enospc_events;
    drain_retries_ = retries;
    last_drain_error_ = code == util::StatusCode::kOk
                            ? util::OkStatus()
                            : util::Status(code, message);
    return util::OkStatus();
}

}  // namespace atum::core
