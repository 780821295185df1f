#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "obs/flight.h"
#include "util/logging.h"

namespace atum::core {

namespace {

SessionResult
RunCommon(cpu::Machine& machine, uint64_t max_instructions)
{
    SessionResult result;
    const uint64_t ucycles_before = machine.ucycles();
    const auto run = machine.Run(max_instructions);
    result.instructions = run.instructions;
    result.ucycles = machine.ucycles() - ucycles_before;
    result.halted = run.reason == cpu::Machine::StopReason::kHalted;
    return result;
}

void
FillTracerStats(SessionResult& result, AtumTracer& tracer)
{
    result.records = tracer.records();
    result.buffer_fills = tracer.buffer_fills();
    result.overhead_ucycles = tracer.overhead_ucycles();
    result.lost_records = tracer.lost_records();
    result.loss_events = tracer.loss_events();
    result.degraded = tracer.degraded();
}

}  // namespace

Capture::Capture(std::unique_ptr<trace::FileSink> sink,
                 const cpu::Machine::Config& machine_config,
                 const AtumConfig& tracer_config)
    : sink_(std::move(sink)), machine_(machine_config),
      tracer_(machine_, *sink_, tracer_config)
{
}

util::StatusOr<std::unique_ptr<Capture>>
Capture::Start(const std::string& path,
               const cpu::Machine::Config& machine_config,
               const AtumConfig& tracer_config, uint32_t chunk_records,
               io::Vfs& vfs)
{
    util::StatusOr<std::unique_ptr<trace::FileSink>> sink =
        trace::FileSink::Open(path, trace::Atf2WriterOptions{chunk_records},
                              vfs);
    if (!sink.ok())
        return sink.status();
    return std::unique_ptr<Capture>(
        new Capture(std::move(*sink), machine_config, tracer_config));
}

util::StatusOr<std::unique_ptr<Capture>>
Capture::Resume(const Checkpoint& checkpoint, const std::string& path,
                io::Vfs& vfs)
{
    const CheckpointMeta& meta = checkpoint.meta();
    if (!meta.has_sink_state)
        return util::DataLoss("checkpoint carries no trace-sink state; "
                              "nothing to resume into");
    const std::string& trace_path = path.empty() ? meta.trace_path : path;
    util::StatusOr<std::unique_ptr<trace::FileSink>> sink =
        trace::FileSink::OpenResumed(trace_path, checkpoint.sink_state(),
                                     vfs);
    if (!sink.ok())
        return util::Status(sink.status().code(),
                            "reopening " + trace_path + ": " +
                                sink.status().message());
    std::unique_ptr<Capture> capture(new Capture(
        std::move(*sink), meta.machine_config, meta.tracer_config));
    util::Status status = checkpoint.RestoreMachine(capture->machine_);
    if (status.ok())
        status = checkpoint.RestoreTracer(capture->tracer_);
    if (!status.ok())
        return util::Status(status.code(),
                            "restoring capture state: " + status.message());
    capture->resumed_ = true;
    capture->remaining_ = meta.instructions_remaining;
    capture->next_sequence_ = meta.sequence + 1;
    return capture;
}

util::StatusOr<std::unique_ptr<Capture>>
Capture::Resume(const std::string& checkpoint_path, const std::string& path,
                io::Vfs& vfs)
{
    util::StatusOr<Checkpoint> checkpoint =
        Checkpoint::Load(checkpoint_path, vfs);
    if (!checkpoint.ok())
        return util::Status(checkpoint.status().code(),
                            "loading " + checkpoint_path + ": " +
                                checkpoint.status().message());
    return Resume(*checkpoint, path, vfs);
}

void
PublishCaptureMetrics(obs::Registry& reg, const cpu::Machine& machine,
                      const AtumTracer& tracer, const trace::FileSink* sink)
{
    machine.PublishMetrics(reg);
    tracer.PublishMetrics(reg);
    if (sink)
        sink->PublishMetrics(reg);
}

const char*
StopCauseName(StopCause cause)
{
    switch (cause) {
    case StopCause::kHalted:
        return "halted";
    case StopCause::kInstrLimit:
        return "instr-limit";
    case StopCause::kDeadline:
        return "deadline";
    case StopCause::kWatchdog:
        return "watchdog";
    case StopCause::kSignal:
        return "signal";
    }
    return "?";
}

SessionResult
RunTraced(cpu::Machine& machine, AtumTracer& tracer,
          uint64_t max_instructions)
{
    if (!tracer.attached())
        tracer.Attach();
    SessionResult result = RunCommon(machine, max_instructions);
    result.drain_status = tracer.Flush();
    result.stop_cause =
        result.halted ? StopCause::kHalted : StopCause::kInstrLimit;
    FillTracerStats(result, tracer);
    return result;
}

SessionResult
RunBaseline(cpu::Machine& machine, UserOnlyTracer& tracer,
            uint64_t max_instructions)
{
    if (!tracer.attached())
        tracer.Attach();
    SessionResult result = RunCommon(machine, max_instructions);
    result.stop_cause =
        result.halted ? StopCause::kHalted : StopCause::kInstrLimit;
    result.records = tracer.records();
    result.lost_records = tracer.lost_records();
    return result;
}

SessionResult
RunUntraced(cpu::Machine& machine, uint64_t max_instructions)
{
    SessionResult result = RunCommon(machine, max_instructions);
    result.stop_cause =
        result.halted ? StopCause::kHalted : StopCause::kInstrLimit;
    return result;
}

SessionResult
RunSupervised(cpu::Machine& machine, AtumTracer& tracer,
              const SupervisorOptions& options)
{
    using Clock = std::chrono::steady_clock;

    if (!tracer.attached())
        tracer.Attach();

    SessionResult result;
    const uint64_t ucycles_before = machine.ucycles();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::milliseconds(options.deadline_ms);

    // Watchdog anchor: the micro-cycle stamp of the last clean (i.e.
    // non-faulting) retirement. Faulting dispatches advance icount too,
    // so icount alone cannot distinguish a wedged exception loop from a
    // busy guest; LastStepFaulted can.
    uint64_t last_progress_ucycles = machine.ucycles();
    uint64_t fills_at_last_checkpoint = tracer.buffer_fills();
    StopCause cause = StopCause::kInstrLimit;
    bool stopped = false;

    obs::Registry& registry =
        options.registry ? *options.registry : obs::Registry::Global();
    obs::Counter& checkpoint_counter =
        registry.GetCounter("supervisor.checkpoints");
    obs::Histogram& checkpoint_us =
        registry.GetHistogram("supervisor.checkpoint_us");
    obs::Gauge& watchdog_slack =
        registry.GetGauge("supervisor.watchdog_slack_ucycles");

    // Publishes every layer and, when streaming is on, hands the emitter
    // a chance to write a snapshot line. All of this runs on the machine
    // thread at drain-safe boundaries, so publishing plain members races
    // with nothing.
    const auto publish = [&] {
        PublishCaptureMetrics(registry, machine, tracer, options.file_sink);
        if (options.watchdog_ucycles != 0) {
            const uint64_t since =
                machine.ucycles() - last_progress_ucycles;
            watchdog_slack.Set(
                since >= options.watchdog_ucycles
                    ? 0
                    : static_cast<int64_t>(options.watchdog_ucycles - since));
        }
    };

    obs::PhaseProfiler* const profiler = options.profiler;

    const auto take_checkpoint = [&](uint64_t instructions_done) {
        ATUM_SPAN_NAMED(cp_span, "supervisor", "checkpoint");
        const uint64_t cp_start_ns = obs::MonotonicNowNs();
        const auto cp_start = Clock::now();
        CheckpointMeta meta;
        meta.machine_config = machine.config();
        meta.tracer_config = tracer.config();
        if (options.file_sink)
            meta.trace_path = options.file_sink->path();
        meta.instructions = machine.icount();
        meta.instructions_remaining =
            options.max_instructions == UINT64_MAX
                ? UINT64_MAX
                : options.max_instructions - instructions_done;
        util::Status status;
        if (options.file_sink) {
            util::StatusOr<trace::Atf2ResumeState> sink_state =
                options.file_sink->SaveState();
            if (sink_state.ok()) {
                meta.has_sink_state = true;
                status = options.checkpoints->Write(meta, machine, tracer,
                                                    &*sink_state);
            } else {
                status = sink_state.status();
            }
        } else {
            status =
                options.checkpoints->Write(meta, machine, tracer, nullptr);
        }
        if (!status.ok()) {
            // The capture goes on: losing checkpoint coverage is strictly
            // better than losing the capture.
            if (result.checkpoint_status.ok())
                result.checkpoint_status = status;
            Warn("checkpoint write failed (capture continues): ",
                 status.ToString());
        }
        fills_at_last_checkpoint = tracer.buffer_fills();
        checkpoint_counter.Add(1);
        checkpoint_us.Add(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - cp_start)
                .count()));
        cp_span.set_arg("instructions", machine.icount());
        if (profiler != nullptr) {
            // Exact-timed and excised from any open sampled window, so
            // scaling by N cannot multiply a checkpoint publish.
            const uint64_t cp_ns = obs::MonotonicNowNs() - cp_start_ns;
            profiler->AddExact(obs::Phase::kCheckpoint, cp_ns);
            profiler->SkipTime(cp_ns);
        }
        if (options.emitter) {
            const uint64_t io_start_ns = obs::MonotonicNowNs();
            publish();
            options.emitter->Emit("checkpoint");
            if (profiler != nullptr) {
                const uint64_t io_ns =
                    obs::MonotonicNowNs() - io_start_ns;
                profiler->AddExact(obs::Phase::kIo, io_ns);
                profiler->SkipTime(io_ns);
            }
        }
    };

    if (options.emitter) {
        publish();
        options.emitter->Emit("start");
    }

    // The profiler rides along for the whole supervised run: the machine
    // attributes translate/memory/tracer time and the tracer its drains
    // while a sampled window is open.
    if (profiler != nullptr) {
        machine.SetPhaseProfiler(profiler);
        tracer.SetPhaseProfiler(profiler);
        profiler->BeginRun();
    }

    uint64_t executed = 0;
    while (!stopped && !machine.halted() &&
           executed < options.max_instructions) {
        ATUM_SPAN_NAMED(slice_span, "supervisor", "slice");
        // One supervision slice: instruction-by-instruction so the
        // watchdog and checkpoint policy see every boundary, but all
        // host-side clock/flag checks stay out here at slice granularity.
        const uint64_t slice_end =
            executed + std::min(options.slice_instructions,
                                options.max_instructions - executed);
        while (!machine.halted() && executed < slice_end) {
            // The sampled window covers the instruction *and* its
            // supervision checks; the remainder outside nested phases is
            // the dispatch cost the rewrite PR wants to shrink.
            if (profiler != nullptr)
                profiler->BeginSample();
            machine.StepOne();
            ++executed;
            if (!machine.LastStepFaulted())
                last_progress_ucycles = machine.ucycles();
            else if (options.watchdog_ucycles != 0 &&
                     machine.ucycles() - last_progress_ucycles >
                         options.watchdog_ucycles) {
                cause = StopCause::kWatchdog;
                stopped = true;
                Warn("watchdog: no clean instruction retirement in ",
                     machine.ucycles() - last_progress_ucycles,
                     " ucycles; stopping capture");
                // The flight dump is the post-mortem: its last event
                // names the failure the run journal will report.
                obs::flight::Note("supervisor.watchdog", nullptr,
                                  machine.ucycles() - last_progress_ucycles,
                                  machine.icount());
                obs::flight::DumpNow("watchdog");
                break;
            }
            if (options.checkpoints &&
                tracer.buffer_fills() - fills_at_last_checkpoint >=
                    options.checkpoint_every_fills)
                take_checkpoint(executed);
            if (options.kill_after_fills != 0 &&
                tracer.buffer_fills() >= options.kill_after_fills) {
                // Test hook: vanish exactly as SIGKILL would — no
                // destructors, no seal, no final checkpoint. 137 is the
                // shell's exit code for a SIGKILLed process.
                std::_Exit(137);
            }
            if (profiler != nullptr)
                profiler->EndSample();
        }
        if (profiler != nullptr)
            profiler->EndSample();  // close a window left open by `break`
        slice_span.set_arg("executed", executed);
        if (options.emitter) {
            const uint64_t io_start_ns = obs::MonotonicNowNs();
            publish();
            options.emitter->MaybeEmit("interval");
            if (profiler != nullptr)
                profiler->AddExact(obs::Phase::kIo,
                                   obs::MonotonicNowNs() - io_start_ns);
        }
        if (options.on_slice)
            options.on_slice();
        if (stopped)
            break;
        if (options.stop_flag && *options.stop_flag != 0) {
            cause = StopCause::kSignal;
            break;
        }
        if (options.deadline_ms != 0 && Clock::now() >= deadline) {
            cause = StopCause::kDeadline;
            break;
        }
    }
    if (machine.halted())
        cause = StopCause::kHalted;

    result.instructions = executed;
    result.ucycles = machine.ucycles() - ucycles_before;
    result.halted = machine.halted();
    result.stop_cause = cause;

    // Seal order matters for resumability: the final checkpoint is taken
    // *before* the final drain, so the trace bytes the drain appends are
    // past the checkpoint's high-water mark — a resume truncates them
    // away and replays the identical drain. Flushing first would leave
    // the final records un-resumable.
    if (options.checkpoints)
        take_checkpoint(executed);

    {
        ATUM_SPAN("supervisor", "flush");
        result.drain_status = tracer.Flush();
    }
    FillTracerStats(result, tracer);
    if (options.checkpoints) {
        result.checkpoints_written = options.checkpoints->written();
        result.last_checkpoint = options.checkpoints->last_path();
    }
    // Final publish happens even without an emitter so the global
    // registry's counters are current for the caller's run manifest.
    publish();
    if (options.emitter)
        options.emitter->Emit("final");
    if (profiler != nullptr) {
        profiler->EndRun();
        machine.SetPhaseProfiler(nullptr);
        tracer.SetPhaseProfiler(nullptr);
    }
    return result;
}

}  // namespace atum::core
