#ifndef ATUM_CORE_SESSION_H_
#define ATUM_CORE_SESSION_H_

/**
 * @file
 * Capture sessions: the capture stack (Capture — trace file, machine and
 * ATUM tracer, started fresh or resumed from a checkpoint), helpers that
 * run a prepared machine to completion under a tracer and collect the
 * capture-side statistics in one struct, and the supervised long-haul
 * run loop (RunSupervised) that adds periodic checkpoints, a deadman
 * watchdog, deadlines and graceful signal stops.
 *
 * Ordering note: an AtumTracer must be constructed *before* the guest
 * kernel is booted (its buffer reservation must be visible to the boot
 * loader's frame accounting), so the run helpers take an
 * already-constructed tracer and Capture::Start leaves booting to the
 * caller.
 */

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/atum_tracer.h"
#include "core/checkpoint.h"
#include "core/user_tracer.h"
#include "cpu/machine.h"
#include "io/vfs.h"
#include "obs/spans.h"
#include "obs/stats_emitter.h"
#include "trace/sink.h"
#include "util/status.h"

namespace atum::core {

/** Why a (supervised) capture run stopped. */
enum class StopCause {
    kHalted,     ///< guest executed HALT — normal completion
    kInstrLimit, ///< the instruction budget was exhausted
    kDeadline,   ///< wall-clock deadline reached (clean stop, resumable)
    kWatchdog,   ///< deadman fired: no clean retirement within budget
    kSignal,     ///< SIGINT/SIGTERM latched (clean stop, resumable)
};

/** Short lowercase name ("watchdog") for logs and reports. */
const char* StopCauseName(StopCause cause);

/** Outcome of one capture run. */
struct SessionResult {
    uint64_t instructions = 0;  ///< guest instructions executed
    uint64_t ucycles = 0;       ///< total micro-cycles (incl. tracing)
    bool halted = false;        ///< machine reached HALT
    uint64_t records = 0;       ///< trace records captured
    uint64_t buffer_fills = 0;  ///< full-buffer extraction pauses
    uint64_t overhead_ucycles = 0;  ///< micro-cycles charged by tracing
    uint64_t lost_records = 0;  ///< records dropped on a failing sink
    uint32_t loss_events = 0;   ///< distinct sink-failure episodes
    bool degraded = false;      ///< capture ended in counting-only mode

    // -- supervision outcome (RunSupervised only) --------------------------
    StopCause stop_cause = StopCause::kInstrLimit;
    uint32_t checkpoints_written = 0;
    std::string last_checkpoint;     ///< newest checkpoint file ("" if none)
    /** End-of-run drain health (AtumTracer::Flush). */
    util::Status drain_status;
    /** First checkpoint-write failure, if any (capture continues anyway). */
    util::Status checkpoint_status;
};

/**
 * The capture stack: the ATF2 trace file, the machine and its ATUM
 * tracer, owned together and built in the one valid order — sink, then
 * machine, then the tracer, whose buffer reservation must exist before a
 * kernel boots (Start) or a memory image is restored over it (Resume).
 * atum-capture, the serve daemon's capture jobs and the chaos capture
 * drill all build their stack here.
 */
class Capture
{
  public:
    /**
     * Creates the trace file `path` and an unbooted machine with the
     * tracer's buffer reserved; the caller boots a guest
     * (kernel::BootSystem) and runs it.
     */
    static util::StatusOr<std::unique_ptr<Capture>> Start(
        const std::string& path, const cpu::Machine::Config& machine_config,
        const AtumConfig& tracer_config, uint32_t chunk_records,
        io::Vfs& vfs = io::RealVfs());

    /**
     * Continues the capture `checkpoint` describes: truncates the trace
     * at `path` ("" = the trace the checkpoint names) back to its
     * high-water mark, builds machine and tracer from the checkpoint's
     * meta and restores both. kDataLoss when the checkpoint carries no
     * trace-sink state; otherwise the failing step's status.
     */
    static util::StatusOr<std::unique_ptr<Capture>> Resume(
        const Checkpoint& checkpoint, const std::string& path = "",
        io::Vfs& vfs = io::RealVfs());

    /** Resume() from the checkpoint file `checkpoint_path`; a load
     *  failure comes back with its code (kNotFound, kDataLoss, ...). */
    static util::StatusOr<std::unique_ptr<Capture>> Resume(
        const std::string& checkpoint_path, const std::string& path = "",
        io::Vfs& vfs = io::RealVfs());

    cpu::Machine& machine() { return machine_; }
    AtumTracer& tracer() { return tracer_; }
    trace::FileSink& sink() { return *sink_; }

    bool resumed() const { return resumed_; }

    /**
     * The instruction budget for this run. A started capture runs
     * `fresh_budget`. A resumed one runs what its checkpoint recorded as
     * remaining, under one rule: 0 means the budget is spent (the run
     * executes nothing and only replays the final drain) and UINT64_MAX
     * means unbounded. A resume never starts a second budget.
     */
    uint64_t Budget(uint64_t fresh_budget) const
    {
        return resumed_ ? remaining_ : fresh_budget;
    }

    /** Where the checkpoint series continues (1 for a fresh capture). */
    uint64_t next_sequence() const { return next_sequence_; }

  private:
    Capture(std::unique_ptr<trace::FileSink> sink,
            const cpu::Machine::Config& machine_config,
            const AtumConfig& tracer_config);

    std::unique_ptr<trace::FileSink> sink_;
    cpu::Machine machine_;
    AtumTracer tracer_;
    bool resumed_ = false;
    uint64_t remaining_ = UINT64_MAX;
    uint64_t next_sequence_ = 1;
};

/** Runs with ATUM microcode tracing attached; flushes the buffer at end. */
SessionResult RunTraced(cpu::Machine& machine, AtumTracer& tracer,
                        uint64_t max_instructions);

/** Runs with the user-only baseline tracer attached. */
SessionResult RunBaseline(cpu::Machine& machine, UserOnlyTracer& tracer,
                          uint64_t max_instructions);

/** Runs without any tracer (for slowdown comparisons). */
SessionResult RunUntraced(cpu::Machine& machine, uint64_t max_instructions);

/** Knobs for the supervised long-haul run loop. */
struct SupervisorOptions {
    /** Guest instruction budget. */
    uint64_t max_instructions = UINT64_MAX;

    /**
     * Supervision granularity: signals, deadlines and the wall clock are
     * checked every this many instructions (a safe drain boundary). Small
     * enough to stop promptly, large enough to stay off the hot path.
     */
    uint64_t slice_instructions = 4096;

    /**
     * Deadman watchdog: stop with kWatchdog when this many micro-cycles
     * pass without one *clean* (non-faulting) instruction retirement.
     * Faulting dispatches do advance icount, so progress is defined as
     * clean retirement — a guest wedged in an exception loop makes none.
     * 0 disables the watchdog.
     */
    uint64_t watchdog_ucycles = 0;

    /** Wall-clock budget in milliseconds; 0 = none. */
    uint64_t deadline_ms = 0;

    /**
     * Graceful-stop flag, usually latched by a SIGINT/SIGTERM handler
     * (util/signals.h). Checked at slice boundaries; a set flag stops
     * the run with kSignal after sealing state. May be null.
     */
    volatile std::sig_atomic_t* stop_flag = nullptr;

    // -- checkpointing -----------------------------------------------------
    /** Rotating checkpoint series; null disables checkpointing. */
    CheckpointRotator* checkpoints = nullptr;
    /** Take a checkpoint every N trace-buffer fills. */
    uint64_t checkpoint_every_fills = 8;
    /**
     * The trace sink being written, for recording its high-water mark
     * (and path) in each checkpoint. Null = checkpoints carry no sink
     * state (resume will not truncate/continue a trace file). The rest
     * of each checkpoint's meta comes from the machine and tracer.
     */
    trace::FileSink* file_sink = nullptr;

    /**
     * Test hook: die with _Exit(137) — no destructors, no seal, exactly
     * like SIGKILL — once this many buffer fills have happened. 0 = off.
     */
    uint64_t kill_after_fills = 0;

    // -- telemetry ---------------------------------------------------------
    /**
     * Metrics emitter ticked synchronously from the supervision loop:
     * an unconditional "start" snapshot, interval-gated snapshots at
     * slice boundaries, one after every checkpoint, and a "final" one
     * before returning. Null disables streaming; the registry is still
     * published at the end of the run either way (for RUN.json final
     * counters).
     */
    obs::StatsEmitter* emitter = nullptr;

    /**
     * Registry the loop publishes into; null = the process-wide Global().
     * A daemon running several captures concurrently gives each job its
     * own registry — publish uses Set(), so two jobs sharing one registry
     * would clobber each other's cpu.* and mmu.* tallies.
     */
    obs::Registry* registry = nullptr;

    /**
     * Called at every slice boundary (after the emitter tick, before the
     * stop-flag/deadline checks). The serve layer's per-job hook: quota
     * enforcement and cancel/drain propagation set *stop_flag from here.
     * May be null. Must not throw.
     */
    std::function<void()> on_slice;

    /**
     * Sampling phase profiler (obs/spans.h). When set, the loop opens a
     * 1-in-N sampled window around each instruction (attributing
     * dispatch/translate/memory/tracer time), times checkpoint publishes,
     * tracer drains and emitter I/O exactly, and attaches itself to the
     * machine and tracer for the duration of the run. Null = off; the
     * hot path then pays one null test per instruction.
     */
    obs::PhaseProfiler* profiler = nullptr;
};

/**
 * Publishes the whole capture stack — machine (cpu.* / mmu.*), tracer
 * (tracer.*) and optionally the sink's container tallies
 * (trace.sink.*) — into `reg`. Called at every telemetry boundary by
 * RunSupervised; callers can reuse it to refresh finals before writing
 * a run manifest.
 */
void PublishCaptureMetrics(obs::Registry& reg, const cpu::Machine& machine,
                           const AtumTracer& tracer,
                           const trace::FileSink* sink);

/**
 * The long-haul capture loop: RunTraced plus supervision. Steps the
 * machine in slices, writing periodic checkpoints at buffer-fill
 * boundaries, stopping cleanly on signal/deadline/watchdog, and sealing
 * capture state on every exit path:
 *
 *   1. a final checkpoint is written *before* the final drain, so a
 *      resume from it replays the drain and stays byte-identical;
 *   2. the tracer is flushed (drain_status reports end-of-run loss);
 *   3. the caller seals the sink (FileSink::Close) as usual.
 *
 * Checkpoint-write failures never stop the capture (the trace is the
 * valuable artifact); the first one is reported in checkpoint_status.
 */
SessionResult RunSupervised(cpu::Machine& machine, AtumTracer& tracer,
                            const SupervisorOptions& options);

}  // namespace atum::core

#endif  // ATUM_CORE_SESSION_H_
