#ifndef ATUM_CHAOS_CAMPAIGN_H_
#define ATUM_CHAOS_CAMPAIGN_H_

/**
 * @file
 * Seeded crash campaigns and their invariant checkers.
 *
 * One campaign iteration is a complete disaster drill, entirely inside
 * in-memory disks and wires (no host filesystem or socket is touched):
 *
 *   1. roll a deterministic fault schedule for the seed (io/chaos.h),
 *      aimed by a fault-free probe run's operation counts;
 *   2. run the drill's subject under that schedule;
 *   3. recover the way an operator would;
 *   4. check the family's invariants (docs/CHAOS.md, docs/SERVE.md).
 *
 * A DrillSpec names one of three drill families; everything else — the
 * seed loop, replay, minimization, the verdict line — is shared.
 *
 * kCapture — one supervised capture through a ChaosVfs. Faults land
 * mid-drain, mid-checkpoint, mid-rename, or the power dies outright;
 * recovery resumes from the newest loadable checkpoint or salvages the
 * bare trace with the tolerant scanner. Checks:
 *
 *   I1 accounting — scanned data records + the tracer's loss tally
 *      equals every record the tracer accepted; a non-zero tally is
 *      documented in-stream by a kLoss marker carrying it. Loss may
 *      exist, but it is *loud*.
 *   I2 durable checkpoint — a checkpoint the session counted as written
 *      is loadable after the crash, and the trace it names reaches its
 *      high-water mark (SaveState syncs trace-first).
 *   I3 prefix consistency — absent injected corruption, the durable
 *      trace scans clean (no bad chunks) and salvage round-trips.
 *
 * kServe — a whole daemon: a ServeCore in drill mode (workers == 0, so
 * the I/O sequence is deterministic) admits a seed-scripted mix of
 * multi-tenant jobs (and, with `sweeps`, replay sweeps over them), runs
 * them under the schedule, and is abandoned exactly as SIGKILL would
 * leave it when the power cut fires. A second ServeCore boots on the
 * crash-consistent snapshot, recovers from the journal and drains every
 * surviving job. Checks:
 *
 *   S1 no lost jobs      — every acked submission reaches a terminal
 *                          state (J1: journaled-before-ack held);
 *   S2 no double-run     — at most one terminal journal record per job,
 *                          and nothing journaled for a job after it;
 *   S3 journal integrity — the final journal scans clean end-to-end,
 *                          and (absent injected rot) every completed
 *                          job's trace is prefix-consistent and salvage
 *                          round-trips;
 *   S4 no lost rows      — every sweep config result journaled complete
 *                          appears verbatim in the final sweep, and
 *                          (absent injected rot) none is journaled twice;
 *   S5 resume = clean    — a recovered sweep's merged result is
 *                          bit-identical to replaying the same configs
 *                          cleanly over the final durable trace (per
 *                          row, skipping rows whose input fingerprint
 *                          shows the durable trace shrank under them).
 *
 * kNet — the daemon's wire: a seed-scripted multi-tenant client drives
 * tokened submits through a ChaosNet (io/stream.h) into a drill-mode
 * ServeCore — short and failed sends, mid-frame disconnects, bit flips,
 * stalled reads, duplicated deliveries, SIGKILL-style restarts onto the
 * crash-consistent disk — and retries every ambiguous outcome with the
 * same token, exactly as atum-submit does. Checks:
 *
 *   N1 no double-run    — the final journal holds at most one submission
 *                         per idempotency token, however often it was
 *                         delivered and across any number of restarts;
 *   N2 no crash/hang    — the daemon answers every parseable frame, a
 *                         poison frame earns a structured error, and no
 *                         pump loop wedges;
 *   N3 ack consistency  — every ack for one token names the same job
 *                         id, that id is journaled under the token, and
 *                         the job reaches a terminal state.
 *
 * Damage gates: checks about *loss* stand down where the schedule itself
 * rots bytes (disk bit flips and torn short writes; wire bit flips for
 * N3 and N2's "answers parse"), since injected rot is not silent loss.
 * N1 never stands down: dedup happens on the bytes the daemon received.
 *
 * A failing (seed, schedule) pair serializes to a small text file that
 * replays the identical failure forever — tests/chaos_corpus/ collects
 * them as regression tests. Minimize() shrinks a failing schedule to the
 * fewest ops that still violate.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/chaos.h"
#include "util/status.h"

namespace atum::chaos {

/** What a drill crashes: one capture, a daemon's disk, or its wire. */
enum class DrillFamily : uint8_t { kCapture, kServe, kNet };

/**
 * Shape of one drill. Construct it with its family: the constructor
 * fills that family's defaults, which are small enough for hundreds of
 * seeds yet still complete (many drains = many fault targets).
 *
 *   field                    capture   serve   net
 *   max_instructions         200000    6000    4000
 *   buffer_bytes             8 KiB     4 KiB   4 KiB
 *   chunk_records            128       64      64
 *   checkpoint_every_fills   2         1       1
 *   keep_checkpoints         3         2       2
 */
struct DrillSpec {
    explicit DrillSpec(DrillFamily family = DrillFamily::kCapture);

    DrillFamily family;
    /** Fault mix, e.g. {"powercut", "enospc"} (io/chaos.h names). */
    std::vector<std::string> campaigns;
    /** Workload every capture runs (workloads::MakeWorkload) + scale. */
    std::string workload = "grep";
    uint32_t scale = 1;
    /** Guest instruction budget per capture (per job for serve/net). */
    uint64_t max_instructions = 200'000;
    /** Trace-buffer bytes (small: many drains = many fault targets). */
    uint32_t buffer_bytes = 8u << 10;
    /** ATF2 chunk capacity in records. */
    uint32_t chunk_records = 128;
    /** Checkpoint cadence in buffer fills. */
    uint64_t checkpoint_every_fills = 2;
    /** Checkpoint retention window. */
    uint32_t keep_checkpoints = 3;

    // Serve and net drills only.
    /** Submissions the script makes, round-robin over `tenants`: capture
     *  jobs (serve) or tokened submits over the wire (net). */
    uint32_t jobs = 4;
    uint32_t tenants = 2;

    // Serve drills only.
    /**
     * Replay sweeps the script submits after draining its captures
     * (0 = the capture-only drill). Each targets a seed-picked capture
     * and carries `sweep_configs` configs, one of which may be
     * deliberately invalid (per-row isolation under fire).
     */
    uint32_t sweeps = 0;
    uint32_t sweep_configs = 3;

    // Net drills only.
    /** Wire attempts per submit (first try + ambiguous retries). */
    uint32_t max_attempts = 3;
};

/** One invariant breach, with enough detail to debug from the log. */
struct InvariantViolation {
    std::string invariant;  ///< "accounting" | "serve-lost-job" | ...
    std::string detail;
};

/** Outcome of one seed's drill; each family fills its own fields. */
struct SeedResult {
    uint64_t seed = 0;
    io::ChaosSchedule schedule;
    uint32_t faults_fired = 0;
    bool power_cut = false;
    /** Recoveries through a checkpoint / by scanning the bare trace
     *  (capture: 0 or 1; serve: jobs). */
    uint32_t resumes = 0;
    uint32_t salvages = 0;

    // Capture drills.
    uint64_t data_records = 0;  ///< non-marker records recovered
    uint64_t lost_records = 0;  ///< loudly-declared loss
    /**
     * Wall time of the recovery action after a power cut — finding and
     * loading the newest checkpoint, reopening the trace at its high-water
     * mark and restoring machine+tracer (resume), or the tolerant salvage
     * scan (no checkpoint). 0 when no cut fired (bench_a10 percentiles).
     */
    uint64_t recovery_us = 0;

    // Serve drills.
    uint32_t jobs_acked = 0;     ///< submissions the daemon promised
    uint32_t jobs_done = 0;      ///< terminal "done" after recovery
    uint32_t sweeps_acked = 0;   ///< sweep submissions the daemon promised
    uint32_t sweep_rows = 0;     ///< config rows complete after recovery
    /** Recovery found a sweep with SOME (not all, not zero) configs
     *  journaled and resumed it from that high-water mark — the drill
     *  the S5 byte-identity check exists for. */
    bool sweep_partial_resume = false;

    // Net drills.
    uint32_t kills = 0;      ///< daemon deaths (kill-serve ops fired)
    uint32_t retries = 0;    ///< ambiguous submits re-sent (same token)
    uint32_t acks = 0;       ///< submit answers carrying a job id
    uint32_t dup_acks = 0;   ///< answers flagged "dup" (dedup served them)

    /** The family's account of the drill ("power-cut, resumed, ..."). */
    std::string outcome;
    std::vector<InvariantViolation> violations;

    bool ok() const { return violations.empty(); }
    /** One log line: seed, the drill's outcome, verdict. */
    std::string Summary() const;
};

/** Aggregate of a whole campaign (per-seed fields summed). */
struct CampaignResult {
    uint64_t seeds_run = 0;
    uint64_t faults_fired = 0;
    uint64_t power_cuts = 0;
    uint64_t resumes = 0;
    uint64_t salvages = 0;
    uint64_t sweeps_acked = 0;
    uint64_t sweep_rows = 0;
    /** Seeds whose recovery resumed a partially-journaled sweep. */
    uint64_t sweep_partial_resumes = 0;
    uint64_t kills = 0;
    uint64_t retries = 0;
    uint64_t acks = 0;
    uint64_t dup_acks = 0;
    /** Failing seeds only (schedules are the repro artifacts). */
    std::vector<SeedResult> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Runs seed `seed`'s drill with no faults and returns its operation
 * counts — the address space random schedules aim their fault indices
 * into. A capture drill's script does not depend on the seed, so one
 * probe serves a whole seed range; serve and net scripts are derived
 * from the seed (submit/run interleave, cancels, pings), so each seed
 * probes its own.
 */
util::StatusOr<io::OpCounts> ProbeOpCounts(const DrillSpec& spec,
                                           uint64_t seed);

/**
 * Runs one complete drill for an explicit schedule (the replay path for
 * corpus files and minimization). Serve and net scripts are re-derived
 * from schedule.seed, so a serialized schedule replays the identical
 * drill forever.
 */
util::StatusOr<SeedResult> ReplaySchedule(const DrillSpec& spec,
                                          const io::ChaosSchedule& schedule);

/**
 * Runs seeds [first_seed, first_seed + seeds): rolls each schedule from
 * the probe and drills it. `on_seed` (may be null) observes every result
 * as it completes (progress reporting, artifact writing).
 */
util::StatusOr<CampaignResult> RunCampaign(
    const DrillSpec& spec, uint64_t first_seed, uint64_t seeds,
    const std::function<void(const SeedResult&)>& on_seed = nullptr);

/**
 * Greedy delta-debugging of a failing schedule: repeatedly drops ops
 * whose removal keeps at least one invariant violated, until no single
 * op can be removed. Returns the (still-failing) minimal schedule; if
 * `schedule` does not fail at all, returns it unchanged.
 */
util::StatusOr<io::ChaosSchedule> Minimize(const DrillSpec& spec,
                                           const io::ChaosSchedule& schedule);

// ---------------------------------------------------------------------------
// Deterministic protocol fuzzing (no wire, no daemon: just the codec).

/** What one FuzzProtocol sweep did and found. */
struct FuzzReport {
    uint64_t inputs = 0;    ///< mutated byte strings fed
    uint64_t frames = 0;    ///< complete frames the parser extracted
    uint64_t parsed = 0;    ///< frames that parsed into valid requests
    uint64_t rejected = 0;  ///< frames rejected with a structured status
    std::vector<InvariantViolation> violations;

    bool ok() const { return violations.empty(); }
    std::string Summary() const;
};

/**
 * Feeds `inputs` seeded mutations of well-formed request traffic —
 * flipped bits, truncations, tampered length prefixes, spliced frames,
 * raw garbage — through FrameParser and ParseRequest in random-sized
 * chunks, checking the codec's contract: extraction always terminates,
 * buffered bytes stay bounded by the frame cap, a parsed request
 * re-serializes and re-parses to the same op, and a rejection is a
 * structured status, never a crash. Deterministic per (seed, inputs):
 * a failure here is a failure forever, like every other repro in this
 * subsystem.
 */
FuzzReport FuzzProtocol(uint64_t seed, uint64_t inputs);

}  // namespace atum::chaos

#endif  // ATUM_CHAOS_CAMPAIGN_H_
