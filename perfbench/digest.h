#ifndef ATUM_PERFBENCH_DIGEST_H_
#define ATUM_PERFBENCH_DIGEST_H_

/**
 * @file
 * The simulated-statistics digest of one pipeline run: what the trace and
 * the models computed, with no host time in it. A change meant only to
 * make the pipeline faster must leave it identical, so the benchmark
 * compares it against the values pinned in perfbench/digests.txt.
 *
 * The digest covers the *decoded* record stream, never the file bytes,
 * so a denser container format leaves it unchanged.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/event_counters.h"
#include "replay/sweep.h"
#include "trace/record.h"
#include "util/status.h"

namespace atum::perfbench {

struct Digest {
    uint64_t records = 0;
    uint32_t stream_crc = 0;  ///< CRC32C over the decoded record fields
    uint64_t ucycles = 0;     ///< simulated micro-cycles of the capture
    cpu::EventCounters ev;
    std::vector<uint64_t> sweep_misses;  ///< per row, in config order
    std::vector<uint64_t> sd_misses;     ///< stack-distance profile

    /** One line: `records=.. crc=.. ucycles=.. ev=.. sweep=.. sd=..`. */
    std::string ToString() const;
};

/**
 * CRC32C over each record's fields (addr, type, flags, info; little
 * endian), independent of how any container packs them.
 */
uint32_t RecordStreamCrc(const std::vector<trace::Record>& records);

/** Miss counts of each sweep row (hierarchy rows give L1I, L1D, L2). */
std::vector<uint64_t> SweepMisses(
    const std::vector<replay::SweepResult>& rows);

/**
 * Reads pinned digests: one `<workload> <seed> <digest>` per line, `#`
 * comments. Keyed by "<workload> <seed>".
 */
util::StatusOr<std::map<std::string, std::string>> LoadPinnedDigests(
    const std::string& path);

}  // namespace atum::perfbench

#endif  // ATUM_PERFBENCH_DIGEST_H_
