#include "digest.h"

#include <fstream>
#include <sstream>

#include "util/crc32.h"

namespace atum::perfbench {

namespace {

void
AppendList(std::ostringstream& out, const char* key,
           const std::vector<uint64_t>& values)
{
    out << ' ' << key << '=';
    for (size_t i = 0; i < values.size(); ++i)
        out << (i ? "," : "") << values[i];
}

}  // namespace

std::string
Digest::ToString() const
{
    std::ostringstream out;
    out << "records=" << records << " crc=" << std::hex << stream_crc
        << std::dec << " ucycles=" << ucycles;
    AppendList(out, "ev",
               {ev.instructions, ev.ifetches, ev.reads, ev.writes,
                ev.pte_reads, ev.tlb_misses, ev.tlb_fills, ev.exceptions,
                ev.syscalls, ev.dma_bytes});
    AppendList(out, "sweep", sweep_misses);
    AppendList(out, "sd", sd_misses);
    return out.str();
}

uint32_t
RecordStreamCrc(const std::vector<trace::Record>& records)
{
    constexpr size_t kBatch = 8192;
    std::vector<uint8_t> buf;
    buf.reserve(kBatch * 8);
    uint32_t crc = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        const trace::Record& r = records[i];
        const uint8_t bytes[8] = {
            static_cast<uint8_t>(r.addr),
            static_cast<uint8_t>(r.addr >> 8),
            static_cast<uint8_t>(r.addr >> 16),
            static_cast<uint8_t>(r.addr >> 24),
            static_cast<uint8_t>(r.type),
            r.flags,
            static_cast<uint8_t>(r.info),
            static_cast<uint8_t>(r.info >> 8),
        };
        buf.insert(buf.end(), bytes, bytes + 8);
        if (buf.size() == kBatch * 8 || i + 1 == records.size()) {
            crc = util::Crc32cExtend(crc, buf.data(), buf.size());
            buf.clear();
        }
    }
    return crc;
}

std::vector<uint64_t>
SweepMisses(const std::vector<replay::SweepResult>& rows)
{
    std::vector<uint64_t> misses;
    for (const replay::SweepResult& row : rows) {
        switch (row.kind) {
        case replay::SweepConfig::Kind::kCache:
            misses.push_back(row.cache_stats.misses);
            break;
        case replay::SweepConfig::Kind::kHierarchy:
            misses.push_back(row.l1i_stats.misses);
            misses.push_back(row.l1d_stats.misses);
            misses.push_back(row.l2_stats.misses);
            break;
        case replay::SweepConfig::Kind::kTlb:
            misses.push_back(row.tlb_stats.misses);
            break;
        }
    }
    return misses;
}

util::StatusOr<std::map<std::string, std::string>>
LoadPinnedDigests(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return util::NotFound("cannot read pinned digests ", path);
    std::map<std::string, std::string> pins;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, seed;
        fields >> workload >> seed;
        std::string digest;
        std::getline(fields >> std::ws, digest);
        if (workload.empty() || seed.empty() || digest.empty())
            return util::InvalidArgument("malformed digest line in ", path,
                                         ": ", line);
        pins[workload + " " + seed] = digest;
    }
    return pins;
}

}  // namespace atum::perfbench
