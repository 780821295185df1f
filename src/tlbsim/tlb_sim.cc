#include "tlbsim/tlb_sim.h"

#include "mem/physical_memory.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace atum::tlbsim {

using trace::Record;
using trace::RecordType;

namespace {
constexpr uint32_t kS0BaseVpn = 0x80000000u >> kPageShift;
}  // namespace

util::Status
ValidateConfig(const TlbSimConfig& config)
{
    if (config.entries == 0 || !IsPowerOfTwo(config.entries))
        return util::InvalidArgument(
            "TLB entries must be a power of two, got ", config.entries);
    const uint32_t ways = config.ways == 0 ? config.entries : config.ways;
    if (ways > config.entries || config.entries % ways != 0)
        return util::InvalidArgument("bad TLB geometry: ", config.entries,
                                     " entries, ", ways, " ways");
    if (!IsPowerOfTwo(config.entries / ways))
        return util::InvalidArgument("TLB set count must be a power of two");
    return util::OkStatus();
}

TlbSim::TlbSim(const TlbSimConfig& config) : config_(config)
{
    if (util::Status status = ValidateConfig(config); !status.ok())
        Fatal(status.message());
    ways_ = config.ways == 0 ? config.entries : config.ways;
    sets_ = config.entries / ways_;
    entries_.resize(config.entries);
}

void
TlbSim::Access(uint32_t vaddr)
{
    ++stats_.accesses;
    const uint32_t vpn = vaddr >> kPageShift;
    const uint32_t set = vpn & (sets_ - 1);
    Entry* base = &entries_[static_cast<size_t>(set) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].vpn == vpn) {
            base[w].stamp = ++tick_;
            return;
        }
    }
    ++stats_.misses;
    Entry* victim = base;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].stamp < victim->stamp)
            victim = &base[w];
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->stamp = ++tick_;
}

void
TlbSim::FlushProcess()
{
    ++stats_.flushes;
    for (Entry& e : entries_) {
        if (e.valid && (config_.flush_system_too || e.vpn < kS0BaseVpn))
            e.valid = false;
    }
}

void
TlbSim::Feed(const Record& record)
{
    if (record.type == RecordType::kCtxSwitch) {
        if (config_.flush_on_switch)
            FlushProcess();
        return;
    }
    if (!record.IsMemory())
        return;
    if (record.type == RecordType::kPte && !config_.include_pte)
        return;
    if (record.kernel() && !config_.include_kernel)
        return;
    Access(record.addr);
}

}  // namespace atum::tlbsim
