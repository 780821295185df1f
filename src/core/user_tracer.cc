#include "core/user_tracer.h"

namespace atum::core {

using ucode::MemAccess;
using ucode::MemAccessKind;

UserOnlyTracer::UserOnlyTracer(cpu::Machine& machine, trace::TraceSink& sink,
                               uint16_t target_pid)
    : machine_(machine), sink_(sink), target_pid_(target_pid)
{
}

UserOnlyTracer::~UserOnlyTracer()
{
    Detach();
}

void
UserOnlyTracer::Attach()
{
    machine_.control_store().Install(*this);
}

void
UserOnlyTracer::Detach()
{
    if (attached())
        machine_.control_store().Remove();
}

uint32_t
UserOnlyTracer::OnMemAccess(const MemAccess& access)
{
    // A user-space software probe sees only its own process's user-mode
    // instruction and data stream.
    if (access.kernel || current_pid_ != target_pid_ ||
        access.kind == MemAccessKind::kPte) {
        ++suppressed_;
        return 0;
    }
    // The historical probes had no retry story either: a refused record
    // is simply gone (but we count the loss).
    if (sink_.Append(trace::FromMemAccess(access)).ok())
        ++records_;
    else
        ++lost_records_;
    return 0;
}

uint32_t
UserOnlyTracer::OnContextSwitch(uint16_t pid, uint32_t)
{
    // The probe does not see context switches, but the comparison harness
    // needs to know which process is running; a real user-only tracer got
    // the same effect by being linked into exactly one program.
    current_pid_ = pid;
    return 0;
}

}  // namespace atum::core
