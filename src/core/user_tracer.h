#ifndef ATUM_CORE_USER_TRACER_H_
#define ATUM_CORE_USER_TRACER_H_

/**
 * @file
 * UserOnlyTracer — the pre-ATUM baseline.
 *
 * Before ATUM, address traces came from software probes inside a single
 * user program: they saw no kernel references, no other processes, no
 * page-table traffic, and no interrupt activity. This tracer reproduces
 * that methodology on the same machine runs so full-system vs user-only
 * comparisons (experiments F1/F4/F5/T4) are apples-to-apples: it patches
 * the same splice points but keeps only user-mode references of one
 * traced process and writes them straight to the sink.
 *
 * It models an *idealized* probe: zero perturbation, no micro-cycles
 * charged.
 */

#include <cstdint>

#include "cpu/machine.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "ucode/control_store.h"

namespace atum::core {

class UserOnlyTracer : public ucode::Patch
{
  public:
    /** Records only while process `target_pid` runs in user mode. Both
     *  references must outlive the tracer. */
    UserOnlyTracer(cpu::Machine& machine, trace::TraceSink& sink,
                   uint16_t target_pid = 1);
    ~UserOnlyTracer() override;

    UserOnlyTracer(const UserOnlyTracer&) = delete;
    UserOnlyTracer& operator=(const UserOnlyTracer&) = delete;

    /** Installs the probe in the control store (Fatal when a patch is
     *  already installed). */
    void Attach();
    void Detach();
    bool attached() const
    {
        return machine_.control_store().installed() == this;
    }

    uint64_t records() const { return records_; }
    /** References it observed but discarded (kernel, other pids, PTE). */
    uint64_t suppressed() const { return suppressed_; }
    /** Records the sink refused (a real probe just loses these). */
    uint64_t lost_records() const { return lost_records_; }

  private:
    uint32_t OnMemAccess(const ucode::MemAccess& access) override;
    uint32_t OnContextSwitch(uint16_t pid, uint32_t pcb_pa) override;

    cpu::Machine& machine_;
    trace::TraceSink& sink_;
    uint16_t target_pid_;
    uint16_t current_pid_ = 0;
    uint64_t records_ = 0;
    uint64_t suppressed_ = 0;
    uint64_t lost_records_ = 0;
};

}  // namespace atum::core

#endif  // ATUM_CORE_USER_TRACER_H_
