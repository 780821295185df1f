#ifndef ATUM_PERFBENCH_HOST_SPEED_H_
#define ATUM_PERFBENCH_HOST_SPEED_H_

/**
 * @file
 * Host-speed calibration for the gated times.
 *
 * The benchmark runs on shared hosts. On the 4-vCPU VM it was built on,
 * one thread running a fixed integer loop took from 1x to 3x its best
 * time, in phases lasting seconds to minutes, in thread CPU time as much
 * as in wall time: the physical core is shared, so nothing in-process
 * avoids it. Averages within a run absorb the short phases but not the
 * long ones, which moved whole runs by up to 25 %.
 *
 * So the benchmark runs a fixed probe after every stage: a small
 * switch-dispatch interpreter over a 4 MiB table plus a sort of 60000
 * pseudo-random words. It is benchmark code that never calls the
 * library, so no change to the program moves it. Of the eight probes
 * tried against the capture and replay stages, these two tracked them best
 * (correlation ~0.45-0.65; a plain arithmetic loop: ~0.25). The run's
 * host factor is kReferenceProbeSeconds over the median probe time, and
 * every reported time is the raw time times that factor: the time on a
 * host where the probe runs at its reference speed. On six 30 s
 * capture-mix runs it cut the run-to-run spread of capture_mips from
 * 8.8 % to 3.7 % (quartile distance over median). Raw times are printed
 * too.
 */

#include <vector>

#include "bench_spans.h"

namespace atum::perfbench {

/** Median probe time on the reference host: the VM above, quiet. */
inline constexpr double kReferenceProbeSeconds = 0.0100;

class HostSpeed
{
  public:
    explicit HostSpeed(SpanRecorder* spans) : spans_(spans) {}

    HostSpeed(const HostSpeed&) = delete;
    HostSpeed& operator=(const HostSpeed&) = delete;

    /** Runs `fn` as one timed stage, then the probe; returns raw seconds. */
    template <typename F>
    double Stage(const char* name, F&& fn)
    {
        double seconds = 0;
        {
            Timer timer(spans_, name);
            fn();
            seconds = timer.Stop();
        }
        Probe();
        return seconds;
    }

    /** Times the probe once and records it. */
    void Probe();

    /** kReferenceProbeSeconds / the median probe so far (1 if none). */
    double Factor() const;

    /** Median probe seconds so far. */
    double MedianProbe() const;

    /** Host seconds spent probing so far (kept out of stage walls). */
    double probing_s() const { return probing_s_; }

  private:
    SpanRecorder* spans_;
    std::vector<double> samples_;
    double probing_s_ = 0;
};

}  // namespace atum::perfbench

#endif  // ATUM_PERFBENCH_HOST_SPEED_H_
