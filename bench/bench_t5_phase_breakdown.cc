// Experiment T5: the capture phase sheet.
//
// Not a paper table — this is the repo's own account of where a
// supervised capture's time goes (dispatch, translate, memory, tracer,
// drain), what the ATUM patch costs over untraced execution, and what
// the span tracing layer costs. Absolute capture speed is perfbench's
// job (`capture_mips`, `cpu.untraced_mips`, host-normalised); every
// number here is a median or a same-moment ratio, so the regression gate
// can hold it on a host whose speed drifts over seconds.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "obs/spans.h"
#include "util/table.h"

namespace atum {
namespace {

constexpr uint64_t kMaxInstructions = 400'000'000;
constexpr int kProfiledRuns = 5;
constexpr int kSpanPairs = 7;
constexpr int kRatioPairs = 5;

/** The guest every measurement runs: long enough (>= 50 ms) that a
 *  profiled capture's phase shares settle. */
void
BootGuest(cpu::Machine& machine)
{
    kernel::BootSystem(machine, {workloads::MakeHash(8000)});
}

double
Median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
MsSince(uint64_t t0_ns)
{
    return static_cast<double>(obs::MonotonicNowNs() - t0_ns) / 1e6;
}

/**
 * One supervised traced capture; returns the wall milliseconds of the
 * run alone (boot is outside the timed region). The profiler (may be
 * null) attributes the run across phases; `spans` toggles the span
 * tracing layer.
 */
double
SupervisedCaptureMs(obs::PhaseProfiler* profiler, bool spans)
{
    obs::SetSpansEnabled(spans);
    cpu::Machine machine(bench::StandardMachineConfig());
    trace::CountingSink sink;
    core::AtumTracer tracer(machine, sink);
    BootGuest(machine);
    core::SupervisorOptions sup;
    sup.max_instructions = kMaxInstructions;
    sup.profiler = profiler;
    const uint64_t t0 = obs::MonotonicNowNs();
    const core::SessionResult r = core::RunSupervised(machine, tracer, sup);
    const double ms = MsSince(t0);
    obs::SetSpansEnabled(true);
    if (!r.halted)
        Fatal("phase-breakdown capture did not run to completion");
    return ms;
}

/** The same guest run without the ATUM patch; wall ms of the run. */
double
UntracedMs()
{
    cpu::Machine machine(bench::StandardMachineConfig());
    BootGuest(machine);
    const uint64_t t0 = obs::MonotonicNowNs();
    const core::SessionResult r = core::RunUntraced(machine, kMaxInstructions);
    const double ms = MsSince(t0);
    if (!r.halted)
        Fatal("untraced run did not run to completion");
    return ms;
}

void
Run()
{
    bench::BenchReport report("t5_phase_breakdown");

    // Phase shares: per phase, the median over profiled captures.
    std::vector<std::vector<double>> pct(obs::kPhaseCount);
    std::vector<double> coverage;
    for (int i = 0; i < kProfiledRuns; ++i) {
        obs::PhaseProfiler profiler;
        SupervisedCaptureMs(&profiler, true);
        const double run_ns = static_cast<double>(profiler.run_ns());
        for (const obs::PhaseProfiler::Row& row : profiler.Breakdown())
            pct[static_cast<int>(row.phase)].push_back(
                run_ns > 0.0 ? 100.0 * static_cast<double>(row.ns) / run_ns
                             : 0.0);
        coverage.push_back(100.0 * profiler.CoverageFraction());
    }
    Table table({"phase", "median %"});
    for (int p = 0; p < obs::kPhaseCount; ++p) {
        if (pct[p].empty())
            continue;  // compiled out (-DATUM_TRACING=OFF)
        const double median = Median(pct[p]);
        if (median == 0.0)
            continue;  // unexercised here (checkpoint/io): a zero
                       // baseline makes any later drift look infinite
        const char* phase = obs::PhaseName(static_cast<obs::Phase>(p));
        report.Add("phase_pct", median, "pct", {{"phase", phase}});
        table.AddRow({phase, Table::Fmt(median, 1)});
    }
    const double coverage_pct = Median(coverage);
    report.Add("coverage_pct", coverage_pct, "pct");

    // Span-layer cost: the median on/off ratio over pairs whose order
    // alternates, so neither side always runs on a warmer host. The
    // layer's budget is <= 5%, a ratio of 1.05.
    std::vector<double> span_ratios;
    for (int i = 0; i < kSpanPairs; ++i) {
        const bool on_first = i % 2 == 0;
        const double first = SupervisedCaptureMs(nullptr, on_first);
        const double second = SupervisedCaptureMs(nullptr, !on_first);
        span_ratios.push_back(on_first ? first / second : second / first);
    }
    const double span_overhead = Median(span_ratios);
    report.Add("span_overhead", span_overhead, "x");

    // The ATUM patch's cost: traced capture over untraced execution of
    // the same guest, back to back.
    std::vector<double> traced_ratios;
    for (int i = 0; i < kRatioPairs; ++i) {
        const double traced = SupervisedCaptureMs(nullptr, true);
        traced_ratios.push_back(traced / UntracedMs());
    }
    const double traced_wall_ratio = Median(traced_ratios);
    report.Add("traced_wall_ratio", traced_wall_ratio, "x");

    report.Write();
    std::printf("T5: capture phase sheet (hash guest, medians)\n\n");
    std::printf("%s", table.ToString().c_str());
    std::printf("\nphase breakdown: coverage=%.1f%% span-overhead=%.3fx "
                "traced/untraced=%.2fx -> BENCH_t5_phase_breakdown.json\n",
                coverage_pct, span_overhead, traced_wall_ratio);
}

}  // namespace
}  // namespace atum

int
main()
{
    atum::Run();
    return 0;
}
