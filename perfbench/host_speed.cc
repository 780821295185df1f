#include "host_speed.h"

#include <algorithm>
#include <cstdint>

namespace atum::perfbench {

namespace {

/**
 * A fixed bytecode program run by a switch-dispatch interpreter: eight
 * registers, loads and stores into a 4 MiB table and a data-dependent
 * branch, the same shape of work as the simulator's dispatch loop.
 */
uint32_t
ProbeLoop()
{
    static std::vector<uint8_t> code;
    static std::vector<uint32_t> mem(1u << 20);
    if (code.empty()) {
        uint32_t x = 1;
        code.resize(1u << 16);
        for (uint8_t& op : code) {
            x = x * 1103515245u + 12345u;
            op = (x >> 16) & 15;
        }
    }
    uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint32_t pc = 0;
    for (int i = 0; i < 300000; ++i) {
        const uint8_t op = code[pc];
        pc = (pc + 1) & 0xffff;
        switch (op) {
        case 0: r[0] += r[1]; break;
        case 1: r[1] ^= r[2] << 1; break;
        case 2: r[2] = mem[r[3] & 0xfffff]; break;
        case 3: mem[r[4] & 0xfffff] = r[5]; break;
        case 4: r[3] += 0x9e37; break;
        case 5: r[4] = r[4] * 33 + r[0]; break;
        case 6: r[5] = r[6] - r[7]; break;
        case 7:
            if (r[0] & 1)
                pc = (pc + 7) & 0xffff;
            break;
        case 8: r[6] = mem[(r[1] >> 3) & 0xfffff]; break;
        case 9: r[7] += r[2]; break;
        case 10: r[0] = r[0] >> 1 | r[0] << 31; break;
        case 11: mem[r[7] & 0xfffff] += 1; break;
        case 12: r[1] += r[3]; break;
        case 13: r[2] ^= r[4]; break;
        case 14: r[3] = r[5] & r[6]; break;
        default: r[4] += 1; break;
        }
    }
    return r[0] + r[1] + r[2];
}

/** Sorts a fixed pseudo-random vector: branchy, allocator and cache work. */
uint32_t
ProbeSort()
{
    std::vector<uint32_t> v(60000);
    uint32_t x = 9;
    for (uint32_t& e : v) {
        x = x * 1664525u + 1013904223u;
        e = x;
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

volatile uint32_t g_probe_sink = 0;

}  // namespace

void
HostSpeed::Probe()
{
    Timer probe(spans_, "bench.probe");
    g_probe_sink = g_probe_sink + ProbeLoop() + ProbeSort();
    const double seconds = probe.Stop();
    samples_.push_back(seconds);
    probing_s_ += seconds;
}

double
HostSpeed::MedianProbe() const
{
    if (samples_.empty())
        return kReferenceProbeSeconds;
    std::vector<double> v = samples_;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

double
HostSpeed::Factor() const
{
    return kReferenceProbeSeconds / MedianProbe();
}

}  // namespace atum::perfbench
