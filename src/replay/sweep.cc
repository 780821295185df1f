#include "replay/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <tuple>

#include "obs/metrics.h"
#include "obs/spans.h"
#include "replay/thread_pool.h"
#include "util/bitops.h"

namespace atum::replay {

SweepConfig
MakeCacheJob(const cache::CacheConfig& cache,
             const cache::DriverOptions& driver, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kCache;
    job.cache = cache;
    job.driver = driver;
    job.label = label.empty() ? cache.ToString() : std::move(label);
    return job;
}

SweepConfig
MakeHierarchyJob(const cache::HierarchyConfig& hierarchy, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kHierarchy;
    job.hierarchy = hierarchy;
    job.label = label.empty() ? "L2 " + hierarchy.l2.ToString()
                              : std::move(label);
    return job;
}

SweepConfig
MakeTlbJob(const tlbsim::TlbSimConfig& tlb, std::string label)
{
    SweepConfig job;
    job.kind = SweepConfig::Kind::kTlb;
    job.tlb = tlb;
    job.label = label.empty()
                    ? "tlb " + std::to_string(tlb.entries) + "e"
                    : std::move(label);
    return job;
}

double
SweepResult::MissRate() const
{
    switch (kind) {
      case SweepConfig::Kind::kCache:
        return cache_stats.MissRate();
      case SweepConfig::Kind::kHierarchy:
        return global_miss_rate;
      case SweepConfig::Kind::kTlb:
        return tlb_stats.MissRate();
    }
    return 0.0;
}

namespace {

/** Geometry checks for every simulator the job would construct. */
util::Status
ValidateJob(const SweepConfig& config)
{
    switch (config.kind) {
      case SweepConfig::Kind::kCache:
        return cache::ValidateConfig(config.cache);
      case SweepConfig::Kind::kHierarchy:
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l1i);
            !s.ok())
            return util::InvalidArgument("l1i: ", s.message());
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l1d);
            !s.ok())
            return util::InvalidArgument("l1d: ", s.message());
        if (util::Status s = cache::ValidateConfig(config.hierarchy.l2);
            !s.ok())
            return util::InvalidArgument("l2: ", s.message());
        return util::OkStatus();
      case SweepConfig::Kind::kTlb:
        return tlbsim::ValidateConfig(config.tlb);
    }
    return util::InvalidArgument("unknown sweep job kind");
}

/**
 * Watches the slice-boundary stop conditions for one config's replay.
 * The deadline is sampled lazily: the clock is only read at slice
 * boundaries, and only when a deadline is set at all, so the
 * control-free replay pays nothing but a masked counter test.
 */
class ReplayGovernor
{
  public:
    explicit ReplayGovernor(const ReplayControl& control)
        : control_(control),
          mask_(control.slice_records > 0 ? control.slice_records - 1
                                          : 4095),
          armed_(control.stop_flag != nullptr || control.deadline_ms > 0)
    {
        if (control_.deadline_ms > 0)
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(control_.deadline_ms);
    }

    /** True when the replay must stop; Verdict() then says why. */
    bool ShouldStop(uint64_t index)
    {
        if (!armed_ || (index & mask_) != 0)
            return false;
        if (control_.stop_flag != nullptr && *control_.stop_flag != 0) {
            verdict_ = util::Interrupted("replay stopped at record ",
                                         index, " of a sweep config");
            return true;
        }
        if (control_.deadline_ms > 0 &&
            std::chrono::steady_clock::now() >= deadline_) {
            verdict_ = util::Unavailable("replay timed out after ",
                                         control_.deadline_ms,
                                         " ms at record ", index);
            return true;
        }
        return false;
    }

    const util::Status& Verdict() const { return verdict_; }

  private:
    const ReplayControl& control_;
    const uint64_t mask_;
    const bool armed_;
    std::chrono::steady_clock::time_point deadline_;
    util::Status verdict_;
};

/** The legacy replay body; runs after ValidateJob has passed. Returns
 *  non-OK (leaving the result to be zeroed by the caller) when the
 *  control stopped the replay early. */
util::Status
ReplayOneChecked(const std::vector<trace::Record>& records,
                 const SweepConfig& config, const ReplayControl& control,
                 SweepResult& result)
{
    ReplayGovernor governor(control);
    switch (config.kind) {
      case SweepConfig::Kind::kCache: {
        cache::Cache c(config.cache);
        cache::TraceCacheDriver driver(c, config.driver);
        for (uint64_t i = 0; i < records.size(); ++i) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            driver.Feed(records[i]);
        }
        result.cache_stats = c.stats();
        result.fed = driver.fed();
        result.filtered = driver.filtered();
        break;
      }
      case SweepConfig::Kind::kHierarchy: {
        cache::CacheHierarchy h(config.hierarchy);
        for (uint64_t i = 0; i < records.size(); ++i) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            h.Feed(records[i]);
        }
        result.l1i_stats = h.l1i().stats();
        result.l1d_stats = h.l1d().stats();
        result.l2_stats = h.l2().stats();
        result.hierarchy_accesses = h.accesses();
        result.memory_accesses = h.memory_accesses();
        result.global_miss_rate = h.GlobalMissRate();
        result.amat = h.Amat();
        break;
      }
      case SweepConfig::Kind::kTlb: {
        tlbsim::TlbSim sim(config.tlb);
        for (uint64_t i = 0; i < records.size(); ++i) {
            if (governor.ShouldStop(i))
                return governor.Verdict();
            sim.Feed(records[i]);
        }
        result.tlb_stats = sim.stats();
        break;
      }
    }
    return util::OkStatus();
}

/** Deepest per-set LRU stack the one-pass replay keeps. */
constexpr uint32_t kMaxStackDepth = 16;

/**
 * True for a row the stack replay reproduces exactly: a valid LRU,
 * write-allocate cache with a finite, small associativity that is never
 * flushed and never prefetches. Its contents are then always the top of
 * each set's recency stack, so one stack answers every such row that
 * shares the set mapping.
 */
bool
StackEligible(const SweepConfig& config)
{
    const cache::CacheConfig& c = config.cache;
    return config.kind == SweepConfig::Kind::kCache &&
           ValidateJob(config).ok() &&
           c.replacement == cache::Replacement::kLru && c.write_allocate &&
           !c.prefetch_next_on_miss && !config.driver.flush_on_switch &&
           c.assoc != 0 && c.assoc <= kMaxStackDepth;
}

/** Rows that can share one stack pass: same filters, block, sets, tags
 *  and write policy. Associativity (and with it size) may differ. */
auto
StackGroupKey(const SweepConfig& config)
{
    const cache::CacheConfig& c = config.cache;
    const cache::DriverOptions& d = config.driver;
    return std::make_tuple(d.include_kernel, d.include_ifetch, d.include_pte,
                           d.flush_on_switch, d.only_pid, c.block_bytes,
                           c.size_bytes / c.block_bytes / c.assoc,
                           c.pid_tags, c.write_back);
}

/**
 * One pass over `records` for a group of stack-eligible rows (Mattson et
 * al. 1970; write-backs after Thompson & Smith 1989). Each set keeps an
 * MRU-first array of depth D, the group's largest associativity; the row
 * with associativity a holds exactly the set's top a entries, and so
 * hits an access found at depth p < a. Each entry carries one dirty bit
 * per level (bit a-1 for associativity a). An entry pushed from depth q
 * to q+1 leaves level q+1, which counts a write-back when its bit is set.
 * Filled results are bit-identical to ReplayOne of each row.
 */
void
StackReplay(const std::vector<trace::Record>& records,
            const std::vector<SweepConfig>& configs,
            const std::vector<size_t>& rows,
            std::vector<SweepResult>& results)
{
    const SweepConfig& first = configs[rows.front()];
    const bool pid_tags = first.cache.pid_tags;
    uint32_t depth = 0;
    uint32_t levels = 0;  // bit a-1 set: some row has associativity a
    for (size_t row : rows) {
        depth = std::max(depth, configs[row].cache.assoc);
        levels |= 1u << (configs[row].cache.assoc - 1);
    }
    const uint32_t sets = first.cache.size_bytes / first.cache.block_bytes /
                          first.cache.assoc;
    const unsigned block_shift = Log2Floor(first.cache.block_bytes);
    const uint16_t write_bits =
        first.cache.write_back ? static_cast<uint16_t>(levels) : 0;

    // Per set: keys MRU first, then one spare slot that holds the search
    // sentinel and then takes the entry falling off the bottom. A key is
    // the block number, with the pid from bit 32 when tags carry it; ~0
    // marks an empty slot.
    const uint32_t stride = depth + 1;
    std::vector<uint64_t> keys(static_cast<size_t>(sets) * stride, ~0ull);
    std::vector<uint16_t> dirty(keys.size(), 0);
    uint64_t hits[2][kMaxStackDepth] = {};  // [is_write][depth found]
    uint64_t refs[2] = {};                  // reads, writes
    uint64_t writebacks[kMaxStackDepth] = {};
    uint64_t filtered = 0;
    cache::RecordFilter filter(first.driver);

    // Filter a short run of records, then replay it, so nothing
    // trace-sized is allocated. The filter compacts the fed references
    // without a branch: each is its key shifted left once, plus the write
    // flag.
    constexpr size_t kChunk = 512;
    uint64_t chunk[kChunk];
    for (size_t base = 0; base < records.size(); base += kChunk) {
        const size_t end = std::min(records.size(), base + kChunk);
        size_t n = 0;
        for (size_t i = base; i < end; ++i) {
            const trace::Record& r = records[i];
            const cache::Selection selection = filter.Select(r);
            filtered += selection == cache::Selection::kFiltered;
            uint64_t key = r.addr >> block_shift;
            if (pid_tags)
                key |= static_cast<uint64_t>(filter.TagPid(r)) << 32;
            chunk[n] = key << 1 | (r.type == trace::RecordType::kWrite);
            n += selection == cache::Selection::kFed;
        }
        for (size_t j = 0; j < n; ++j) {
            const uint64_t key = chunk[j] >> 1;
            const unsigned is_write = chunk[j] & 1;
            const size_t set =
                static_cast<size_t>(key & (sets - 1)) * stride;
            uint64_t* k = &keys[set];
            uint16_t* d = &dirty[set];
            ++refs[is_write];
            k[depth] = key;
            uint32_t p = 0;
            while (k[p] != key)
                ++p;
            uint16_t mask = is_write ? write_bits : 0;
            if (p < depth) {
                ++hits[is_write][p];
                mask |= d[p];
            }
            // Push the entries above p down one; p == depth pushes the
            // bottom entry out into the spare slot.
            for (uint32_t q = p; q-- > 0;) {
                uint16_t m = d[q];
                if (m & (1u << q)) {
                    ++writebacks[q];
                    m &= static_cast<uint16_t>(~(1u << q));
                }
                k[q + 1] = k[q];
                d[q + 1] = m;
            }
            k[0] = key;
            d[0] = mask;
        }
    }

    const uint64_t fed = refs[0] + refs[1];
    for (size_t row : rows) {
        const uint32_t assoc = configs[row].cache.assoc;
        SweepResult& result = results[row];
        result.kind = SweepConfig::Kind::kCache;
        result.label = configs[row].label;
        cache::CacheStats& stats = result.cache_stats;
        stats.reads = refs[0];
        stats.writes = refs[1];
        stats.read_misses = refs[0];
        stats.write_misses = refs[1];
        for (uint32_t p = 0; p < assoc; ++p) {
            stats.read_misses -= hits[0][p];
            stats.write_misses -= hits[1][p];
        }
        stats.accesses = fed;
        stats.misses = stats.read_misses + stats.write_misses;
        stats.writebacks = writebacks[assoc - 1];
        result.fed = fed;
        result.filtered = filtered;
    }
}

/** One pool task: rows replayed in one stack pass, or one ReplayOne row. */
struct Task {
    std::vector<size_t> rows;
    bool stacked = false;
};

/**
 * Splits a sweep into pool tasks: every stack-eligible row joins the
 * group its StackGroupKey names, and every other row is a task of its
 * own. Tasks are in order of their first row.
 */
std::vector<Task>
PlanTasks(const std::vector<SweepConfig>& configs)
{
    std::vector<Task> tasks;
    for (size_t i = 0; i < configs.size(); ++i) {
        if (!StackEligible(configs[i])) {
            tasks.push_back({{i}, false});
            continue;
        }
        auto group = std::find_if(
            tasks.begin(), tasks.end(), [&](const Task& t) {
                return t.stacked && StackGroupKey(configs[t.rows.front()]) ==
                                        StackGroupKey(configs[i]);
            });
        if (group == tasks.end())
            tasks.push_back({{i}, true});
        else
            group->rows.push_back(i);
    }
    return tasks;
}

}  // namespace

SweepResult
ReplayOne(const std::vector<trace::Record>& records,
          const SweepConfig& config)
{
    return ReplayOne(records, config, ReplayControl{});
}

SweepResult
ReplayOne(const std::vector<trace::Record>& records,
          const SweepConfig& config, const ReplayControl& control)
{
    SweepResult result;
    result.kind = config.kind;
    result.label = config.label;
    // Validate before constructing: the simulators Fatal on a bad
    // geometry, and one bad row must not take down a 100-config sweep.
    result.status = ValidateJob(config);
    if (!result.status.ok())
        return result;
    try {
        util::Status ran = ReplayOneChecked(records, config, control,
                                            result);
        if (!ran.ok()) {
            // Stopped early: partial simulator state must never read as
            // a finished row.
            result = SweepResult{};
            result.kind = config.kind;
            result.label = config.label;
            result.status = ran;
        }
    } catch (const std::exception& e) {
        result = SweepResult{};
        result.kind = config.kind;
        result.label = config.label;
        result.status = util::InternalError("replay failed: ", e.what());
    }
    return result;
}

std::vector<SweepResult>
SweepRunner::Run(const std::vector<trace::Record>& records,
                 const std::vector<SweepConfig>& configs) const
{
    std::vector<SweepResult> results(configs.size());
    if (configs.empty())
        return results;
    const std::vector<Task> tasks = PlanTasks(configs);

    unsigned jobs = jobs_;
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    jobs = std::min<unsigned>(jobs, static_cast<unsigned>(tasks.size()));

    obs::Registry& registry = obs::Registry::Global();
    registry.GetCounter("replay.sweeps").Add(1);
    obs::Counter& configs_done = registry.GetCounter("replay.configs");
    obs::Gauge& active_workers = registry.GetGauge("replay.active_workers");
    obs::Histogram& config_wall_ms =
        registry.GetHistogram("replay.config_wall_ms");

    ATUM_SPAN_NAMED(sweep_span, "replay", "sweep.run");
    sweep_span.set_detail(std::to_string(jobs) + " jobs");
    sweep_span.set_arg("configs", configs.size());
    sweep_span.set_arg("passes", tasks.size());

    // Each task owns its simulator and writes its rows' pre-sized result
    // slots; the trace is shared read-only. No synchronization on the hot
    // path: the metrics below are relaxed atomics, updated once per task.
    ThreadPool pool(jobs);
    for (const Task& task : tasks) {
        pool.Submit([&records, &configs, &results, &configs_done,
                     &active_workers, &config_wall_ms, &task] {
            ATUM_SPAN_NAMED(config_span, "replay", "sweep.config");
            config_span.set_detail(configs[task.rows.front()].label);
            config_span.set_arg("rows", task.rows.size());
            active_workers.Add(1);
            const auto t0 = std::chrono::steady_clock::now();
            if (!task.stacked) {
                results[task.rows.front()] =
                    ReplayOne(records, configs[task.rows.front()]);
            } else {
                try {
                    StackReplay(records, configs, task.rows, results);
                } catch (const std::exception& e) {
                    for (size_t row : task.rows) {
                        results[row] = SweepResult{};
                        results[row].label = configs[row].label;
                        results[row].status =
                            util::InternalError("replay failed: ", e.what());
                    }
                }
            }
            config_wall_ms.Add(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
            configs_done.Add(task.rows.size());
            active_workers.Add(-1);
        });
    }
    pool.Wait();
    return results;
}

}  // namespace atum::replay
