// Per-layer metrics of a traced run.
//
// Counts come from the library's telemetry counters (read for the
// traced phase) and from the machine's own Bus / CacheStats / DramStats
// counters over sampled campaign runs. Timings come from this file's
// spans around calls into each layer, driven in isolation with the
// workload's MachineConfigs. NOTES.md maps each metric to the
// end-to-end metric and workload it should move.
#include <algorithm>
#include <set>

#include "bus/arbiter.h"
#include "bus/bus.h"
#include "cache/cache.h"
#include "core/campaign.h"
#include "dram/dram.h"
#include "machine/machine.h"
#include "obs/telemetry.h"
#include "perfbench.h"
#include "replay/decode.h"
#include "replay/script_cache.h"
#include "stats/checkpoint.h"
#include "stats/streaming.h"

namespace perfbench {

namespace {

using rrb::Cycle;
namespace obs = rrb::obs;

// Repetitions of each isolated probe; metrics take the median.
constexpr int kReps = 7;
constexpr std::uint64_t kBusTxns = 100'000;
constexpr std::uint64_t kCacheLookups = 400'000;
constexpr std::uint64_t kDramReqs = 40'000;
constexpr std::uint64_t kFolds = 200'000;
/// Campaign runs sampled per scenario for the per-run counts, and timed
/// per scenario and repetition for the per-run host time.
constexpr std::size_t kCountRuns = 24;
constexpr std::size_t kCountRunsGrid = 4;
constexpr std::size_t kTimedRuns = 200;
constexpr std::size_t kTimedRunsGrid = 12;

/// Results the probes compute are stored here so the compiler cannot
/// drop the work that produced them.
volatile std::uint64_t g_sink = 0;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double us(double seconds) { return seconds * 1e6; }
double ns(double seconds) { return seconds * 1e9; }

std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/// Distinct machine configurations of a workload, in first-use order.
std::vector<rrb::MachineConfig> distinct_configs(const Workload& w) {
    std::vector<rrb::MachineConfig> out;
    std::set<std::uint64_t> seen;
    for (const rrb::Scenario& s : w.scenarios()) {
        if (seen.insert(s.config().fingerprint()).second) {
            out.push_back(s.config());
        }
    }
    return out;
}

// ---------------------------------------------------------------- bus

/// Every core always ready: a completion immediately re-posts that
/// core's next load, so the round-robin bus never idles.
class SaturatingClient final : public rrb::BusClient {
public:
    explicit SaturatingClient(rrb::Bus& bus) : bus_(bus) {}
    void bus_complete(const rrb::BusRequest& request,
                      Cycle completion) override {
        ++completed;
        rrb::BusRequest next = request;
        next.ready = completion;
        bus_.post(next);
    }
    std::uint64_t completed = 0;

private:
    rrb::Bus& bus_;
};

void probe_bus(const rrb::MachineConfig& config, SpanLog& spans) {
    rrb::Bus bus(config.num_cores,
                 rrb::make_arbiter(config.arbiter, config.num_cores,
                                   config.tdma_slot_cycles,
                                   config.wrr_weights));
    SaturatingClient client(bus);
    bus.attach_client(&client);
    for (rrb::CoreId c = 0; c < config.num_cores; ++c) {
        bus.post({c, rrb::BusOp::kDataLoad, 0x1000u * c, 0,
                  config.load_hit_service(), 0});
    }
    Cycle now = 0;
    const Timed span(spans, "bus.post+arbitrate+complete", kBusTxns);
    while (client.completed < kBusTxns) {
        bus.complete_phase(now);
        bus.arbitrate_phase(now);
        now = bus.next_event_cycle(now);
    }
}

// -------------------------------------------------------------- cache

void probe_cache(const rrb::MachineConfig& config, SpanLog& spans) {
    // One core's L2 partition, as the machine builds it.
    const rrb::CacheGeometry g =
        rrb::Machine(config).l2().partition_geometry();
    rrb::Cache cache(g, config.l2_replacement, config.l2_write_policy,
                     config.l2_alloc_policy);
    // Addresses over twice the partition: a mix of hits and misses;
    // one access in four is a store.
    std::vector<rrb::Addr> addrs(1u << 14);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (rrb::Addr& a : addrs) {
        a = (xorshift(x) % (2 * g.size_bytes)) & ~rrb::Addr{g.line_bytes - 1};
    }
    std::uint64_t hits = 0;
    const Timed span(spans, "cache.read+write", kCacheLookups);
    for (std::uint64_t i = 0; i < kCacheLookups; ++i) {
        const rrb::Addr a = addrs[i & (addrs.size() - 1)];
        hits += (i & 3) == 3 ? cache.write(a).hit : cache.read(a).hit;
    }
    g_sink = hits;
}

// --------------------------------------------------------------- dram

/// One request outstanding per core; a completion enqueues that core's
/// next request (half in the open row, half anywhere in 64 MiB).
class ClosedLoopClient final : public rrb::DramClient {
public:
    explicit ClosedLoopClient(rrb::MemoryController& mc) : mc_(mc) {}
    void dram_complete(const rrb::DramRequest& request,
                       Cycle completion) override {
        ++completed;
        rrb::DramRequest next = request;
        next.arrival = completion;
        next.addr = (xorshift(x_) & 1) != 0
                        ? (request.addr + 32) % (64u << 20)
                        : (xorshift(x_) % (64u << 20)) & ~rrb::Addr{31};
        mc_.enqueue(next);
    }
    std::uint64_t completed = 0;

private:
    rrb::MemoryController& mc_;
    std::uint64_t x_ = 0x2545f4914f6cdd1dULL;
};

void probe_dram(const rrb::MachineConfig& config, SpanLog& spans) {
    rrb::MemoryController mc(config.dram);
    ClosedLoopClient client(mc);
    mc.attach_client(&client);
    for (rrb::CoreId c = 0; c < config.num_cores; ++c) {
        mc.enqueue({c, 0x100000u * c, false, 0, 0});
    }
    Cycle now = 0;
    const Timed span(spans, "dram.enqueue+tick", kDramReqs);
    while (client.completed < kDramReqs) {
        mc.tick(now);
        const Cycle next = mc.next_event_cycle(now + 1);
        now = next == rrb::kNoCycle ? now + 1 : next;
    }
}

// ------------------------------------------------------------- replay

/// Decodes every script the workload's campaigns decode (one per
/// distinct program and config, as replay::prepare_scripts shares
/// them), inside one span per repetition. Armed machines never decode,
/// so neither does the probe on an armed workload.
void probe_decode(const Workload& w, SpanLog& spans) {
    if (w.armed()) return;
    struct Job {
        rrb::Program program;
        rrb::CoreConfig core;
        rrb::CoreId core_id = 0;
        rrb::replay::L2PartitionSpec l2;
    };
    std::vector<Job> jobs;
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const rrb::Scenario& s : w.scenarios()) {
        const rrb::MachineConfig& config = s.config();
        rrb::Machine machine(config);
        std::vector<rrb::Program> programs{s.scua_program()};
        for (rrb::Program p : s.contender_programs()) {
            p.iterations = s.run_protocol().max_cycles_per_run;
            programs.push_back(std::move(p));
        }
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const auto core = static_cast<rrb::CoreId>(
                std::min<std::size_t>(i, config.num_cores - 1));
            if (!seen.insert({config.fingerprint(),
                              rrb::fingerprint(programs[i])})
                     .second) {
                continue;
            }
            Job job{programs[i], config.core, core, {}};
            job.l2.geometry = machine.l2().partition_geometry();
            job.l2.replacement = config.l2_replacement;
            job.l2.write_policy = config.l2_write_policy;
            job.l2.alloc_policy = config.l2_alloc_policy;
            job.l2.rng_seed = machine.l2().partition_rng_seed(core);
            jobs.push_back(std::move(job));
        }
    }
    for (int rep = 0; rep < kReps; ++rep) {
        const Timed span(spans, "replay.decode_program", jobs.size());
        for (const Job& job : jobs) {
            const auto script = rrb::replay::decode_program(
                job.program, job.core, job.core_id, &job.l2);
            g_sink = script != nullptr ? script->ops.size() : 0;
        }
    }
}

// ------------------------------------------------------------ machine

struct RunCounts {
    double txns = 0.0;
    double l2_accesses = 0.0;
    /// L2 accesses that look up the live partition: a replaying core
    /// with baked L2 outcomes only bumps the statistics, and armed
    /// (attribution) runs interpret, so every access of theirs is live.
    double l2_live = 0.0;
    double dram_reqs = 0.0;
    double finish = 0.0;
};

/// Per-run counts from the machine's own counters over sampled runs of
/// every scenario; then the host time per run of the campaign's own
/// per-run entry points, unarmed (hwm_campaign_run) and armed
/// (hwm_campaign_attribute), interleaved.
RunCounts sample_runs(const Workload& w, SpanLog& spans) {
    RunCounts c;
    std::uint64_t n = 0;
    const bool grid = w.scenarios().size() > 1;
    const std::size_t per = grid ? kCountRunsGrid : kCountRuns;
    for (const rrb::Scenario& s : w.scenarios()) {
        rrb::Machine machine(s.config());
        rrb::replay::ScriptCache scripts;
        std::uint64_t loaded = 0;
        const std::vector<rrb::Program> contenders = s.contender_programs();
        for (std::size_t k = 0; k < per; ++k) {
            const Cycle finish = rrb::detail::execute_campaign_run(
                machine, loaded, s.scua_program(), contenders,
                s.run_protocol(), k, &scripts);
            for (rrb::CoreId core = 0; core < s.config().num_cores; ++core) {
                c.txns += static_cast<double>(
                    machine.bus().counters(core).requests);
            }
            c.l2_accesses +=
                static_cast<double>(machine.l2().total_stats().accesses());
            for (rrb::CoreId core = 0; core < s.config().num_cores; ++core) {
                const rrb::replay::MicroOpScript* script =
                    scripts.per_core[core];
                if (w.armed() || script == nullptr || !script->l2_baked) {
                    c.l2_live += static_cast<double>(
                        machine.l2().stats(core).accesses());
                }
            }
            c.dram_reqs +=
                static_cast<double>(machine.dram().stats().accesses());
            c.finish += static_cast<double>(finish);
            ++n;
        }
    }
    c.txns /= static_cast<double>(n);
    c.l2_accesses /= static_cast<double>(n);
    c.l2_live /= static_cast<double>(n);
    c.dram_reqs /= static_cast<double>(n);
    c.finish /= static_cast<double>(n);

    // Rounds alternate the two modes so both see the same host
    // conditions; the leased machines are warm.
    const std::size_t timed = grid ? kTimedRunsGrid : kTimedRuns;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const rrb::Scenario& s : w.scenarios()) {
            const std::vector<rrb::Program> contenders =
                s.contender_programs();
            const std::uint64_t fp = rrb::detail::campaign_fingerprint(
                s.scua_program(), contenders, s.run_protocol());
            Cycle sink = 0;
            {
                const Timed span(spans, "hwm_campaign_run", timed);
                for (std::size_t k = 0; k < timed; ++k) {
                    sink += rrb::detail::hwm_campaign_run(
                        s.config(), s.scua_program(), contenders,
                        s.run_protocol(), k, fp);
                }
            }
            rrb::AttributionAccumulator acc;
            {
                const Timed span(spans, "hwm_campaign_attribute", timed);
                for (std::size_t k = 0; k < timed; ++k) {
                    sink -= rrb::detail::hwm_campaign_attribute(
                        s.config(), s.scua_program(), contenders,
                        s.run_protocol(), k, acc, fp);
                }
            }
            g_sink = sink;
        }
    }
    return c;
}

// -------------------------------------------------------------- stats

void probe_fold(SpanLog& spans) {
    std::vector<rrb::Measurement> samples(1024);
    std::uint64_t x = 0x1234567ULL;
    for (rrb::Measurement& m : samples) m.exec_time = 2600 + xorshift(x) % 900;
    for (int rep = 0; rep < kReps; ++rep) {
        rrb::PwcetAccumulator acc;
        const Timed span(spans, "PwcetAccumulator::add", kFolds);
        for (std::uint64_t i = 0; i < kFolds; ++i) {
            acc.add(i, samples[i & 1023]);
        }
    }
}

/// Encodes, decodes, fits and saves the checkpoints the workload's units
/// wrote (none, except on batch-grid); each span covers a loop of calls
/// long enough to time reliably. Returns the mean encoded size in
/// bytes.
double probe_checkpoints(const Workload& w, SpanLog& spans,
                         const std::string& probe_dir) {
    const std::vector<std::string> paths = w.checkpoint_paths();
    std::vector<rrb::PwcetCheckpoint> ckpts;
    std::vector<rrb::PwcetAccumulator> merged;
    double bytes = 0.0;
    for (const std::string& path : paths) {
        ckpts.push_back(rrb::load_pwcet_checkpoint(path));
        merged.emplace_back(ckpts.back().meta.block_size);
        for (const rrb::PwcetAccumulator& shard : ckpts.back().shards) {
            merged.back().merge(shard);
        }
        bytes += static_cast<double>(
            rrb::encode_pwcet_checkpoint(ckpts.back()).size());
    }
    constexpr std::uint64_t kCodecCalls = 20;
    constexpr std::uint64_t kFitCalls = 200;
    constexpr std::uint64_t kSaves = 3;
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < ckpts.size(); ++i) {
            std::vector<std::uint8_t> encoded;
            {
                const Timed span(spans, "encode_pwcet_checkpoint",
                                 kCodecCalls);
                for (std::uint64_t k = 0; k < kCodecCalls; ++k) {
                    encoded = rrb::encode_pwcet_checkpoint(ckpts[i]);
                }
            }
            {
                const Timed span(spans, "decode_pwcet_checkpoint",
                                 kCodecCalls);
                for (std::uint64_t k = 0; k < kCodecCalls; ++k) {
                    g_sink = rrb::decode_pwcet_checkpoint(encoded).shards.size();
                }
            }
            {
                const Timed span(spans, "StreamingBlockMaxima::fit",
                                 kFitCalls);
                for (std::uint64_t k = 0; k < kFitCalls; ++k) {
                    g_sink = merged[i].blocks().fit().sample_size;
                }
            }
            const Timed span(spans, "save_pwcet_checkpoint", kSaves);
            for (std::uint64_t k = 0; k < kSaves; ++k) {
                rrb::save_pwcet_checkpoint(probe_dir + "/probe.ckpt",
                                           ckpts[i]);
            }
        }
    }
    return paths.empty() ? 0.0 : bytes / static_cast<double>(paths.size());
}

}  // namespace

void measure_layers(Workload& w, const TracedPhase& phase, SpanLog& spans,
                    std::vector<Metric>& out) {
    // Library telemetry of the traced phase, read before anything else
    // runs.
    const obs::CounterSnapshot k =
        obs::TelemetryRegistry::instance().counters();
    std::vector<double> shard_ms;
    for (const obs::SpanRecord& s :
         obs::TelemetryRegistry::instance().spans()) {
        if (std::string(s.name) == "shard" && s.end_ns > s.begin_ns) {
            shard_ms.push_back(static_cast<double>(s.end_ns - s.begin_ns) /
                               1e6);
        }
    }
    const auto units = static_cast<double>(phase.traced_units);
    const auto runs = static_cast<double>(k[obs::kRunsCompleted]);

    const std::vector<rrb::MachineConfig> configs = distinct_configs(w);
    for (const rrb::MachineConfig& config : configs) {
        for (int rep = 0; rep < kReps; ++rep) {
            probe_bus(config, spans);
            probe_cache(config, spans);
            probe_dram(config, spans);
        }
    }
    probe_decode(w, spans);
    const RunCounts counts = sample_runs(w, spans);
    probe_fold(spans);
    const double ckpt_bytes = probe_checkpoints(w, spans, phase.probe_dir);

    const double bus_ns = ns(median(spans.per_item("bus.post+arbitrate+complete")));
    const double cache_ns = ns(median(spans.per_item("cache.read+write")));
    const double dram_ns = ns(median(spans.per_item("dram.enqueue+tick")));
    const double unarmed_us = us(median(spans.per_item("hwm_campaign_run")));
    const double armed_us =
        us(median(spans.per_item("hwm_campaign_attribute")));
    const double run_us = w.armed() ? armed_us : unarmed_us;
    const double explained = bus_ns * counts.txns +
                             cache_ns * counts.l2_live +
                             dram_ns * counts.dram_reqs;

    out.push_back({"replay.decode_us",
                   us(median(spans.per_item("replay.decode_program"))), "us"});
    out.push_back({"replay.decodes",
                   static_cast<double>(phase.cold_decodes), "count"});
    out.push_back({"replay.run_frac",
                   ratio(static_cast<double>(k[obs::kReplayRuns]), runs),
                   "frac"});

    out.push_back({"machine.run_us", run_us, "us"});
    out.push_back({"machine.ns_per_sim_cycle",
                   ratio(run_us * 1e3, counts.finish), "ns"});
    out.push_back({"machine.events_skipped_per_run",
                   ratio(static_cast<double>(k[obs::kEventsSkipped]), runs),
                   "count"});
    out.push_back({"machine.residual_frac",
                   1.0 - ratio(explained, run_us * 1e3), "frac"});

    out.push_back({"cpu.attr_run_us", armed_us, "us"});
    out.push_back({"cpu.attr_overhead", ratio(armed_us, unarmed_us),
                   "ratio"});

    out.push_back({"bus.txns_per_run", counts.txns, "count"});
    out.push_back({"bus.ns_per_txn", bus_ns, "ns"});
    out.push_back({"cache.ns_per_lookup", cache_ns, "ns"});
    out.push_back({"cache.l2_accesses_per_run", counts.l2_accesses,
                   "count"});
    out.push_back({"dram.reqs_per_run", counts.dram_reqs, "count"});
    out.push_back({"dram.ns_per_req", dram_ns, "ns"});

    out.push_back({"stats.fold_ns",
                   ns(median(spans.per_item("PwcetAccumulator::add"))),
                   "ns"});
    out.push_back({"stats.fit_us",
                   us(median(spans.per_item("StreamingBlockMaxima::fit"))),
                   "us"});
    out.push_back({"stats.ckpt_encode_us",
                   us(median(spans.per_item("encode_pwcet_checkpoint"))),
                   "us"});
    out.push_back({"stats.ckpt_decode_us",
                   us(median(spans.per_item("decode_pwcet_checkpoint"))),
                   "us"});
    out.push_back({"stats.ckpt_save_ms",
                   1e3 * median(spans.per_item("save_pwcet_checkpoint")),
                   "ms"});
    out.push_back({"stats.ckpt_bytes", ckpt_bytes, "B"});

    const double lease_total = static_cast<double>(k[obs::kLeaseHits] +
                                                   k[obs::kLeaseMisses]);
    out.push_back({"engine.lease_hit_frac",
                   ratio(static_cast<double>(k[obs::kLeaseHits]),
                         lease_total),
                   "frac"});
    out.push_back(
        {"engine.worker_util",
         ratio(static_cast<double>(k[obs::kWorkerBusyNs]),
               1e9 * phase.traced_wall_s * static_cast<double>(w.jobs())),
         "frac"});
    out.push_back({"engine.shard_ms_p50", median(shard_ms), "ms"});

    const double dispatches = static_cast<double>(k[obs::kSchedDispatches]);
    out.push_back({"sched.dispatches", ratio(dispatches, units), "count"});
    out.push_back({"sched.affinity_hit_frac",
                   ratio(static_cast<double>(k[obs::kSchedAffinityHits]),
                         dispatches),
                   "frac"});
    out.push_back({"sched.steals",
                   ratio(static_cast<double>(k[obs::kSchedSteals]), units),
                   "count"});
    out.push_back({"sched.retries",
                   ratio(static_cast<double>(k[obs::kSchedRetries]), units),
                   "count"});

    out.push_back({"obs.trace_overhead",
                   ratio(phase.traced_runs_per_s, phase.untraced_runs_per_s),
                   "ratio"});
}

}  // namespace perfbench
