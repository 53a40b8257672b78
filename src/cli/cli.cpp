#include "cli/cli.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rrb.h"
#include "fault/fault.h"
#include "obs/heartbeat.h"
#include "sched/batch_spec.h"
#include "sched/campaign_scheduler.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "sim/contract.h"

namespace rrb::cli {

namespace {

/// Live progress for long campaigns: a background thread polls a
/// ProgressCounter and prints a status line to `err` until destruction.
/// Two modes: by default one line per 5 percentage points (long
/// campaigns only — short ones stay silent so command output, which the
/// determinism tests diff, is deterministic); with `--heartbeat S` one
/// line every S seconds regardless of campaign length. Both render
/// through obs::HeartbeatMeter, so every line carries runs/sec and an
/// ETA, plus worker utilization when telemetry is enabled.
class ProgressReporter {
public:
    /// Campaigns below this many runs finish faster than a human can
    /// read a progress line; don't emit any (heartbeat mode excepted —
    /// the user explicitly asked for a pulse).
    static constexpr std::size_t kMinRuns = 10'000;

    ProgressReporter(const engine::ProgressCounter& progress,
                     std::ostream& err, std::size_t total_runs,
                     std::uint64_t heartbeat_sec, std::size_t workers) {
        if (heartbeat_sec == 0 && total_runs < kMinRuns) return;
        start(progress, err, heartbeat_sec, workers,
              [&progress](obs::HeartbeatMeter& meter) {
                  return meter.sample(progress);
              });
    }

    /// Batch form: the aggregate line plus one per-scenario chip
    /// (HeartbeatMeter's multi-campaign form), so concurrent
    /// heterogeneous campaigns report on one stderr line instead of
    /// interleaving.
    ProgressReporter(const sched::BatchProgress& monitor, std::ostream& err,
                     std::uint64_t heartbeat_sec, std::size_t workers) {
        if (heartbeat_sec == 0 && monitor.aggregate().total() < kMinRuns) {
            return;
        }
        start(monitor.aggregate(), err, heartbeat_sec, workers,
              [&monitor, campaigns = monitor.samples()](
                  obs::HeartbeatMeter& meter) {
                  return meter.sample(monitor.aggregate(), campaigns);
              });
    }

    ~ProgressReporter() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        done_cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;

private:
    template <typename Sample>
    void start(const engine::ProgressCounter& progress, std::ostream& err,
               std::uint64_t heartbeat_sec, std::size_t workers,
               Sample sample) {
        thread_ = std::thread([this, &progress, &err, heartbeat_sec, workers,
                               sample] {
            // Threshold mode prints one line per 5 percentage points
            // (<= 20 lines however long the campaign runs), and is
            // quiet until the campaign announces its batch — the
            // zero-initialized counter would render "0/0 (100%)" during
            // the isolation run. The meter is primed on every poll so
            // its rate window spans polls, not prints.
            obs::HeartbeatMeter meter(workers);
            std::size_t next_percent = 5;
            const auto interval =
                heartbeat_sec > 0
                    ? std::chrono::milliseconds(1000 * heartbeat_sec)
                    : std::chrono::milliseconds(500);
            std::unique_lock<std::mutex> lock(mutex_);
            while (!done_cv_.wait_for(lock, interval,
                                      [this] { return stopping_; })) {
                if (progress.total() == 0) continue;
                const std::string line = sample(meter);
                if (heartbeat_sec > 0) {
                    err << line << "\n";
                    continue;
                }
                const std::size_t percent = static_cast<std::size_t>(
                    100.0 * progress.fraction());
                if (percent >= next_percent) {
                    err << line << "\n";
                    next_percent = percent + 5;
                }
            }
        });
    }

    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool stopping_ = false;
    std::thread thread_;
};

/// Arms the telemetry registry for one campaign command when
/// --telemetry or --heartbeat asked for it, and writes the JSON run
/// report at the end. Strictly out-of-band: nothing here touches the
/// command's stdout, so reports stay byte-identical with telemetry on
/// or off. The registry is reset on arm (each command's report covers
/// exactly that command) and disabled on finish (embedding callers —
/// the CLI tests run many commands in-process — never leak state).
class TelemetrySession {
public:
    TelemetrySession(const OptionValues& flags, std::string command)
        : path_(flags.telemetry_out),
          trace_path_(flags.trace_out),
          active_(!flags.telemetry_out.empty() || flags.heartbeat > 0 ||
                  !flags.trace_out.empty()),
          command_(std::move(command)) {
        if (!active_) return;
        obs::TelemetryRegistry& registry =
            obs::TelemetryRegistry::instance();
        registry.reset();
        registry.enable();
        begin_ns_ = registry.now_ns();
    }

    ~TelemetrySession() {
        // A command that threw past finish() must not leave the
        // registry armed for the next in-process command.
        if (active_) obs::TelemetryRegistry::instance().disable();
    }

    TelemetrySession(const TelemetrySession&) = delete;
    TelemetrySession& operator=(const TelemetrySession&) = delete;

    void campaign(const obs::CampaignInfo& info) { info_ = info; }

    /// Campaign-summed attribution for the report's "attribution"
    /// field (null unless the command ran the profiler).
    void attribution(obs::AttributionSummary summary) {
        attribution_ = std::move(summary);
        has_attribution_ = true;
    }

    /// Snapshots counters and spans, disables the registry, and — when
    /// --telemetry named a file — writes the run report. A failed write
    /// warns on `err` but does not change the command's exit code: the
    /// campaign itself succeeded.
    void finish(std::uint64_t jobs, std::ostream& err) {
        if (!active_) return;
        obs::TelemetryRegistry& registry =
            obs::TelemetryRegistry::instance();
        obs::RunReportInfo report;
        report.command = command_;
        report.campaign = info_;
        report.jobs = jobs;
        report.wall_ns = registry.now_ns() - begin_ns_;
        report.has_attribution = has_attribution_;
        report.attribution = attribution_;
        const obs::CounterSnapshot counters = registry.counters();
        // The span timeline outlives finish() for write_trace().
        spans_ = registry.spans();
        registry.disable();
        active_ = false;
        if (path_.empty()) return;
        if (!obs::write_run_report(path_, report, counters, spans_)) {
            err << "warning: could not write telemetry report to "
                << path_ << "\n";
        }
    }

    /// Writes the Chrome-trace timeline when --trace asked for one:
    /// the span hierarchy finish() snapshotted plus a sampled machine
    /// timeline — run 0 re-executed on a fresh machine with the Tracer
    /// armed. Call after finish(): the registry is disabled by then, so
    /// the extra run touches neither stdout nor the report's counters.
    void write_trace(const Scenario& scenario, std::ostream& err) {
        if (trace_path_.empty()) return;
        Machine machine(scenario.config());
        machine.tracer().enable();
        std::uint64_t loaded = 0;
        (void)detail::execute_campaign_run(
            machine, loaded, scenario.scua_program(),
            scenario.contender_programs(), scenario.run_protocol(),
            /*run_index=*/0);
        if (!obs::write_chrome_trace(trace_path_, spans_,
                                     machine.tracer().events(),
                                     scenario.config().num_cores)) {
            err << "warning: could not write trace to " << trace_path_
                << "\n";
        }
    }

private:
    std::string path_;
    std::string trace_path_;
    bool active_ = false;
    std::string command_;
    obs::CampaignInfo info_;
    bool has_attribution_ = false;
    obs::AttributionSummary attribution_;
    std::vector<obs::SpanRecord> spans_;
    std::uint64_t begin_ns_ = 0;
};

/// What every campaign command shares: a Session at --jobs counting into
/// `progress`, the command's telemetry, and a live status line while
/// the campaign runs.
struct CampaignCommand {
    CampaignCommand(const OptionValues& flags, std::string command)
        : heartbeat(flags.heartbeat), telemetry(flags, std::move(command)) {
        session.jobs(flags.jobs).progress(&progress);
    }

    /// Runs `call(session)` under the status line for `total_runs` runs
    /// on `jobs` workers, and returns its result.
    template <typename Call>
    auto run(std::size_t total_runs, std::size_t jobs, std::ostream& err,
             Call call) {
        const ProgressReporter reporter(progress, err, total_runs, heartbeat,
                                        jobs);
        return call(session);
    }

    /// Files the run report for the campaign `info` names, then the
    /// --trace timeline of `scenario`'s run 0.
    void finish(const obs::CampaignInfo& info, std::size_t jobs,
                const Scenario& scenario, std::ostream& err) {
        telemetry.campaign(info);
        telemetry.finish(jobs, err);
        telemetry.write_trace(scenario, err);
    }

    std::uint64_t heartbeat;
    engine::ProgressCounter progress;
    Session session;
    TelemetrySession telemetry;
};

UbdEstimatorOptions build_options(const OptionValues& flags) {
    UbdEstimatorOptions opt;
    opt.k_max = flags.k_max;
    opt.unroll = 8;
    opt.rsk_iterations = flags.iterations;
    opt.nop_latency = flags.nop_latency;
    return opt;
}

/// Campaign identity for a whole (unsliced) campaign's run report:
/// the same plan the campaign scheduler will run, pinned alongside the
/// scenario fingerprint and seed.
obs::CampaignInfo whole_campaign_info(const Scenario& scenario,
                                      std::uint64_t block_size) {
    const std::size_t runs = scenario.run_protocol().runs;
    const engine::ReducePlan plan = engine::ReducePlan::for_count(runs);
    obs::CampaignInfo info;
    info.scenario_fingerprint = scenario.fingerprint();
    info.seed = scenario.run_protocol().seed;
    info.total_runs = runs;
    info.block_size = block_size;
    info.shard_size = plan.shard_size;
    info.plan_shards = plan.shards();
    info.first_run = 0;
    info.last_run = runs;
    return info;
}

int cmd_estimate(const OptionValues& flags, std::ostream& out,
                 std::ostream&) {
    const MachineConfig config = build_config(flags);
    const UbdEstimatorOptions options = build_options(flags);

    if (flags.store_span) {
        const CrossCheckedEstimate e =
            estimate_ubd_cross_checked(config, options);
        out << "load path : "
            << (e.load_path.found ? std::to_string(e.load_path.ubd)
                                  : std::string("not found"))
            << " (period " << e.load_path.period_k << ", votes "
            << e.load_path.confidence.detector_votes << "/4)\n";
        out << "store path: "
            << (e.store_path.found ? std::to_string(e.store_path.ubd)
                                   : std::string("not found"))
            << "\n";
        out << "cross-check: " << (e.agree ? "AGREE" : "DISAGREE") << "\n";
        if (e.agree) out << "ubd = " << e.ubd << " cycles\n";
        return e.agree ? 0 : 2;
    }

    const UbdEstimate e = estimate_ubd(config, options);
    if (!e.found) {
        out << "no saw-tooth period found\n";
        for (const auto& w : e.confidence.warnings) {
            out << "warning: " << w << "\n";
        }
        return 2;
    }
    out << "ubd = " << e.ubd << " cycles (period " << e.period_k
        << " nop steps, delta_nop = " << e.confidence.nop.delta_nop
        << ", votes " << e.confidence.detector_votes << "/4, saturation "
        << static_cast<int>(100.0 * e.confidence.saturation_utilization)
        << "%)\n";
    for (const auto& w : e.confidence.warnings) {
        out << "warning: " << w << "\n";
    }
    if (!flags.csv_path.empty()) {
        const std::vector<std::string> names = {"dbus", "et_isolation",
                                                "et_contention"};
        const std::vector<std::vector<double>> cols = {
            e.dbus, e.et_isolation, e.et_contention};
        if (!write_text_file(flags.csv_path, to_csv(names, cols))) {
            out << "warning: could not write " << flags.csv_path << "\n";
        } else {
            out << "sweep written to " << flags.csv_path << "\n";
        }
    }
    return 0;
}

int cmd_calibrate(const OptionValues& flags, std::ostream& out,
                  std::ostream&) {
    const MachineConfig config = build_config(flags);
    const NopCalibration cal =
        calibrate_delta_nop(config, 2048, 64, flags.nop_latency);
    out << "delta_nop = " << cal.delta_nop << " cycles ("
        << cal.nops_executed << " nops in " << cal.exec_time
        << " cycles; rounded " << cal.rounded() << ", residual "
        << cal.residual() << ")\n";
    return 0;
}

int cmd_baseline(const OptionValues& flags, std::ostream& out,
                 std::ostream&) {
    const MachineConfig config = build_config(flags);
    const NaiveUbdm naive =
        naive_ubdm_rsk_vs_rsk(config, OpKind::kLoad, flags.iterations);
    out << "naive rsk-vs-rsk: ubdm(mean det/nr) = " << naive.ubdm_mean
        << ", ubdm(max observed delay) = " << naive.ubdm_max_gamma
        << ", true ubd = " << config.ubd_analytic() << "\n";
    return 0;
}

/// Shared body of the single-run measurement lines: the black-box PMC
/// view a COTS user could read off real hardware.
void report_measurement(const char* label, const Measurement& m,
                        std::ostream& out) {
    out << label << ": et = " << m.exec_time << " cycles, nr = "
        << m.bus_requests << "\n";
    out << "bus utilization = " << m.bus_utilization << ", scua share = "
        << m.scua_bus_share << "\n";
    if (m.deadline_reached) out << "deadline reached — run invalid\n";
}

int cmd_isolation(const OptionValues& flags, std::ostream& out,
                  std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/1);
    TelemetrySession telemetry(flags, "isolation");
    const Session session;
    const Measurement m = session.isolation(scenario);
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.finish(/*jobs=*/1, err);
    report_measurement("isolation", m, out);
    return m.deadline_reached ? 2 : 0;
}

int cmd_contention(const OptionValues& flags, std::ostream& out,
                   std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/1);
    TelemetrySession telemetry(flags, "contention");
    const Session session;
    const Measurement m = session.contention(scenario);
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.finish(/*jobs=*/1, err);
    report_measurement("contention", m, out);
    const Cycle ubd = scenario.config().ubd_analytic();
    const bool bounded = m.max_gamma <= ubd;
    out << "max gamma = " << m.max_gamma << " (ubd = " << ubd
        << "), bounded: " << (bounded ? "yes" : "NO") << "\n";
    return (bounded && !m.deadline_reached) ? 0 : 2;
}

int cmd_slowdown(const OptionValues& flags, std::ostream& out,
                 std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/1);
    TelemetrySession telemetry(flags, "slowdown");
    const Session session;
    const SlowdownResult r = session.slowdown(scenario);
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.finish(/*jobs=*/1, err);
    out << "slowdown: et_isol = " << r.isolation.exec_time
        << " cycles, et_cont = " << r.contention.exec_time
        << " cycles, det = " << r.slowdown() << " cycles\n";
    const Cycle ubd = scenario.config().ubd_analytic();
    const std::uint64_t nr = r.isolation.bus_requests;
    out << "per request = "
        << (nr == 0 ? 0.0
                    : static_cast<double>(r.slowdown()) /
                          static_cast<double>(nr))
        << " (nr = " << nr << ", ubd = " << ubd << ")\n";
    const bool bounded = r.contention.max_gamma <= ubd;
    out << "max gamma = " << r.contention.max_gamma << ", bounded: "
        << (bounded ? "yes" : "NO") << "\n";
    const bool invalid =
        r.isolation.deadline_reached || r.contention.deadline_reached;
    if (invalid) out << "deadline reached — run invalid\n";
    return (bounded && !invalid) ? 0 : 2;
}

int cmd_campaign(const OptionValues& flags, std::ostream& out,
                 std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);
    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(flags.jobs, runs);

    CampaignCommand command(flags, "campaign");
    const HwmCampaignResult hwm = command.run(
        runs, jobs, err, [&](Session& s) { return s.hwm(scenario); });
    command.finish(whole_campaign_info(scenario, /*block_size=*/0), jobs,
                   scenario, err);

    const Cycle ubd = scenario.config().ubd_analytic();
    const Cycle etb = hwm.et_isolation + hwm.nr * ubd;
    const bool bounded = hwm.high_water_mark <= etb;
    out << "campaign: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(command.progress) << ")\n";
    out << "et_isol = " << hwm.et_isolation << " cycles, nr = " << hwm.nr
        << "\n";
    out << "hwm = " << hwm.high_water_mark << ", lwm = "
        << hwm.low_water_mark << ", hwm/req = "
        << hwm.hwm_slowdown_per_request() << " (ubd = " << ubd << ")\n";
    out << "etb = " << etb << ", bounded: " << (bounded ? "yes" : "NO")
        << ", margin = "
        << (bounded ? etb - hwm.high_water_mark : Cycle{0}) << " cycles\n";
    return bounded ? 0 : 2;
}

/// One percentage with a fixed decimal count — snprintf, not ostream
/// precision state, so the report lines stay deterministic bytes.
std::string percent(std::uint64_t part, std::uint64_t whole) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f",
                  whole == 0 ? 0.0
                             : 100.0 * static_cast<double>(part) /
                                   static_cast<double>(whole));
    return buf;
}

int cmd_attribution(const OptionValues& flags, std::ostream& out,
                    std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);
    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    CampaignCommand command(flags, "attribution");
    const engine::AttributionCampaignResult r = command.run(
        runs, jobs, err, [&](Session& s) { return s.attribution(scenario); });
    command.telemetry.attribution(attribution_summary(r.attribution));
    command.finish(whole_campaign_info(scenario, /*block_size=*/0), jobs,
                   scenario, err);

    const AttributionAccumulator& acc = r.attribution;
    const CoreId cores = static_cast<CoreId>(acc.num_cores());
    out << "attribution: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(command.progress) << ")\n";
    out << "et_isol = " << r.et_isolation << " cycles, nr = " << r.nr
        << "\n";
    out << "machine cycles = " << acc.machine_cycles() << " per core over "
        << acc.runs() << " runs, " << acc.num_cores() << " cores\n";
    // Space-separated columns, no padding, like sweep-pwcet: rows are
    // machine-diffable and sum checks are one awk away.
    out << "cycles by cause (each core's column sums to machine "
           "cycles):\n";
    out << "cause";
    for (CoreId c = 0; c < cores; ++c) out << " core" << c;
    out << "\n";
    for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
        out << to_string(static_cast<StallCause>(cause));
        for (CoreId c = 0; c < cores; ++c) {
            out << " " << acc.timeline(c, static_cast<StallCause>(cause));
        }
        out << "\n";
    }
    out << "blame matrix (bus-wait cycles, victim row charged to "
           "contender column):\n";
    out << "victim";
    for (CoreId w = 0; w < cores; ++w) out << " core" << w;
    out << " dead_slot\n";
    for (CoreId v = 0; v < cores; ++v) {
        out << "core" << v;
        for (CoreId w = 0; w < cores; ++w) out << " " << acc.blamed(v, w);
        out << " " << acc.dead_slot_cycles(v) << "\n";
    }
    for (CoreId v = 0; v < cores; ++v) {
        const std::uint64_t dead = acc.dead_slot_cycles(v);
        const std::uint64_t denom = acc.blamed_total(v) + dead;
        out << "core" << v << " stall share:";
        if (denom == 0) {
            out << " none\n";
            continue;
        }
        for (CoreId w = 0; w < cores; ++w) {
            if (w == v) continue;
            out << " core" << w << " " << percent(acc.blamed(v, w), denom)
                << "%";
        }
        if (dead > 0) out << " dead " << percent(dead, denom) << "%";
        out << "\n";
    }
    return 0;
}

/// Everything a pWCET campaign report prints after its header line —
/// shared verbatim by `pwcet` and `merge`, so a distributed fan-in's
/// report is byte-identical to the single-process reference from the
/// second line on (CI diffs exactly that). Returns the exit code:
/// 0 = HWM bounded by the ETB, 2 = bound violated, 3 = bounded but no
/// usable fit (so scripts can tell "unsound bound" from "not enough
/// data").
int report_pwcet(const PwcetCampaignResult& r, Cycle ubd,
                 std::ostream& out) {
    out << "et_isol = " << r.et_isolation << " cycles, nr = " << r.nr
        << "\n";
    out << "hwm = " << r.high_water_mark << ", lwm = " << r.low_water_mark
        << ", mean = " << r.mean << ", stddev = " << r.stddev << "\n";
    out << "streamed: " << r.live_values << " live values for " << r.runs
        << " runs (" << r.blocks << " complete blocks)\n";
    // The bound check is independent of the fit — report it (and let a
    // violation dominate the exit code) even when the fit is unusable.
    const Cycle etb = r.etb(ubd);
    const bool bounded = r.high_water_mark <= etb;
    out << "etb = " << etb << ", hwm bounded: " << (bounded ? "yes" : "NO")
        << "\n";
    if (!r.fit.valid()) {
        out << "gumbel fit: degenerate (" << r.blocks
            << " blocks, no spread) — raise --runs or lower --block-size\n";
        return bounded ? 3 : 2;
    }
    out << "gumbel: mu = " << r.fit.mu << ", beta = " << r.fit.beta
        << " (fit on " << r.fit.sample_size << " block maxima)\n";
    for (const PwcetQuantile& q : r.quantiles) {
        out << "pwcet@" << q.exceedance << " = " << q.pwcet << " ("
            << (q.pwcet >= static_cast<double>(r.high_water_mark)
                    ? ">= hwm"
                    : "below hwm")
            << ", "
            << (q.pwcet <= static_cast<double>(etb) ? "below etb"
                                                    : "above etb")
            << ")\n";
    }
    return bounded ? 0 : 2;
}

/// `--shard i/N --checkpoint-out FILE` on `pwcet` or `whitebox`: run
/// one slice of the campaign's shard plan via `save(session, slice)`
/// and persist its accumulator state instead of reporting — the report
/// comes from `merge_command` over every slice.
template <typename Save>
int cmd_slice(const OptionValues& flags, const char* command,
              const char* merge_command, const Scenario& scenario,
              std::ostream& out, std::ostream& err, Save save) {
    RRB_REQUIRE(!flags.checkpoint_out.empty(),
                "--shard needs --checkpoint-out to name the slice file");
    const SliceSpec slice = flags.shard.value_or(SliceSpec{0, 1});
    CampaignCommand campaign(flags, command);
    const std::size_t jobs = campaign.session.worker_budget();
    const auto checkpoint =
        campaign.run(scenario.run_protocol().runs, jobs, err,
                     [&](Session& s) { return save(s, slice); });
    // The shard report carries the slice's run range and plan from the
    // checkpoint metadata: collecting every shard's report reconstructs
    // the distributed campaign's timeline.
    campaign.finish(telemetry_info(checkpoint.meta), jobs, scenario, err);

    const CheckpointMeta& meta = checkpoint.meta;
    out << command << " shard " << slice.index << "/" << slice.count
        << ": runs [" << meta.first_run << ", " << meta.last_run << ") of "
        << meta.total_runs;
    if constexpr (std::is_same_v<decltype(checkpoint),
                                 const PwcetCheckpoint>) {
        out << " in blocks of " << meta.block_size;
    }
    out << ", seed " << meta.seed << "\n";
    out << "checkpoint written to " << flags.checkpoint_out << " ("
        << checkpoint.shards.size() << " shard accumulators, merge with "
        << "'rrbtool " << merge_command << "')\n";
    return 0;
}

int cmd_pwcet(const OptionValues& flags, std::ostream& out,
              std::ostream& err) {
    // Runs default to 40 blocks (the campaign command's 20-run default
    // would not even fill one block).
    const BatchItem campaign = build_pwcet_campaign(flags);
    const Scenario& scenario = campaign.scenario;
    const PwcetSpec& spec = campaign.spec;

    if (flags.shard.has_value() || !flags.checkpoint_out.empty()) {
        return cmd_slice(flags, "pwcet", "merge", scenario, out, err,
                         [&](Session& s, const SliceSpec& slice) {
                             return s.checkpoint(scenario, spec, slice,
                                                 flags.checkpoint_out);
                         });
    }

    const std::size_t runs = scenario.run_protocol().runs;
    // The scheduler shards the run range — report the width it will
    // actually keep busy.
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    CampaignCommand command(flags, "pwcet");
    const PwcetCampaignResult r = command.run(
        runs, jobs, err, [&](Session& s) { return s.pwcet(scenario, spec); });
    command.finish(whole_campaign_info(scenario, spec.block_size), jobs,
                   scenario, err);

    out << "pwcet: " << r.runs << " runs in blocks of " << spec.block_size
        << " on " << jobs << " jobs, seed " << scenario.run_protocol().seed
        << " (" << engine::render_progress(command.progress) << ")\n";
    // Exit contract, matching `campaign`: 0 = HWM bounded by the ETB,
    // 2 = bound violated; 3 = bounded but no usable fit.
    return report_pwcet(r, scenario.config().ubd_analytic(), out);
}

/// Merge fan-ins treat each argument as a distinct slice, so the same
/// path twice would double-count its shards; reject by name up front
/// (the codec would also catch it as duplicate coverage, but a usage
/// error should not cost a file load first).
void require_unique_inputs(const std::vector<std::string>& inputs,
                           const char* command) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        for (std::size_t j = i + 1; j < inputs.size(); ++j) {
            if (inputs[i] == inputs[j]) {
                throw std::invalid_argument(
                    std::string(command) +
                    ": duplicate checkpoint file '" + inputs[i] + "'");
            }
        }
    }
}

int cmd_merge(const OptionValues& flags, std::ostream& out,
              std::ostream& err) {
    RRB_REQUIRE(!flags.inputs.empty(),
                "merge needs at least one checkpoint file");
    require_unique_inputs(flags.inputs, "merge");
    TelemetrySession telemetry(flags, "merge");
    const Session session;
    const MergedPwcetCampaign merged = session.merge(flags.inputs);
    telemetry.campaign(telemetry_info(merged.meta));
    telemetry.finish(/*jobs=*/1, err);
    out << "merge: " << flags.inputs.size() << " checkpoints, "
        << merged.result.runs << " runs in blocks of "
        << merged.meta.block_size << ", seed " << merged.meta.seed << "\n";
    // From here the report is byte-identical to the reference
    // single-process `pwcet` run — including the exit-code contract.
    return report_pwcet(merged.result, merged.meta.ubd_analytic, out);
}

/// Everything a white-box campaign report prints after its header line
/// — shared verbatim by `whitebox` and `merge-whitebox`, so a
/// distributed fan-in's report is byte-identical to the single-process
/// reference from the second line on. Exit 0 = observed per-request
/// delays bounded by the analytic ubd, 2 = a request waited longer
/// (which falsifies Equation 1 and means a modelling bug).
int report_whitebox(const engine::WhiteboxCampaignResult& r, Cycle ubd,
                    std::ostream& out) {
    const WhiteboxAccumulator& stats = r.stats;
    out << "et_isol = " << r.et_isolation << " cycles, nr = " << r.nr
        << "\n";
    const StreamingExtremes<Cycle>& extremes = stats.extremes();
    out << "runs = " << stats.runs() << ", hwm = "
        << (extremes.empty() ? 0 : extremes.max()) << ", lwm = "
        << (extremes.empty() ? 0 : extremes.min()) << "\n";
    const bool bounded = stats.max_gamma() <= ubd;
    out << "max gamma = " << stats.max_gamma() << " (ubd = " << ubd
        << "), bounded: " << (bounded ? "yes" : "NO") << "\n";
    if (!stats.gamma().empty()) {
        out << "gamma: mean = " << stats.gamma().mean() << ", mode = "
            << stats.gamma().mode() << " (" << stats.gamma().total()
            << " requests)\n";
    }
    if (!stats.ready_contenders().empty()) {
        out << "ready contenders: mode = " << stats.ready_contenders().mode()
            << ", max = " << stats.ready_contenders().max() << "\n";
    }
    if (!stats.injection_delta().empty()) {
        out << "injection delta: mode = " << stats.injection_delta().mode()
            << ", min = " << stats.injection_delta().min() << "\n";
    }
    return bounded ? 0 : 2;
}

int cmd_whitebox(const OptionValues& flags, std::ostream& out,
                 std::ostream& err) {
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);

    if (flags.shard.has_value() || !flags.checkpoint_out.empty()) {
        return cmd_slice(flags, "whitebox", "merge-whitebox", scenario, out,
                         err, [&](Session& s, const SliceSpec& slice) {
                             return s.checkpoint(scenario, slice,
                                                 flags.checkpoint_out);
                         });
    }

    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    CampaignCommand command(flags, "whitebox");
    const engine::WhiteboxCampaignResult r = command.run(
        runs, jobs, err, [&](Session& s) { return s.whitebox(scenario); });
    command.finish(whole_campaign_info(scenario, /*block_size=*/0), jobs,
                   scenario, err);

    out << "whitebox: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(command.progress) << ")\n";
    return report_whitebox(r, scenario.config().ubd_analytic(), out);
}

int cmd_merge_whitebox(const OptionValues& flags, std::ostream& out,
                       std::ostream& err) {
    RRB_REQUIRE(!flags.inputs.empty(),
                "merge-whitebox needs at least one checkpoint file");
    require_unique_inputs(flags.inputs, "merge-whitebox");
    TelemetrySession telemetry(flags, "merge-whitebox");
    const Session session;
    const MergedWhiteboxCampaign merged =
        session.merge_whitebox(flags.inputs);
    telemetry.campaign(telemetry_info(merged.meta));
    telemetry.finish(/*jobs=*/1, err);
    out << "merge-whitebox: " << flags.inputs.size() << " checkpoints, "
        << merged.result.stats.runs() << " runs, seed "
        << merged.meta.seed << "\n";
    // From here the report is byte-identical to the reference
    // single-process `whitebox` run — including the exit-code contract.
    return report_whitebox(merged.result, merged.meta.ubd_analytic, out);
}

int cmd_sweep_pwcet(const OptionValues& flags, std::ostream& out,
                    std::ostream& err) {
    const BatchItem campaign = build_pwcet_campaign(flags);
    const Scenario& scenario = campaign.scenario;
    const PwcetSpec& spec = campaign.spec;
    SweepAxes axes;
    axes.cores = flags.cores_axis;
    axes.lbus = flags.lbus_axis;
    axes.arbiters = flags.arbiter_axis;

    const std::size_t runs = scenario.run_protocol().runs;

    CampaignCommand command(flags, "sweep-pwcet");  // progress per point
    const std::size_t jobs = command.session.worker_budget();
    // Point campaigns are silent; report over the whole run volume only
    // when it is genuinely long.
    const SweepResult sweep =
        command.run(axes.points() * runs, jobs, err, [&](Session& s) {
            return s.sweep(scenario, axes, spec);
        });
    // One report for the whole grid: the base scenario's identity with
    // the run volume scaled by the point count (each point's own timings
    // live in the span timeline).
    obs::CampaignInfo info = whole_campaign_info(scenario, spec.block_size);
    info.total_runs = axes.points() * runs;
    info.last_run = info.total_runs;
    command.finish(info, jobs, scenario, err);

    out << "sweep-pwcet: " << sweep.points.size() << " configs x " << runs
        << " runs in blocks of " << spec.block_size << " on " << jobs
        << " jobs (shared pool), seed " << scenario.run_protocol().seed
        << "\n";
    // Space-separated columns, no padding: rows are machine-diffable
    // (the determinism tests compare them byte for byte) and a padded
    // header over unpadded rows would only pretend to align.
    out << "cores lbus arbiter hwm etb bounded";
    for (const double e : spec.exceedance) out << " pwcet@" << e;
    out << "\n";

    bool any_unbounded = false;
    bool any_degenerate = false;
    for (const SweepPoint& p : sweep.points) {
        // The analytic per-request bound — and with it the ETB check —
        // is the round-robin Equation 1; other arbiters get the grid
        // point's pWCET quantiles without a bound verdict.
        const bool rr = p.arbiter == ArbiterKind::kRoundRobin;
        const Cycle etb = p.result.etb(p.config.ubd_analytic());
        const bool bounded = p.result.high_water_mark <= etb;
        if (rr && !bounded) any_unbounded = true;
        if (!p.result.fit.valid()) any_degenerate = true;
        out << p.cores << " " << p.lbus << " " << arbiter_name(p.arbiter)
            << " " << p.result.high_water_mark << " " << etb << " "
            << (rr ? (bounded ? "yes" : "NO") : "n/a");
        for (const PwcetQuantile& q : p.result.quantiles) {
            out << " " << q.pwcet;
        }
        out << "\n";
    }
    if (any_unbounded) {
        out << "bound violated on at least one round-robin config\n";
        return 2;
    }
    if (any_degenerate) {
        out << "degenerate fit on at least one config — raise --runs or "
               "lower --block-size\n";
        return 3;
    }
    return 0;
}

int cmd_sweep(const OptionValues& flags, std::ostream& out,
              std::ostream&) {
    const MachineConfig config = build_config(flags);
    const UbdEstimate e = estimate_ubd(config, build_options(flags));
    const std::vector<std::string> names = {"dbus"};
    const std::vector<std::vector<double>> cols = {e.dbus};
    const std::string csv = to_csv(names, cols);
    if (flags.csv_path.empty()) {
        out << csv;
    } else if (write_text_file(flags.csv_path, csv)) {
        out << "sweep written to " << flags.csv_path << "\n";
    } else {
        out << "error: could not write " << flags.csv_path << "\n";
        return 2;
    }
    return 0;
}

std::optional<std::string> read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return std::nullopt;
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
}

/// Ordered name -> number pairs of one flat JSON object section
/// ("counters", "derived") of a run report. Hand-scanned against the
/// renderer's own output shape — tolerant of any key set, so reports
/// written by other versions of the tool still diff instead of erroring
/// on an unknown counter.
std::vector<std::pair<std::string, double>> json_section_numbers(
    const std::string& text, const std::string& section) {
    std::vector<std::pair<std::string, double>> items;
    const std::string needle = "\"" + section + "\": {";
    const std::size_t start = text.find(needle);
    if (start == std::string::npos) return items;
    std::size_t pos = start + needle.size();
    const std::size_t end = text.find('}', pos);
    if (end == std::string::npos) return items;
    while (pos < end) {
        const std::size_t key_open = text.find('"', pos);
        if (key_open == std::string::npos || key_open >= end) break;
        const std::size_t key_close = text.find('"', key_open + 1);
        if (key_close == std::string::npos || key_close >= end) break;
        const std::size_t colon = text.find(':', key_close);
        if (colon == std::string::npos || colon >= end) break;
        char* stop = nullptr;
        const double value = std::strtod(text.c_str() + colon + 1, &stop);
        items.emplace_back(text.substr(key_open + 1,
                                       key_close - key_open - 1),
                           value);
        pos = static_cast<std::size_t>(stop - text.c_str());
    }
    return items;
}

std::optional<double> json_top_number(const std::string& text,
                                      const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return std::nullopt;
    return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

double find_value(const std::vector<std::pair<std::string, double>>& items,
                  const std::string& key, bool& found) {
    for (const auto& [name, value] : items) {
        if (name == key) {
            found = true;
            return value;
        }
    }
    found = false;
    return 0.0;
}

/// Signed percentage change b vs a ("+12.3%", "-4.0%"); "n/a" when the
/// baseline is zero.
std::string change_pct(double a, double b) {
    if (a == 0.0) return "n/a";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (b - a) / a);
    return buf;
}

/// `rrbtool batch SPEC`: every scenario of the spec file runs as one
/// flat (campaign × shard) queue on one shared pool — concurrent
/// heterogeneous campaigns with machine-lease affinity — and each
/// scenario emits a whole-campaign checkpoint under --out-dir, byte-
/// identical to `pwcet --shard 0/1` of the same scenario and farmable
/// through `rrbtool merge`.
int cmd_batch(const OptionValues& flags, std::ostream& out,
              std::ostream& err) {
    RRB_REQUIRE(flags.inputs.size() == 1,
                "batch needs exactly one spec file");
    const std::optional<std::string> text = read_file(flags.inputs[0]);
    if (!text) {
        err << "error: could not read " << flags.inputs[0] << "\n";
        return 1;
    }
    const std::vector<BatchItem> items = sched::parse_batch_spec(*text);

    std::size_t total_runs = 0;
    for (const BatchItem& item : items) {
        total_runs += item.scenario.run_protocol().runs;
    }
    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);
    const std::size_t jobs = session.worker_budget();

    sched::BatchProgress monitor;
    {
        std::vector<std::pair<std::string, std::size_t>> campaigns;
        campaigns.reserve(items.size());
        for (const BatchItem& item : items) {
            campaigns.emplace_back(item.name,
                                   item.scenario.run_protocol().runs);
        }
        monitor.announce(campaigns);
    }

    TelemetrySession telemetry(flags, "batch");
    BatchResult result;
    {
        const ProgressReporter reporter(monitor, err, flags.heartbeat, jobs);
        result = session.batch(items, &monitor);
    }
    {
        // One report for the whole batch: the run volume summed over
        // scenarios. Each campaign's own identity and timings live in
        // its span and its checkpoint metadata.
        obs::CampaignInfo info;
        info.total_runs = total_runs;
        info.last_run = total_runs;
        telemetry.campaign(info);
    }
    telemetry.finish(jobs, err);

    std::filesystem::create_directories(flags.out_dir);
    out << "batch: " << items.size() << " scenarios, " << total_runs
        << " runs on " << jobs << " jobs (one shared queue)\n";
    // Space-separated columns, no padding, like sweep-pwcet: rows are
    // machine-diffable byte for byte.
    out << "name runs seed hwm etb bounded checkpoint status\n";
    bool any_unbounded = false;
    bool any_degenerate = false;
    std::vector<const BatchPointResult*> failed;
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const BatchPointResult& point = result.points[i];
        const Scenario& scenario = items[i].scenario;
        if (!point.ok) {
            // The campaign is this scenario's failure domain: no
            // checkpoint is written for it (never a torn or partial
            // one), the other scenarios' rows are exactly what an
            // all-healthy batch prints.
            failed.push_back(&point);
            out << point.name << " " << scenario.run_protocol().runs
                << " " << scenario.run_protocol().seed
                << " - - - - FAILED\n";
            continue;
        }
        const std::string path = flags.out_dir + "/" + point.name + ".ckpt";
        save_pwcet_checkpoint(path, point.checkpoint);
        // The ETB verdict is the round-robin Equation 1, as everywhere
        // else; other arbiters get quantiles without a bound check.
        const bool rr = scenario.config().arbiter == ArbiterKind::kRoundRobin;
        const Cycle etb = point.result.etb(point.checkpoint.meta.ubd_analytic);
        const bool bounded = point.result.high_water_mark <= etb;
        if (rr && !bounded) any_unbounded = true;
        if (!point.result.fit.valid()) any_degenerate = true;
        out << point.name << " " << point.result.runs << " "
            << scenario.run_protocol().seed << " "
            << point.result.high_water_mark << " " << etb << " "
            << (rr ? (bounded ? "yes" : "NO") : "n/a") << " " << path
            << " ok\n";
    }
    if (!failed.empty()) {
        // Execution failure dominates the verdict codes: a bound or fit
        // verdict over an incomplete batch would be misleading.
        for (const BatchPointResult* point : failed) {
            out << "scenario '" << point->name << "' failed: "
                << point->error << "\n";
        }
        out << "batch failed: " << failed.size() << " of "
            << result.points.size() << " scenarios did not complete\n";
        return 4;
    }
    if (any_unbounded) {
        out << "bound violated on at least one round-robin scenario\n";
        return 2;
    }
    if (any_degenerate) {
        out << "degenerate fit on at least one scenario — raise runs or "
               "lower block-size\n";
        return 3;
    }
    return 0;
}

/// `rrbtool telemetry-diff a.json b.json`: counter deltas and derived
/// rate changes between two run reports, oldest first. With
/// --max-regression-pct P the throughput rates (runs/sec, cycles/sec)
/// become a gate: exit 3 when either regressed by more than P percent —
/// the CI perf gate, runnable locally against any two reports.
int cmd_telemetry_diff(const OptionValues& flags, std::ostream& out,
                       std::ostream& err) {
    RRB_REQUIRE(flags.inputs.size() == 2,
                "telemetry-diff needs exactly two run-report files");
    const std::optional<std::string> a = read_file(flags.inputs[0]);
    const std::optional<std::string> b = read_file(flags.inputs[1]);
    if (!a || !b) {
        err << "error: could not read "
            << (!a ? flags.inputs[0] : flags.inputs[1]) << "\n";
        return 1;
    }
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string& text = i == 0 ? *a : *b;
        if (text.find("\"rrb-telemetry\"") == std::string::npos) {
            err << "error: " << flags.inputs[i]
                << " is not an rrb-telemetry run report\n";
            return 1;
        }
    }
    out << "telemetry-diff: " << flags.inputs[0] << " -> "
        << flags.inputs[1] << "\n";
    const auto wall_a = json_top_number(*a, "wall_ns");
    const auto wall_b = json_top_number(*b, "wall_ns");
    if (wall_a && wall_b) {
        out << "wall_ns: " << static_cast<std::uint64_t>(*wall_a) << " -> "
            << static_cast<std::uint64_t>(*wall_b) << " ("
            << change_pct(*wall_a, *wall_b) << ")\n";
    }
    const auto counters_a = json_section_numbers(*a, "counters");
    const auto counters_b = json_section_numbers(*b, "counters");
    out << "counters:\n";
    for (const auto& [name, value_a] : counters_a) {
        bool in_b = false;
        const double value_b = find_value(counters_b, name, in_b);
        out << "  " << name << ": " << static_cast<std::uint64_t>(value_a);
        if (!in_b) {
            out << " -> (missing)\n";
            continue;
        }
        const auto delta =
            static_cast<std::int64_t>(value_b) -
            static_cast<std::int64_t>(value_a);
        out << " -> " << static_cast<std::uint64_t>(value_b) << " ("
            << (delta >= 0 ? "+" : "") << delta << ")\n";
    }
    for (const auto& [name, value_b] : counters_b) {
        bool in_a = false;
        find_value(counters_a, name, in_a);
        if (!in_a) {
            out << "  " << name << ": (missing) -> "
                << static_cast<std::uint64_t>(value_b) << "\n";
        }
    }
    const auto derived_a = json_section_numbers(*a, "derived");
    const auto derived_b = json_section_numbers(*b, "derived");
    out << "derived:\n";
    for (const auto& [name, value_a] : derived_a) {
        bool in_b = false;
        const double value_b = find_value(derived_b, name, in_b);
        out << "  " << name << ": " << value_a;
        if (!in_b) {
            out << " -> (missing)\n";
            continue;
        }
        out << " -> " << value_b << " (" << change_pct(value_a, value_b)
            << ")\n";
    }
    // The gate: throughput rates where lower is a regression.
    int exit_code = 0;
    if (flags.max_regression_pct.has_value()) {
        for (const char* key : {"runs_per_sec", "cycles_per_sec"}) {
            bool in_a = false;
            bool in_b = false;
            const double value_a = find_value(derived_a, key, in_a);
            const double value_b = find_value(derived_b, key, in_b);
            if (!in_a || !in_b || value_a <= 0.0) continue;
            const double drop_pct = 100.0 * (value_a - value_b) / value_a;
            if (drop_pct > *flags.max_regression_pct) {
                out << "regression: " << key << " dropped "
                    << change_pct(value_a, value_b)
                    << ", beyond --max-regression-pct "
                    << *flags.max_regression_pct << "\n";
                exit_code = 3;
            }
        }
        if (exit_code == 0) {
            out << "gate: no rate regression beyond "
                << *flags.max_regression_pct << "%\n";
        }
    }
    return exit_code;
}

using Handler = int (*)(const OptionValues&, std::ostream& out,
                        std::ostream& err);

/// One rrbtool command: its name, the cmd:: bit the option rows name,
/// its handler, whether it reads positional file arguments, and its
/// '\n'-separated help summary.
struct CommandRow {
    std::string_view name;
    std::uint32_t bit;
    Handler handler;  ///< null: `help`, answered before dispatch
    bool takes_files;
    std::string_view help;
};

constexpr CommandRow kCommands[] = {
    {"estimate", cmd::kEstimate, cmd_estimate, false,
     "run the rsk-nop methodology and report ubd"},
    {"calibrate", cmd::kCalibrate, cmd_calibrate, false,
     "measure delta_nop with the all-nop kernel"},
    {"baseline", cmd::kBaseline, cmd_baseline, false,
     "run the naive rsk-vs-rsk measurement"},
    {"isolation", cmd::kIsolation, cmd_isolation, false,
     "run the scua alone and report its PMC view"},
    {"contention", cmd::kContention, cmd_contention, false,
     "one scua-vs-contenders run vs the analytic ubd"},
    {"slowdown", cmd::kSlowdown, cmd_slowdown, false,
     "isolation + contention, report det(t, k)"},
    {"campaign", cmd::kCampaign, cmd_campaign, false,
     "run a randomized HWM campaign vs the ETB bound"},
    {"attribution", cmd::kAttribution, cmd_attribution, false,
     "campaign with the cycle-attribution profiler:\n"
     "per-core stall causes + contender blame matrix"},
    {"pwcet", cmd::kPwcet, cmd_pwcet, false,
     "streamed Gumbel pWCET campaign (O(runs/block) memory)"},
    {"batch", cmd::kBatch, cmd_batch, true,
     "run a multi-scenario spec file as one flat\n"
     "(campaign x shard) queue; one checkpoint per\n"
     "scenario"},
    {"merge", cmd::kMerge, cmd_merge, true,
     "merge pwcet checkpoint files into the full campaign"},
    {"whitebox", cmd::kWhitebox, cmd_whitebox, false,
     "white-box campaign: per-request delay / contender\n"
     "histograms vs the analytic ubd"},
    {"merge-whitebox", cmd::kMergeWhitebox, cmd_merge_whitebox, true,
     "merge whitebox checkpoint files"},
    {"sweep-pwcet", cmd::kSweepPwcet, cmd_sweep_pwcet, false,
     "grid of MachineConfigs, one streamed pWCET\n"
     "campaign per point on one shared pool"},
    {"sweep", cmd::kSweep, cmd_sweep, false,
     "dump the dbus(k) series as CSV"},
    {"telemetry-diff", cmd::kTelemetryDiff, cmd_telemetry_diff, true,
     "counter deltas and rate regressions between\n"
     "two --telemetry run reports"},
    {"help", 0, nullptr, false, "show this text"},
};

const CommandRow* find_command(std::string_view name) {
    for (const CommandRow& row : kCommands) {
        if (row.name == name) return &row;
    }
    return nullptr;
}

/// "  SYNOPSIS  help line" padded to `width`, further help lines
/// indented under the first.
void append_item(std::string& text, std::string_view synopsis,
                 std::string_view help, std::size_t width) {
    text += "  ";
    text += synopsis;
    text.append(std::max(width, synopsis.size() + 2) - synopsis.size(), ' ');
    for (std::size_t start = 0;;) {
        const std::size_t newline = help.find('\n', start);
        text += help.substr(start, newline - start);
        text += '\n';
        if (newline == std::string_view::npos) break;
        text.append(2 + width, ' ');
        start = newline + 1;
    }
}

/// One help group: its title, its text, then its rows' flag lines. A
/// row without help lines joins the synopsis of the row above it.
void append_group(std::string& text, HelpGroup group, std::string_view title,
                  std::string_view intro = {}) {
    text += '\n';
    text += title;
    text += '\n';
    text += intro;
    std::string synopsis;
    std::string help;
    const auto flush = [&] {
        if (!synopsis.empty()) append_item(text, synopsis, help, 21);
        synopsis.clear();
    };
    for (const OptionRow& row : option_table()) {
        if (row.group != group) continue;
        std::string item(row.flag);
        if (!row.metavar.empty()) item += " " + std::string(row.metavar);
        if (row.help.empty()) {
            if (!synopsis.empty()) synopsis += " " + item;
            continue;
        }
        flush();
        synopsis = item;
        help = row.help;
        if (!row.def.empty()) {
            help.insert(std::min(help.find('\n'), help.size()),
                        " (default " + std::string(row.def) + ")");
        }
    }
    flush();
}

/// Greedy word wrap: `lead` then `words`, lines at most 64 columns,
/// continuation lines indented to the end of `lead`.
std::string wrap(std::string_view lead, const std::string& words) {
    std::string text(lead);
    std::size_t line_start = 0;
    std::istringstream stream(words);
    std::string word;
    for (bool first = true; stream >> word; first = false) {
        if (!first && text.size() - line_start + 1 + word.size() > 64) {
            text += '\n';
            line_start = text.size();
            text.append(lead.size(), ' ');
        } else if (!first) {
            text += ' ';
        }
        text += word;
    }
    return text + '\n';
}

}  // namespace

std::string usage() {
    std::string text =
        "rrbtool — measurement-based contention bounds for round-robin "
        "buses\n\nusage: rrbtool <command> [flags]\n\ncommands:\n";
    for (const CommandRow& row : kCommands) {
        append_item(text, row.name, row.help, 13);
    }
    text += "\nEach command accepts only its own flags; anything else exits\n"
            "non-zero naming the flag.\n";
    append_group(text, HelpGroup::kPlatform,
                 "platform flags (sweep-pwcet takes --var and the axes "
                 "only):");
    append_group(text, HelpGroup::kMeasurement, "measurement flags:");
    append_group(text, HelpGroup::kCampaign, "campaign flags:");
    append_group(text, HelpGroup::kTelemetryDiff, "telemetry-diff:",
                 "  rrbtool telemetry-diff A B   diff two run reports "
                 "(oldest\n"
                 "                       first); with --max-regression-pct "
                 "P exit 3\n"
                 "                       when runs/sec or cycles/sec dropped "
                 "more\n"
                 "                       than P percent\n");
    append_group(text, HelpGroup::kPwcet,
                 "pwcet flags (plus the campaign flags above):");
    std::string keys;
    for (const OptionRow& row : option_table()) {
        if (row.key.empty()) continue;
        if (!keys.empty()) keys += ", ";
        keys += row.key;
    }
    append_group(
        text, HelpGroup::kBatch, "batch:",
        wrap("  rrbtool batch SPEC   ",
             "run every [scenario NAME] block of SPEC concurrently on one "
             "shared queue (keys: " +
                 keys +
                 "); writes NAME.ckpt per scenario, byte-identical to a "
                 "standalone 'pwcet --shard 0/1' of that scenario"));
    text += "\nmerge:\n"
            "  rrbtool merge F1 F2 ...   merge checkpoint files; rejects\n"
            "                       mismatched campaigns and duplicate or\n"
            "                       missing slices\n";
    append_group(text, HelpGroup::kSweepPwcet,
                 "sweep-pwcet flags (plus the campaign and pwcet flags):");
    return text;
}

CommandLine parse_command_line(const std::vector<std::string>& args) {
    if (args.empty()) throw std::invalid_argument("no command given");
    const CommandRow* row = find_command(args[0]);
    if (row == nullptr) {
        throw std::invalid_argument("unknown command '" + args[0] + "'");
    }
    return {row->name,
            parse_flags(std::span(args).subspan(1), row->name, row->bit,
                        row->takes_files)};
}

std::string_view command_name(std::uint32_t bit) {
    for (const CommandRow& row : kCommands) {
        if (row.bit == bit) return row.name;
    }
    return {};
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        out << usage();
        return args.empty() ? 1 : 0;
    }
    CommandLine line;
    try {
        line = parse_command_line(args);
    } catch (const std::invalid_argument& e) {
        err << "error: " << e.what() << "\n\n" << usage();
        return 1;
    }
    const std::string_view command = line.command;
    try {
        // Deterministic fault injection for whole-process smoke tests:
        // armed from RRB_FAULTS for this command only (no-op when the
        // variable is unset or a test armed the injector itself). A
        // malformed spec lands in the invalid_argument handler below.
        const fault::ScopedEnvArm faults;
        return find_command(command)->handler(line.options, out, err);
    } catch (const std::invalid_argument& e) {
        err << "error: " << e.what() << "\n";
        return 1;
    } catch (const CheckpointError& e) {
        // Bad checkpoint *data* (unreadable, corrupt, or from another
        // campaign) — a usage-style failure, distinct from the bound
        // verdicts the campaign exit codes carry.
        err << "error: " << e.what() << "\n";
        return 1;
    } catch (const std::exception& e) {
        // Anything else is an internal/runtime failure (a worker died,
        // an engine invariant tripped) — report it instead of letting
        // it escape to std::terminate, on a code no verdict uses
        // (sysexits EX_SOFTWARE).
        err << "error: command '" << command << "' failed: " << e.what()
            << "\n";
        return 70;
    } catch (...) {
        err << "error: command '" << command
            << "' failed with an unknown error\n";
        return 70;
    }
}

}  // namespace rrb::cli
