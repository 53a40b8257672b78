#include "cli/cli.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
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

struct ParsedFlags {
    std::optional<CoreId> cores;
    std::optional<Cycle> lbus;
    bool variant = false;
    std::uint32_t k_max = 70;
    std::uint64_t iterations = 40;
    std::uint32_t nop_latency = 1;
    bool store_span = false;
    std::optional<std::size_t> runs;  ///< default is per command
    std::uint64_t seed = 1;
    std::size_t jobs = 0;  ///< 0 = hardware concurrency
    std::size_t block_size = 50;
    std::vector<double> exceedances;  ///< empty = pwcet defaults
    std::vector<CoreId> cores_axis;
    std::vector<Cycle> lbus_axis;
    std::vector<ArbiterKind> arbiter_axis;
    std::optional<SliceSpec> shard;  ///< --shard i/N
    std::string checkpoint_out;
    std::string out_dir = ".";      ///< --out-dir: batch checkpoint dir
    std::string telemetry_out;      ///< --telemetry: JSON run report path
    std::string trace_out;          ///< --trace: Chrome-trace JSON path
    std::uint64_t heartbeat = 0;    ///< --heartbeat: seconds, 0 = off
    /// --max-regression-pct: telemetry-diff gate threshold; disengaged =
    /// report-only (never exit 3).
    std::optional<double> max_regression_pct;
    std::vector<std::string> inputs;  ///< positional args (merge files)
    std::string csv_path;
    std::string error;  ///< non-empty when parsing failed
};

/// Which flags each command accepts. Parsing rejects — with a non-zero
/// exit naming the flag — both flags nothing knows and flags that
/// exist but do not apply to the command at hand: a silently ignored
/// `calibrate --runs 5` would report numbers for a campaign that never
/// ran.
struct CommandSpec {
    std::string_view name;
    std::vector<std::string_view> flags;
    /// Accepts positional (non-flag) arguments — checkpoint files for
    /// `merge`. Everywhere else a stray positional fails the parse.
    bool takes_files = false;
};

const std::vector<CommandSpec>& command_specs() {
    static const std::vector<CommandSpec> specs = {
        {"estimate",
         {"--cores", "--lbus", "--var", "--kmax", "--iterations",
          "--nop-latency", "--store-span", "--csv"}},
        {"calibrate", {"--cores", "--lbus", "--var", "--nop-latency"}},
        {"baseline", {"--cores", "--lbus", "--var", "--iterations"}},
        {"isolation",
         {"--cores", "--lbus", "--var", "--iterations", "--telemetry",
          "--heartbeat"}},
        {"contention",
         {"--cores", "--lbus", "--var", "--iterations", "--telemetry",
          "--heartbeat"}},
        {"slowdown",
         {"--cores", "--lbus", "--var", "--iterations", "--telemetry",
          "--heartbeat"}},
        {"campaign",
         {"--cores", "--lbus", "--var", "--runs", "--seed", "--jobs",
          "--iterations", "--telemetry", "--heartbeat", "--trace"}},
        {"attribution",
         {"--cores", "--lbus", "--var", "--runs", "--seed", "--jobs",
          "--iterations", "--telemetry", "--heartbeat", "--trace"}},
        {"pwcet",
         {"--cores", "--lbus", "--var", "--runs", "--seed", "--jobs",
          "--iterations", "--block-size", "--exceedance", "--shard",
          "--checkpoint-out", "--telemetry", "--heartbeat", "--trace"}},
        {"batch",
         {"--out-dir", "--jobs", "--telemetry", "--heartbeat"},
         /*takes_files=*/true},
        {"merge", {"--telemetry"}, /*takes_files=*/true},
        {"whitebox",
         {"--cores", "--lbus", "--var", "--runs", "--seed", "--jobs",
          "--iterations", "--shard", "--checkpoint-out", "--telemetry",
          "--heartbeat", "--trace"}},
        {"merge-whitebox", {"--telemetry"}, /*takes_files=*/true},
        {"sweep",
         {"--cores", "--lbus", "--var", "--kmax", "--iterations", "--csv"}},
        {"sweep-pwcet",
         {"--var", "--cores-axis", "--lbus-axis", "--arbiter-axis",
          "--runs", "--seed", "--jobs", "--iterations", "--block-size",
          "--exceedance", "--telemetry", "--heartbeat", "--trace"}},
        {"telemetry-diff", {"--max-regression-pct"}, /*takes_files=*/true},
    };
    return specs;
}

const CommandSpec* find_command(std::string_view name) {
    for (const CommandSpec& spec : command_specs()) {
        if (spec.name == name) return &spec;
    }
    return nullptr;
}

std::optional<std::uint64_t> parse_number(const std::string& text) {
    if (text.empty()) return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) /
                        10) {
            return std::nullopt;  // does not fit in 64 bits
        }
        value = value * 10 + digit;
    }
    return value;
}

/// Splits "a,b,c" into items. An empty text yields no items; a
/// trailing comma yields a trailing empty item (getline would drop it,
/// and "2," silently becoming {"2"} is exactly the kind of half-parsed
/// input the flag validators exist to reject).
std::vector<std::string> split_list(const std::string& text) {
    std::vector<std::string> items;
    std::string item;
    std::istringstream stream(text);
    while (std::getline(stream, item, ',')) items.push_back(item);
    if (!text.empty() && text.back() == ',') items.emplace_back();
    return items;
}

/// Comma-separated number list ("2,4,8"), each value capped at `max` —
/// a value that would truncate on the way into a narrower config field
/// must fail the parse, not run a grid the user never asked for. On
/// failure `values` is empty and `error` says which item and why.
struct NumberListParse {
    std::vector<std::uint64_t> values;
    std::string error;
};

NumberListParse parse_number_list(const std::string& text,
                                  std::uint64_t max) {
    NumberListParse result;
    const std::vector<std::string> items = split_list(text);
    if (items.empty()) {
        result.error = "needs a comma-separated list of numbers";
        return result;
    }
    for (const std::string& item : items) {
        const auto value = parse_number(item);
        if (!value) {
            result.values.clear();
            result.error = "has a non-number item '" + item + "'";
            return result;
        }
        if (*value > max) {
            result.values.clear();
            result.error = "value " + item + " is out of range (max " +
                           std::to_string(max) + ")";
            return result;
        }
        result.values.push_back(*value);
    }
    return result;
}

/// Strict full-string double parse ("1e-9", "0.001"). No partial reads.
std::optional<double> parse_probability(const std::string& text) {
    if (text.empty()) return std::nullopt;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return std::nullopt;
    if (!(value > 0.0 && value < 1.0)) return std::nullopt;
    return value;
}

/// Strict full-string non-negative percentage ("5", "2.5", "0").
std::optional<double> parse_percentage(const std::string& text) {
    if (text.empty()) return std::nullopt;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return std::nullopt;
    if (!(value >= 0.0)) return std::nullopt;
    return value;
}

/// "--shard i/N": run slice i of N (0-based, i < N). Half-typed or
/// out-of-range specs fail the parse with a message naming the flag —
/// "--shard 4/4" silently running the wrong slice would poison a whole
/// distributed campaign.
std::optional<SliceSpec> parse_shard(const std::string& text,
                                     std::string& error) {
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos) {
        error = "--shard needs the form i/N, e.g. 0/4";
        return std::nullopt;
    }
    const auto index = parse_number(text.substr(0, slash));
    const auto count = parse_number(text.substr(slash + 1));
    if (!index || !count) {
        error = "--shard needs the form i/N, e.g. 0/4";
        return std::nullopt;
    }
    if (*count == 0) {
        error = "--shard slice count must be at least 1";
        return std::nullopt;
    }
    if (*index >= *count) {
        error = "--shard index " + std::to_string(*index) +
                " must be below the slice count " + std::to_string(*count);
        return std::nullopt;
    }
    return SliceSpec{static_cast<std::size_t>(*index),
                     static_cast<std::size_t>(*count)};
}

std::optional<ArbiterKind> parse_arbiter(const std::string& text) {
    if (text == "rr") return ArbiterKind::kRoundRobin;
    if (text == "tdma") return ArbiterKind::kTdma;
    if (text == "wrr") return ArbiterKind::kWeightedRoundRobin;
    if (text == "fixed") return ArbiterKind::kFixedPriority;
    return std::nullopt;
}

const char* arbiter_name(ArbiterKind kind) {
    switch (kind) {
        case ArbiterKind::kRoundRobin: return "rr";
        case ArbiterKind::kTdma: return "tdma";
        case ArbiterKind::kWeightedRoundRobin: return "wrr";
        case ArbiterKind::kFixedPriority: return "fixed";
    }
    return "?";
}

ParsedFlags parse_flags(const std::vector<std::string>& args,
                        std::size_t first, const CommandSpec& command) {
    ParsedFlags flags;
    const auto allowed = [&command](std::string_view flag) {
        return std::find(command.flags.begin(), command.flags.end(),
                         flag) != command.flags.end();
    };
    for (std::size_t i = first; i < args.size(); ++i) {
        const std::string& arg = args[i];
        auto next_number = [&](const char* name)
            -> std::optional<std::uint64_t> {
            if (i + 1 >= args.size()) {
                flags.error = std::string(name) + " needs a value";
                return std::nullopt;
            }
            const auto value = parse_number(args[++i]);
            if (!value) flags.error = std::string(name) + " needs a number";
            return value;
        };
        auto next_number_list = [&](const char* name, std::uint64_t max)
            -> std::optional<std::vector<std::uint64_t>> {
            if (i + 1 >= args.size()) {
                flags.error = std::string(name) +
                              " needs a comma-separated list of numbers";
                return std::nullopt;
            }
            NumberListParse parsed = parse_number_list(args[++i], max);
            if (!parsed.error.empty()) {
                flags.error = std::string(name) + " " + parsed.error;
                return std::nullopt;
            }
            return std::move(parsed.values);
        };
        if (arg.empty() || arg[0] != '-') {
            // Positional argument: a checkpoint file for `merge`, an
            // error anywhere else (a mistyped flag value would
            // otherwise configure an experiment the user never asked
            // for).
            if (command.takes_files) {
                flags.inputs.push_back(arg);
                continue;
            }
            flags.error = "unexpected argument '" + arg + "'";
            break;
        }
        if (!allowed(arg)) {
            // One message when the flag exists for another command,
            // another when nothing knows it — both fail the parse.
            bool known = false;
            for (const CommandSpec& spec : command_specs()) {
                if (std::find(spec.flags.begin(), spec.flags.end(), arg) !=
                    spec.flags.end()) {
                    known = true;
                    break;
                }
            }
            flags.error = known
                              ? arg + " does not apply to the '" +
                                    std::string(command.name) + "' command"
                              : "unknown flag: " + arg;
            break;
        }
        if (arg == "--cores") {
            if (const auto v = next_number("--cores")) {
                flags.cores = static_cast<CoreId>(*v);
            }
        } else if (arg == "--lbus") {
            if (const auto v = next_number("--lbus")) flags.lbus = *v;
        } else if (arg == "--var") {
            flags.variant = true;
        } else if (arg == "--kmax") {
            if (const auto v = next_number("--kmax")) {
                flags.k_max = static_cast<std::uint32_t>(*v);
            }
        } else if (arg == "--iterations") {
            if (const auto v = next_number("--iterations")) {
                flags.iterations = *v;
            }
        } else if (arg == "--nop-latency") {
            if (const auto v = next_number("--nop-latency")) {
                flags.nop_latency = static_cast<std::uint32_t>(*v);
            }
        } else if (arg == "--store-span") {
            flags.store_span = true;
        } else if (arg == "--runs") {
            if (const auto v = next_number("--runs")) {
                if (*v > kMaxCampaignRuns) {
                    flags.error = "--runs must be at most " +
                                  std::to_string(kMaxCampaignRuns);
                } else {
                    flags.runs = static_cast<std::size_t>(*v);
                }
            }
        } else if (arg == "--seed") {
            if (const auto v = next_number("--seed")) flags.seed = *v;
        } else if (arg == "--jobs") {
            if (const auto v = next_number("--jobs")) {
                flags.jobs = static_cast<std::size_t>(*v);
            }
        } else if (arg == "--block-size") {
            if (const auto v = next_number("--block-size")) {
                flags.block_size = static_cast<std::size_t>(*v);
            }
        } else if (arg == "--shard") {
            if (i + 1 >= args.size()) {
                flags.error = "--shard needs a value like 0/4";
            } else {
                flags.shard = parse_shard(args[++i], flags.error);
            }
        } else if (arg == "--checkpoint-out") {
            if (i + 1 >= args.size()) {
                flags.error = "--checkpoint-out needs a path";
            } else {
                flags.checkpoint_out = args[++i];
            }
        } else if (arg == "--out-dir") {
            if (i + 1 >= args.size()) {
                flags.error = "--out-dir needs a path";
            } else {
                flags.out_dir = args[++i];
            }
        } else if (arg == "--telemetry") {
            if (i + 1 >= args.size()) {
                flags.error = "--telemetry needs a path";
            } else {
                flags.telemetry_out = args[++i];
            }
        } else if (arg == "--trace") {
            if (i + 1 >= args.size()) {
                flags.error = "--trace needs a path";
            } else {
                flags.trace_out = args[++i];
            }
        } else if (arg == "--max-regression-pct") {
            if (i + 1 >= args.size()) {
                flags.error = "--max-regression-pct needs a value";
            } else if (const auto pct = parse_percentage(args[++i])) {
                flags.max_regression_pct = *pct;
            } else {
                flags.error = "--max-regression-pct needs a non-negative "
                              "percentage, e.g. 5 or 2.5";
            }
        } else if (arg == "--heartbeat") {
            if (const auto v = next_number("--heartbeat")) {
                if (*v == 0) {
                    flags.error =
                        "--heartbeat needs at least 1 (seconds)";
                } else {
                    flags.heartbeat = *v;
                }
            }
        } else if (arg == "--exceedance") {
            if (i + 1 >= args.size()) {
                flags.error = "--exceedance needs a value";
            } else if (const auto p = parse_probability(args[++i])) {
                flags.exceedances.push_back(*p);
            } else {
                flags.error =
                    "--exceedance needs a probability in (0,1), e.g. 1e-9";
            }
        } else if (arg == "--csv") {
            if (i + 1 >= args.size()) {
                flags.error = "--csv needs a path";
            } else {
                flags.csv_path = args[++i];
            }
        } else if (arg == "--cores-axis") {
            if (const auto vs = next_number_list(
                    "--cores-axis", std::numeric_limits<CoreId>::max())) {
                for (const std::uint64_t v : *vs) {
                    flags.cores_axis.push_back(static_cast<CoreId>(v));
                }
            }
        } else if (arg == "--lbus-axis") {
            if (const auto vs = next_number_list(
                    "--lbus-axis", std::numeric_limits<Cycle>::max())) {
                for (const std::uint64_t v : *vs) {
                    flags.lbus_axis.push_back(static_cast<Cycle>(v));
                }
            }
        } else if (arg == "--arbiter-axis") {
            if (i + 1 >= args.size()) {
                flags.error = "--arbiter-axis needs a comma-separated list "
                              "of rr,tdma,wrr,fixed";
            } else {
                const std::vector<std::string> items =
                    split_list(args[++i]);
                for (const std::string& item : items) {
                    const auto kind = parse_arbiter(item);
                    if (!kind) {
                        flags.error = "--arbiter-axis: unknown arbiter '" +
                                      item + "' (rr, tdma, wrr, fixed)";
                        break;
                    }
                    flags.arbiter_axis.push_back(*kind);
                }
                if (flags.error.empty() && items.empty()) {
                    flags.error = "--arbiter-axis needs a comma-separated "
                                  "list of rr,tdma,wrr,fixed";
                }
            }
        } else {
            flags.error = "unknown flag: " + arg;
        }
        if (!flags.error.empty()) break;
    }
    return flags;
}

/// Live progress for long campaigns: a background thread polls the
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
                     std::uint64_t heartbeat_sec = 0,
                     std::size_t workers = 0) {
        if (heartbeat_sec == 0 && total_runs < kMinRuns) return;
        thread_ = std::thread([this, &progress, &err, heartbeat_sec,
                               workers] {
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
                const std::string line = meter.sample(progress);
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
    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool stopping_ = false;
    std::thread thread_;
};

/// Batch counterpart of ProgressReporter: renders the aggregate line
/// plus one per-scenario chip through HeartbeatMeter's multi-campaign
/// form, so concurrent heterogeneous campaigns report cleanly on one
/// stderr line instead of interleaving.
class BatchReporter {
public:
    BatchReporter(const sched::BatchProgress& monitor, std::ostream& err,
                  std::uint64_t heartbeat_sec, std::size_t workers) {
        if (heartbeat_sec == 0 &&
            monitor.aggregate().total() < ProgressReporter::kMinRuns) {
            return;
        }
        thread_ = std::thread([this, &monitor, &err, heartbeat_sec,
                               workers] {
            obs::HeartbeatMeter meter(workers);
            const std::vector<obs::CampaignSample> campaigns =
                monitor.samples();
            std::size_t next_percent = 5;
            const auto interval =
                heartbeat_sec > 0
                    ? std::chrono::milliseconds(1000 * heartbeat_sec)
                    : std::chrono::milliseconds(500);
            std::unique_lock<std::mutex> lock(mutex_);
            while (!done_cv_.wait_for(lock, interval,
                                      [this] { return stopping_; })) {
                const std::string line =
                    meter.sample(monitor.aggregate(), campaigns);
                if (heartbeat_sec > 0) {
                    err << line << "\n";
                    continue;
                }
                const std::size_t percent = static_cast<std::size_t>(
                    100.0 * monitor.aggregate().fraction());
                if (percent >= next_percent) {
                    err << line << "\n";
                    next_percent = percent + 5;
                }
            }
        });
    }

    ~BatchReporter() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        done_cv_.notify_all();
        if (thread_.joinable()) thread_.join();
    }

    BatchReporter(const BatchReporter&) = delete;
    BatchReporter& operator=(const BatchReporter&) = delete;

private:
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
    TelemetrySession(const ParsedFlags& flags, std::string command)
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

MachineConfig build_config(const ParsedFlags& flags) {
    if (flags.cores || flags.lbus) {
        return MachineConfig::scaled(flags.cores.value_or(4),
                                     flags.lbus.value_or(9));
    }
    return flags.variant ? MachineConfig::ngmp_var()
                         : MachineConfig::ngmp_ref();
}

UbdEstimatorOptions build_options(const ParsedFlags& flags) {
    UbdEstimatorOptions opt;
    opt.k_max = flags.k_max;
    opt.unroll = 8;
    opt.rsk_iterations = flags.iterations;
    opt.nop_latency = flags.nop_latency;
    return opt;
}

/// The campaign commands' shared scenario: the cache-buster scua on the
/// flag-built platform against load-rsk contenders, with the flags
/// mapped 1:1 onto the Scenario builders.
Scenario build_scenario(const ParsedFlags& flags,
                        std::size_t default_runs) {
    return Scenario::on(build_config(flags))
        .scua(make_autobench(Autobench::kCacheb, 0x0100'0000,
                             flags.iterations, 9))
        .rsk_contenders(OpKind::kLoad)
        .runs(flags.runs.value_or(default_runs))
        .seed(flags.seed);
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

int cmd_estimate(const ParsedFlags& flags, std::ostream& out) {
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

int cmd_calibrate(const ParsedFlags& flags, std::ostream& out) {
    const MachineConfig config = build_config(flags);
    const NopCalibration cal =
        calibrate_delta_nop(config, 2048, 64, flags.nop_latency);
    out << "delta_nop = " << cal.delta_nop << " cycles ("
        << cal.nops_executed << " nops in " << cal.exec_time
        << " cycles; rounded " << cal.rounded() << ", residual "
        << cal.residual() << ")\n";
    return 0;
}

int cmd_baseline(const ParsedFlags& flags, std::ostream& out) {
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

int cmd_isolation(const ParsedFlags& flags, std::ostream& out,
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

int cmd_contention(const ParsedFlags& flags, std::ostream& out,
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

int cmd_slowdown(const ParsedFlags& flags, std::ostream& out,
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

int cmd_campaign(const ParsedFlags& flags, std::ostream& out,
                 std::ostream& err) {
    RRB_REQUIRE(flags.runs.value_or(1) >= 1, "--runs must be at least 1");
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);
    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(flags.jobs, runs);

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "campaign");
    HwmCampaignResult hwm;
    {
        const ProgressReporter reporter(progress, err, runs,
                                        flags.heartbeat, jobs);
        hwm = session.hwm(scenario);
    }
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.finish(jobs, err);
    telemetry.write_trace(scenario, err);

    const Cycle ubd = scenario.config().ubd_analytic();
    const Cycle etb = hwm.et_isolation + hwm.nr * ubd;
    const bool bounded = hwm.high_water_mark <= etb;
    out << "campaign: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(progress) << ")\n";
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

int cmd_attribution(const ParsedFlags& flags, std::ostream& out,
                    std::ostream& err) {
    RRB_REQUIRE(flags.runs.value_or(1) >= 1, "--runs must be at least 1");
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);
    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "attribution");
    engine::AttributionCampaignResult r;
    {
        const ProgressReporter reporter(progress, err, runs,
                                        flags.heartbeat, jobs);
        r = session.attribution(scenario);
    }
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.attribution(attribution_summary(r.attribution));
    telemetry.finish(jobs, err);
    telemetry.write_trace(scenario, err);

    const AttributionAccumulator& acc = r.attribution;
    const CoreId cores = static_cast<CoreId>(acc.num_cores());
    out << "attribution: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(progress) << ")\n";
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

/// `pwcet --shard i/N --checkpoint-out FILE`: run one slice of the
/// campaign's shard plan and persist its accumulator state instead of
/// fitting — the fit happens at `merge` time, over every slice.
int cmd_pwcet_checkpoint(const ParsedFlags& flags, const Scenario& scenario,
                         const PwcetSpec& spec, std::ostream& out,
                         std::ostream& err) {
    RRB_REQUIRE(!flags.checkpoint_out.empty(),
                "--shard needs --checkpoint-out to name the slice file");
    const SliceSpec slice = flags.shard.value_or(SliceSpec{0, 1});

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "pwcet");
    PwcetCheckpoint checkpoint;
    {
        const ProgressReporter reporter(progress, err,
                                        scenario.run_protocol().runs,
                                        flags.heartbeat,
                                        session.worker_budget());
        checkpoint = session.checkpoint(scenario, spec, slice,
                                        flags.checkpoint_out);
    }
    // The shard report carries the slice's run range and plan from the
    // checkpoint metadata: collecting every shard's report reconstructs
    // the distributed campaign's timeline.
    telemetry.campaign(telemetry_info(checkpoint.meta));
    telemetry.finish(session.worker_budget(), err);
    telemetry.write_trace(scenario, err);

    const CheckpointMeta& meta = checkpoint.meta;
    out << "pwcet shard " << slice.index << "/" << slice.count << ": runs ["
        << meta.first_run << ", " << meta.last_run << ") of "
        << meta.total_runs << " in blocks of " << meta.block_size
        << ", seed " << meta.seed << "\n";
    out << "checkpoint written to " << flags.checkpoint_out << " ("
        << checkpoint.shards.size() << " shard accumulators, merge with "
        << "'rrbtool merge')\n";
    return 0;
}

int cmd_pwcet(const ParsedFlags& flags, std::ostream& out,
              std::ostream& err) {
    RRB_REQUIRE(flags.runs.value_or(1) >= 1, "--runs must be at least 1");
    RRB_REQUIRE(flags.block_size >= 1, "--block-size must be at least 1");
    // Default to a quick-but-meaningful campaign: 40 blocks at the
    // default block size (the campaign command's 20-run default would
    // not even fill one block).
    const Scenario scenario =
        build_scenario(flags, /*default_runs=*/40 * flags.block_size);
    PwcetSpec spec;
    spec.block_size = flags.block_size;
    if (!flags.exceedances.empty()) spec.exceedance = flags.exceedances;

    if (flags.shard.has_value() || !flags.checkpoint_out.empty()) {
        return cmd_pwcet_checkpoint(flags, scenario, spec, out, err);
    }

    const std::size_t runs = scenario.run_protocol().runs;
    // The scheduler shards the run range — report the width it will
    // actually keep busy.
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "pwcet");
    PwcetCampaignResult r;
    {
        const ProgressReporter reporter(progress, err, runs,
                                        flags.heartbeat, jobs);
        r = session.pwcet(scenario, spec);
    }
    telemetry.campaign(whole_campaign_info(scenario, spec.block_size));
    telemetry.finish(jobs, err);
    telemetry.write_trace(scenario, err);

    out << "pwcet: " << r.runs << " runs in blocks of " << spec.block_size
        << " on " << jobs << " jobs, seed " << scenario.run_protocol().seed
        << " (" << engine::render_progress(progress) << ")\n";
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

int cmd_merge(const ParsedFlags& flags, std::ostream& out,
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

/// `whitebox --shard i/N --checkpoint-out FILE`: run one slice of the
/// white-box campaign and persist its accumulator state; the merged
/// report comes from `merge-whitebox`.
int cmd_whitebox_checkpoint(const ParsedFlags& flags,
                            const Scenario& scenario, std::ostream& out,
                            std::ostream& err) {
    RRB_REQUIRE(!flags.checkpoint_out.empty(),
                "--shard needs --checkpoint-out to name the slice file");
    const SliceSpec slice = flags.shard.value_or(SliceSpec{0, 1});

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "whitebox");
    WhiteboxCheckpoint checkpoint;
    {
        const ProgressReporter reporter(progress, err,
                                        scenario.run_protocol().runs,
                                        flags.heartbeat,
                                        session.worker_budget());
        checkpoint = session.checkpoint(scenario, slice,
                                        flags.checkpoint_out);
    }
    telemetry.campaign(telemetry_info(checkpoint.meta));
    telemetry.finish(session.worker_budget(), err);
    telemetry.write_trace(scenario, err);

    const CheckpointMeta& meta = checkpoint.meta;
    out << "whitebox shard " << slice.index << "/" << slice.count
        << ": runs [" << meta.first_run << ", " << meta.last_run << ") of "
        << meta.total_runs << ", seed " << meta.seed << "\n";
    out << "checkpoint written to " << flags.checkpoint_out << " ("
        << checkpoint.shards.size() << " shard accumulators, merge with "
        << "'rrbtool merge-whitebox')\n";
    return 0;
}

int cmd_whitebox(const ParsedFlags& flags, std::ostream& out,
                 std::ostream& err) {
    RRB_REQUIRE(flags.runs.value_or(1) >= 1, "--runs must be at least 1");
    const Scenario scenario = build_scenario(flags, /*default_runs=*/20);

    if (flags.shard.has_value() || !flags.checkpoint_out.empty()) {
        return cmd_whitebox_checkpoint(flags, scenario, out, err);
    }

    const std::size_t runs = scenario.run_protocol().runs;
    const std::size_t jobs = engine::effective_jobs(
        flags.jobs, engine::ReducePlan::for_count(runs).shards());

    engine::ProgressCounter progress;
    Session session;
    session.jobs(flags.jobs).progress(&progress);

    TelemetrySession telemetry(flags, "whitebox");
    engine::WhiteboxCampaignResult r;
    {
        const ProgressReporter reporter(progress, err, runs,
                                        flags.heartbeat, jobs);
        r = session.whitebox(scenario);
    }
    telemetry.campaign(whole_campaign_info(scenario, /*block_size=*/0));
    telemetry.finish(jobs, err);
    telemetry.write_trace(scenario, err);

    out << "whitebox: " << runs << " runs on " << jobs << " jobs, seed "
        << scenario.run_protocol().seed << " ("
        << engine::render_progress(progress) << ")\n";
    return report_whitebox(r, scenario.config().ubd_analytic(), out);
}

int cmd_merge_whitebox(const ParsedFlags& flags, std::ostream& out,
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

int cmd_sweep_pwcet(const ParsedFlags& flags, std::ostream& out,
                    std::ostream& err) {
    RRB_REQUIRE(flags.runs.value_or(1) >= 1, "--runs must be at least 1");
    RRB_REQUIRE(flags.block_size >= 1, "--block-size must be at least 1");
    const Scenario scenario =
        build_scenario(flags, /*default_runs=*/40 * flags.block_size);
    SweepAxes axes;
    axes.cores = flags.cores_axis;
    axes.lbus = flags.lbus_axis;
    axes.arbiters = flags.arbiter_axis;
    PwcetSpec spec;
    spec.block_size = flags.block_size;
    if (!flags.exceedances.empty()) spec.exceedance = flags.exceedances;

    const std::size_t runs = scenario.run_protocol().runs;

    engine::ProgressCounter progress;  // per grid point
    Session session;
    session.jobs(flags.jobs).progress(&progress);
    const std::size_t jobs = session.worker_budget();

    TelemetrySession telemetry(flags, "sweep-pwcet");
    SweepResult sweep;
    {
        // Point campaigns are silent; report over the whole run volume
        // only when it is genuinely long.
        const ProgressReporter reporter(progress, err,
                                        axes.points() * runs,
                                        flags.heartbeat, jobs);
        sweep = session.sweep(scenario, axes, spec);
    }
    {
        // One report for the whole grid: the base scenario's identity
        // with the run volume scaled by the point count (each point's
        // own timings live in the span timeline).
        obs::CampaignInfo info =
            whole_campaign_info(scenario, spec.block_size);
        info.total_runs = axes.points() * runs;
        info.last_run = info.total_runs;
        telemetry.campaign(info);
    }
    telemetry.finish(jobs, err);
    telemetry.write_trace(scenario, err);

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

int cmd_sweep(const ParsedFlags& flags, std::ostream& out) {
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
int cmd_batch(const ParsedFlags& flags, std::ostream& out,
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
        const BatchReporter reporter(monitor, err, flags.heartbeat, jobs);
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
int cmd_telemetry_diff(const ParsedFlags& flags, std::ostream& out,
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

}  // namespace

std::string usage() {
    return "rrbtool — measurement-based contention bounds for round-robin "
           "buses\n"
           "\n"
           "usage: rrbtool <command> [flags]\n"
           "\n"
           "commands:\n"
           "  estimate     run the rsk-nop methodology and report ubd\n"
           "  calibrate    measure delta_nop with the all-nop kernel\n"
           "  baseline     run the naive rsk-vs-rsk measurement\n"
           "  isolation    run the scua alone and report its PMC view\n"
           "  contention   one scua-vs-contenders run vs the analytic "
           "ubd\n"
           "  slowdown     isolation + contention, report det(t, k)\n"
           "  campaign     run a randomized HWM campaign vs the ETB bound\n"
           "  attribution  campaign with the cycle-attribution profiler:\n"
           "               per-core stall causes + contender blame "
           "matrix\n"
           "  pwcet        streamed Gumbel pWCET campaign (O(runs/block) "
           "memory)\n"
           "  batch        run a multi-scenario spec file as one flat\n"
           "               (campaign x shard) queue; one checkpoint per\n"
           "               scenario\n"
           "  merge        merge pwcet checkpoint files into the full "
           "campaign\n"
           "  whitebox     white-box campaign: per-request delay / "
           "contender\n"
           "               histograms vs the analytic ubd\n"
           "  merge-whitebox  merge whitebox checkpoint files\n"
           "  sweep-pwcet  grid of MachineConfigs, one streamed pWCET\n"
           "               campaign per point on one shared pool\n"
           "  sweep        dump the dbus(k) series as CSV\n"
           "  telemetry-diff  counter deltas and rate regressions "
           "between\n"
           "               two --telemetry run reports\n"
           "  help         show this text\n"
           "\n"
           "Each command accepts only its own flags; anything else exits\n"
           "non-zero naming the flag.\n"
           "\n"
           "platform flags (sweep-pwcet takes --var and the axes only):\n"
           "  --cores N --lbus L   scaled platform (default: NGMP ref)\n"
           "  --var                NGMP variant (DL1 latency 4)\n"
           "\n"
           "measurement flags:\n"
           "  --kmax K             nop sweep range (default 70)\n"
           "  --iterations I       rsk loop iterations (default 40)\n"
           "  --nop-latency L      slow-nop platforms (default 1)\n"
           "  --store-span         cross-check with the store-buffer path\n"
           "  --csv FILE           write the sweep data to FILE\n"
           "\n"
           "campaign flags:\n"
           "  --runs R             campaign runs (default 20; pwcet "
           "defaults\n"
           "                       to 40 blocks)\n"
           "  --seed S             campaign root seed (default 1)\n"
           "  --jobs N             parallel jobs; 0 = hardware "
           "concurrency\n"
           "                       (results are identical for every N)\n"
           "  --telemetry F        write a JSON telemetry run report "
           "to F\n"
           "                       (schema 'rrb-telemetry'; also on "
           "merge)\n"
           "  --heartbeat S        print a live status line (runs/s, "
           "eta,\n"
           "                       worker %) to stderr every S seconds\n"
           "  --trace F            write a Chrome-trace JSON timeline "
           "to F\n"
           "                       (open in Perfetto or chrome://tracing):"
           "\n"
           "                       campaign spans plus run 0's bus "
           "wait /\n"
           "                       service windows per core\n"
           "\n"
           "telemetry-diff:\n"
           "  rrbtool telemetry-diff A B   diff two run reports "
           "(oldest\n"
           "                       first); with --max-regression-pct P "
           "exit 3\n"
           "                       when runs/sec or cycles/sec dropped "
           "more\n"
           "                       than P percent\n"
           "\n"
           "pwcet flags (plus the campaign flags above):\n"
           "  --block-size B       runs per EVT block (default 50)\n"
           "  --exceedance P       quote pWCET at exceedance P in (0,1);\n"
           "                       repeatable (default 1e-3 1e-6 1e-9)\n"
           "  --shard i/N          run slice i of N of the campaign's\n"
           "                       shard plan (needs --checkpoint-out)\n"
           "  --checkpoint-out F   write the slice's accumulator state "
           "to F;\n"
           "                       merging every slice with 'rrbtool "
           "merge'\n"
           "                       is bit-identical to one full run\n"
           "\n"
           "batch:\n"
           "  rrbtool batch SPEC   run every [scenario NAME] block of "
           "SPEC\n"
           "                       concurrently on one shared queue "
           "(keys:\n"
           "                       cores, lbus, var, arbiter, "
           "iterations,\n"
           "                       runs, seed, block-size, exceedance,\n"
           "                       max-start-delay); writes "
           "NAME.ckpt per\n"
           "                       scenario, byte-identical to a "
           "standalone\n"
           "                       'pwcet --shard 0/1' of that scenario\n"
           "  --out-dir D          checkpoint directory (default .)\n"
           "                       a failed scenario is reported FAILED "
           "and\n"
           "                       exits 4; the others still complete "
           "and\n"
           "                       checkpoint\n"
           "\n"
           "merge:\n"
           "  rrbtool merge F1 F2 ...   merge checkpoint files; rejects\n"
           "                       mismatched campaigns and duplicate or\n"
           "                       missing slices\n"
           "\n"
           "sweep-pwcet flags (plus the campaign and pwcet flags):\n"
           "  --cores-axis A,B,..  core counts to sweep (default: base)\n"
           "  --lbus-axis A,B,..   L2-hit bus occupancies to sweep\n"
           "  --arbiter-axis L     arbiters to sweep: rr,tdma,wrr,fixed\n";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        out << usage();
        return args.empty() ? 1 : 0;
    }
    const std::string& command = args[0];
    const CommandSpec* spec = find_command(command);
    if (spec == nullptr) {
        err << "error: unknown command '" << command << "'\n\n" << usage();
        return 1;
    }
    const ParsedFlags flags = parse_flags(args, 1, *spec);
    if (!flags.error.empty()) {
        err << "error: " << flags.error << "\n\n" << usage();
        return 1;
    }

    try {
        // Deterministic fault injection for whole-process smoke tests:
        // armed from RRB_FAULTS for this command only (no-op when the
        // variable is unset or a test armed the injector itself). A
        // malformed spec lands in the invalid_argument handler below.
        const fault::ScopedEnvArm faults;
        if (command == "estimate") return cmd_estimate(flags, out);
        if (command == "calibrate") return cmd_calibrate(flags, out);
        if (command == "baseline") return cmd_baseline(flags, out);
        if (command == "isolation") return cmd_isolation(flags, out, err);
        if (command == "contention") {
            return cmd_contention(flags, out, err);
        }
        if (command == "slowdown") return cmd_slowdown(flags, out, err);
        if (command == "campaign") return cmd_campaign(flags, out, err);
        if (command == "attribution") {
            return cmd_attribution(flags, out, err);
        }
        if (command == "telemetry-diff") {
            return cmd_telemetry_diff(flags, out, err);
        }
        if (command == "pwcet") return cmd_pwcet(flags, out, err);
        if (command == "batch") return cmd_batch(flags, out, err);
        if (command == "merge") return cmd_merge(flags, out, err);
        if (command == "whitebox") return cmd_whitebox(flags, out, err);
        if (command == "merge-whitebox") {
            return cmd_merge_whitebox(flags, out, err);
        }
        if (command == "sweep-pwcet") return cmd_sweep_pwcet(flags, out, err);
        if (command == "sweep") return cmd_sweep(flags, out);
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
        err << "error: command '" << command
            << "' failed: " << e.what() << "\n";
        return 70;
    } catch (...) {
        err << "error: command '" << command
            << "' failed with an unknown error\n";
        return 70;
    }
    // Unreachable while command_specs() and the dispatch above agree;
    // fail loudly rather than silently succeed if they ever drift.
    err << "error: unknown command '" << command << "'\n\n" << usage();
    return 1;
}

}  // namespace rrb::cli
