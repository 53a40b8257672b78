#include "core/options.h"

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "kernels/autobench.h"

namespace rrb {

namespace {

[[noreturn]] void reject(const OptionRow& row, Surface surface,
                         const std::string& what) {
    throw std::invalid_argument(std::string(row.name(surface)) + " " + what);
}

/// What a value of each OptionKind must look like, for messages.
constexpr const char* kExpected[] = {
    "a number",
    "a comma-separated list of numbers",
    "true or false",
    "a probability in (0,1), e.g. 1e-9",
    "a non-negative percentage, e.g. 5 or 2.5",
    "a path",
    "the form i/N, e.g. 0/4",
    "one of rr, tdma, wrr, fixed",
    "a comma-separated list of rr, tdma, wrr, fixed",
};

/// A missing value (`got` empty) or one that does not parse.
[[noreturn]] void malformed(const OptionRow& row, Surface surface,
                            std::string_view got) {
    std::string what =
        std::string("needs ") + kExpected[static_cast<int>(row.kind)];
    if (!got.empty()) what += ", got '" + std::string(got) + "'";
    reject(row, surface, what);
}

std::string_view trim(std::string_view text) {
    while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
        text.remove_prefix(1);
    }
    while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
        text.remove_suffix(1);
    }
    return text;
}

/// Digits only, fitting 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view text) {
    if (text.empty()) return std::nullopt;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
            return std::nullopt;
        }
        value = value * 10 + digit;
    }
    return value;
}

std::uint64_t parse_integer(const OptionRow& row, Surface surface,
                            std::string_view text) {
    const std::optional<std::uint64_t> value = parse_u64(text);
    if (!value) malformed(row, surface, text);
    if (*value < row.min) {
        reject(row, surface, "must be at least " + std::to_string(row.min));
    }
    if (*value > row.max) {
        reject(row, surface, "must be at most " + std::to_string(row.max));
    }
    return *value;
}

/// Strict full-string parse: a probability in (0,1) or a non-negative
/// percentage.
double parse_real(const OptionRow& row, Surface surface,
                  std::string_view text) {
    const std::string owned(text);
    char* end = nullptr;
    const double value = std::strtod(owned.c_str(), &end);
    const bool in_range = row.kind == OptionKind::kProbability
                              ? value > 0.0 && value < 1.0
                              : value >= 0.0;
    if (owned.empty() || end != owned.c_str() + owned.size() || !in_range) {
        malformed(row, surface, text);
    }
    return value;
}

bool parse_bool(const OptionRow& row, Surface surface,
                std::string_view text) {
    if (text == "true" || text == "1" || text == "yes") return true;
    if (text == "false" || text == "0" || text == "no") return false;
    malformed(row, surface, text);
}

/// "i/N": slice i of N. An out-of-range slice fails the parse —
/// "--shard 4/4" silently running another slice would poison a whole
/// distributed campaign.
SliceSpec parse_shard(const OptionRow& row, Surface surface,
                      std::string_view text) {
    const std::size_t slash = text.find('/');
    if (slash == std::string_view::npos) malformed(row, surface, text);
    const auto index = parse_u64(text.substr(0, slash));
    const auto count = parse_u64(text.substr(slash + 1));
    if (!index || !count) malformed(row, surface, text);
    if (*count == 0) reject(row, surface, "slice count must be at least 1");
    if (*index >= *count) {
        reject(row, surface,
               "index " + std::to_string(*index) +
                   " must be below the slice count " + std::to_string(*count));
    }
    return SliceSpec{*index, *count};
}

constexpr std::pair<std::string_view, ArbiterKind> kArbiters[] = {
    {"rr", ArbiterKind::kRoundRobin},
    {"tdma", ArbiterKind::kTdma},
    {"wrr", ArbiterKind::kWeightedRoundRobin},
    {"fixed", ArbiterKind::kFixedPriority},
};

ArbiterKind parse_arbiter(const OptionRow& row, Surface surface,
                          std::string_view text) {
    for (const auto& [name, kind] : kArbiters) {
        if (name == text) return kind;
    }
    malformed(row, surface, text);
}

template <typename T>
T parse_value(const OptionRow& row, Surface surface, std::string_view text) {
    if constexpr (std::is_same_v<T, bool>) {
        return parse_bool(row, surface, text);
    } else if constexpr (std::is_integral_v<T>) {
        // option() proved row.max fits T.
        return static_cast<T>(parse_integer(row, surface, text));
    } else if constexpr (std::is_same_v<T, double>) {
        return parse_real(row, surface, text);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (text.empty()) malformed(row, surface, text);
        return std::string(text);
    } else if constexpr (std::is_same_v<T, SliceSpec>) {
        return parse_shard(row, surface, text);
    } else {
        static_assert(std::is_same_v<T, ArbiterKind>);
        return parse_arbiter(row, surface, text);
    }
}

/// A field's element type, and whether it collects a list.
template <typename F>
struct Field {
    using Value = F;
    static constexpr bool kList = false;
};
template <typename T>
struct Field<std::optional<T>> : Field<T> {};
template <typename T>
struct Field<std::vector<T>> {
    using Value = T;
    static constexpr bool kList = true;
};
template <auto Member>
using FieldOf = Field<std::remove_cvref_t<
    decltype(std::declval<OptionValues&>().*Member)>>;

template <auto Member>
void store(const OptionRow& row, Surface surface, std::string_view text,
           OptionValues& values) {
    using F = FieldOf<Member>;
    auto& field = values.*Member;
    if constexpr (F::kList) {
        if (surface == Surface::kSpec) field.clear();
        if (row.kind == OptionKind::kProbability &&
            surface == Surface::kCommandLine) {
            field.push_back(parse_value<typename F::Value>(row, surface, text));
            return;
        }
        // Every comma splits: "" is one empty item and "2," ends in one,
        // so a half-typed list fails its item parse instead of shrinking.
        std::size_t start = 0;
        for (;;) {
            const std::size_t comma = text.find(',', start);
            field.push_back(parse_value<typename F::Value>(
                row, surface, trim(text.substr(start, comma - start))));
            if (comma == std::string_view::npos) break;
            start = comma + 1;
        }
    } else {
        field = parse_value<typename F::Value>(row, surface, text);
    }
}

/// Binds a row to the field it sets. Evaluated at compile time: an
/// integer range the field's type cannot hold fails the build.
template <auto Member>
consteval OptionRow option(OptionRow row) {
    using T = typename FieldOf<Member>::Value;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
        if (row.min > row.max || row.max > std::numeric_limits<T>::max()) {
            throw "option range does not fit its field";
        }
    }
    row.store = &store<Member>;
    return row;
}

constexpr std::uint32_t kPlatformCommands =
    cmd::kEstimate | cmd::kCalibrate | cmd::kBaseline | cmd::kIsolation |
    cmd::kContention | cmd::kSlowdown | cmd::kCampaign | cmd::kAttribution |
    cmd::kPwcet | cmd::kWhitebox | cmd::kSweep;
constexpr std::uint32_t kCampaignCommands = cmd::kCampaign |
                                            cmd::kAttribution | cmd::kPwcet |
                                            cmd::kWhitebox | cmd::kSweepPwcet;
constexpr std::uint32_t kSingleRunCommands =
    cmd::kIsolation | cmd::kContention | cmd::kSlowdown;

constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

using K = OptionKind;
using G = HelpGroup;
using V = OptionValues;

// Row order is help order within each group, and the order of the batch
// keys `rrbtool help` lists.
constexpr OptionRow kTable[] = {
    option<&V::cores>({
        .flag = "--cores", .key = "cores", .metavar = "N", .min = 1,
        .max = kMaxCores, .commands = kPlatformCommands,
        .group = G::kPlatform, .help = "scaled platform (default: NGMP ref)"}),
    option<&V::lbus>({
        .flag = "--lbus", .key = "lbus", .metavar = "L", .min = 2,
        .max = kMaxLbus, .commands = kPlatformCommands, .group = G::kPlatform}),
    option<&V::variant>({
        .flag = "--var", .key = "var", .kind = K::kSwitch,
        .commands = kPlatformCommands | cmd::kSweepPwcet,
        .group = G::kPlatform, .help = "NGMP variant (DL1 latency 4)"}),
    option<&V::arbiter>({.key = "arbiter", .kind = K::kArbiter}),
    option<&V::k_max>({
        .flag = "--kmax", .metavar = "K", .min = 4, .max = kU32Max,
        .def = "70", .commands = cmd::kEstimate | cmd::kSweep,
        .group = G::kMeasurement, .help = "nop sweep range"}),
    option<&V::iterations>({
        .flag = "--iterations", .key = "iterations", .metavar = "I",
        .min = 1, .max = kU64Max, .def = "40",
        .commands = (kPlatformCommands & ~cmd::kCalibrate) | cmd::kSweepPwcet,
        .group = G::kMeasurement, .help = "rsk loop iterations"}),
    option<&V::nop_latency>({
        .flag = "--nop-latency", .metavar = "L", .min = 1, .max = kU32Max,
        .def = "1", .commands = cmd::kEstimate | cmd::kCalibrate,
        .group = G::kMeasurement, .help = "slow-nop platforms"}),
    option<&V::store_span>({
        .flag = "--store-span", .kind = K::kSwitch, .commands = cmd::kEstimate,
        .group = G::kMeasurement,
        .help = "cross-check with the store-buffer path"}),
    option<&V::csv_path>({
        .flag = "--csv", .kind = K::kPath, .metavar = "FILE",
        .commands = cmd::kEstimate | cmd::kSweep, .group = G::kMeasurement,
        .help = "write the sweep data to FILE"}),
    option<&V::runs>({
        .flag = "--runs", .key = "runs", .metavar = "R", .min = 1,
        .max = kMaxCampaignRuns, .commands = kCampaignCommands,
        .group = G::kCampaign,
        .help = "campaign runs (default 20; pwcet defaults\nto 40 blocks)"}),
    option<&V::seed>({
        .flag = "--seed", .key = "seed", .metavar = "S", .max = kU64Max,
        .def = "1", .commands = kCampaignCommands, .group = G::kCampaign,
        .help = "campaign root seed"}),
    option<&V::jobs>({
        .flag = "--jobs", .metavar = "N", .max = kU64Max,
        .commands = kCampaignCommands | cmd::kBatch, .group = G::kCampaign,
        .help = "parallel jobs; 0 = hardware concurrency\n"
                "(results are identical for every N)"}),
    option<&V::telemetry_out>({
        .flag = "--telemetry", .kind = K::kPath, .metavar = "F",
        .commands = kSingleRunCommands | kCampaignCommands | cmd::kBatch |
                    cmd::kMerge | cmd::kMergeWhitebox,
        .group = G::kCampaign,
        .help = "write a JSON telemetry run report to F\n"
                "(schema 'rrb-telemetry'; also on merge)"}),
    // At most a day between pulses: the status thread waits in
    // milliseconds, and larger spans would overflow the clock arithmetic.
    option<&V::heartbeat>({
        .flag = "--heartbeat", .metavar = "S", .min = 1, .max = 86'400,
        .commands = kSingleRunCommands | kCampaignCommands | cmd::kBatch,
        .group = G::kCampaign,
        .help = "print a live status line (runs/s, eta,\n"
                "worker %) to stderr every S seconds"}),
    option<&V::trace_out>({
        .flag = "--trace", .kind = K::kPath, .metavar = "F",
        .commands = kCampaignCommands, .group = G::kCampaign,
        .help = "write a Chrome-trace JSON timeline to F\n"
                "(open in Perfetto or chrome://tracing):\n"
                "campaign spans plus run 0's bus wait /\n"
                "service windows per core"}),
    option<&V::max_regression_pct>({
        .flag = "--max-regression-pct", .kind = K::kPercentage,
        .metavar = "P", .commands = cmd::kTelemetryDiff,
        .group = G::kTelemetryDiff}),
    // A block never exceeds the run ceiling, which also keeps pwcet's
    // 40-block default run count far from wrapping.
    option<&V::block_size>({
        .flag = "--block-size", .key = "block-size", .metavar = "B",
        .min = 1, .max = kMaxCampaignRuns, .def = "50",
        .commands = cmd::kPwcet | cmd::kSweepPwcet, .group = G::kPwcet,
        .help = "runs per EVT block"}),
    option<&V::exceedances>({
        .flag = "--exceedance", .key = "exceedance", .kind = K::kProbability,
        .metavar = "P", .commands = cmd::kPwcet | cmd::kSweepPwcet,
        .group = G::kPwcet,
        .help = "quote pWCET at exceedance P in (0,1);\n"
                "repeatable (default 1e-3 1e-6 1e-9)"}),
    option<&V::shard>({
        .flag = "--shard", .kind = K::kShard, .metavar = "i/N",
        .commands = cmd::kPwcet | cmd::kWhitebox, .group = G::kPwcet,
        .help = "run slice i of N of the campaign's\n"
                "shard plan (needs --checkpoint-out)"}),
    option<&V::checkpoint_out>({
        .flag = "--checkpoint-out", .kind = K::kPath, .metavar = "F",
        .commands = cmd::kPwcet | cmd::kWhitebox, .group = G::kPwcet,
        .help = "write the slice's accumulator state to F;\n"
                "merging every slice with 'rrbtool merge'\n"
                "is bit-identical to one full run"}),
    // Release offsets past the per-run cycle cap could never start.
    option<&V::max_start_delay>({
        .key = "max-start-delay",
        .max = HwmCampaignOptions{}.max_cycles_per_run}),
    option<&V::out_dir>({
        .flag = "--out-dir", .kind = K::kPath, .metavar = "D", .def = ".",
        .commands = cmd::kBatch, .group = G::kBatch,
        .help = "checkpoint directory\n"
                "a failed scenario is reported FAILED and\n"
                "exits 4; the others still complete and\n"
                "checkpoint"}),
    option<&V::cores_axis>({
        .flag = "--cores-axis", .kind = K::kNumberList, .metavar = "A,B,..",
        .min = 1, .max = kMaxCores, .commands = cmd::kSweepPwcet,
        .group = G::kSweepPwcet,
        .help = "core counts to sweep (default: base)"}),
    option<&V::lbus_axis>({
        .flag = "--lbus-axis", .kind = K::kNumberList, .metavar = "A,B,..",
        .min = 2, .max = kMaxLbus, .commands = cmd::kSweepPwcet,
        .group = G::kSweepPwcet, .help = "L2-hit bus occupancies to sweep"}),
    option<&V::arbiter_axis>({
        .flag = "--arbiter-axis", .kind = K::kArbiterList, .metavar = "L",
        .commands = cmd::kSweepPwcet, .group = G::kSweepPwcet,
        .help = "arbiters to sweep: rr,tdma,wrr,fixed"}),
};

const OptionRow* find_row(std::string_view OptionRow::*surface_name,
                          std::string_view name) {
    for (const OptionRow& row : kTable) {
        if (!(row.*surface_name).empty() && row.*surface_name == name) {
            return &row;
        }
    }
    return nullptr;
}

}  // namespace

std::span<const OptionRow> option_table() { return kTable; }

std::string_view arbiter_name(ArbiterKind kind) noexcept {
    for (const auto& [name, k] : kArbiters) {
        if (k == kind) return name;
    }
    return "?";
}

OptionValues default_options() {
    static const OptionValues defaults = [] {
        OptionValues values;
        for (const OptionRow& row : kTable) {
            if (!row.def.empty()) {
                row.store(row, Surface::kCommandLine, row.def, values);
            }
        }
        return values;
    }();
    return defaults;
}

OptionValues parse_flags(std::span<const std::string> args,
                         std::string_view command, std::uint32_t command_bit,
                         bool takes_files) {
    OptionValues values = default_options();
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg.empty() || arg[0] != '-') {
            // A positional argument is a file for the commands that read
            // files and an error anywhere else: a mistyped flag value
            // would otherwise configure an experiment nobody asked for.
            if (!takes_files) {
                throw std::invalid_argument("unexpected argument '" + arg +
                                            "'");
            }
            values.inputs.push_back(arg);
            continue;
        }
        const OptionRow* row = find_row(&OptionRow::flag, arg);
        if (row == nullptr) {
            throw std::invalid_argument("unknown flag: " + arg);
        }
        // A flag of another command fails too: a silently ignored
        // `calibrate --runs 5` would report a campaign that never ran.
        if ((row->commands & command_bit) == 0) {
            throw std::invalid_argument(arg + " does not apply to the '" +
                                        std::string(command) + "' command");
        }
        if (row->kind == OptionKind::kSwitch) {
            row->store(*row, Surface::kCommandLine, "true", values);
        } else if (i + 1 < args.size()) {
            row->store(*row, Surface::kCommandLine, args[++i], values);
        } else {
            malformed(*row, Surface::kCommandLine, {});
        }
    }
    return values;
}

void apply_spec_key(OptionValues& values, std::string_view key,
                    std::string_view value) {
    const OptionRow* row = find_row(&OptionRow::key, key);
    if (row == nullptr) {
        throw std::invalid_argument("unknown key '" + std::string(key) + "'");
    }
    row->store(*row, Surface::kSpec, value, values);
}

MachineConfig build_config(const OptionValues& values) {
    MachineConfig config =
        (values.cores || values.lbus)
            ? MachineConfig::scaled(values.cores.value_or(4),
                                    values.lbus.value_or(9))
            : (values.variant ? MachineConfig::ngmp_var()
                              : MachineConfig::ngmp_ref());
    if (values.arbiter) config.arbiter = *values.arbiter;
    config.validate();
    return config;
}

Scenario build_scenario(const OptionValues& values,
                        std::size_t default_runs) {
    Scenario scenario =
        Scenario::on(build_config(values))
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000,
                                 values.iterations, 9))
            .rsk_contenders(OpKind::kLoad)
            .runs(values.runs.value_or(default_runs))
            .seed(values.seed);
    if (values.max_start_delay) {
        scenario.max_start_delay(*values.max_start_delay);
    }
    return scenario;
}

BatchItem build_pwcet_campaign(const OptionValues& values) {
    PwcetSpec spec;
    spec.block_size = values.block_size;
    if (!values.exceedances.empty()) spec.exceedance = values.exceedances;
    return BatchItem{{}, build_scenario(values, 40 * values.block_size),
                     std::move(spec)};
}

}  // namespace rrb
