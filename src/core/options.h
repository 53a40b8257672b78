// The option table: every experiment input `rrbtool` flags and batch
// spec files accept, declared once.
//
// Each row names the option on its surfaces (`--flag` on the command
// line, `key` in a batch spec), its value kind, its inclusive integer
// range, its default, the commands the flag applies to and its help
// lines. The CLI flag parser, the batch-spec key parser, the per-command
// "does not apply" check and the flag rows of `rrbtool help` all read
// this table, so adding an option means adding one row and the field it
// sets. Each surface keeps its own syntax:
//   * a switch is `--var` on the command line and `var = true` in a spec;
//   * `--exceedance` repeats on the command line, while `exceedance`
//     takes a comma list in a spec (a spec key's last assignment wins);
//   * rows without a flag (`arbiter`, `max-start-delay`) exist only in
//     specs, rows without a key only on the command line.
// Integer ranges are checked at compile time against the destination
// field's type, so no value can wrap on its way in.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"

namespace rrb {

/// Every value an option row can set, plus the positional arguments.
/// The fields start zero or unset; default_options() applies each row's
/// default.
struct OptionValues {
    std::optional<CoreId> cores;
    std::optional<Cycle> lbus;
    bool variant = false;
    std::optional<ArbiterKind> arbiter;
    std::uint32_t k_max = 0;
    std::uint64_t iterations = 0;
    std::uint32_t nop_latency = 0;
    bool store_span = false;
    std::string csv_path;
    std::optional<std::size_t> runs;  ///< unset: the command's default
    std::uint64_t seed = 0;
    std::size_t jobs = 0;  ///< 0 = hardware concurrency
    std::string telemetry_out;
    std::uint64_t heartbeat = 0;  ///< seconds, 0 = off
    std::string trace_out;
    /// Unset: telemetry-diff reports only (never exits 3).
    std::optional<double> max_regression_pct;
    std::size_t block_size = 0;
    std::vector<double> exceedances;  ///< empty = the pwcet defaults
    std::optional<SliceSpec> shard;
    std::string checkpoint_out;
    std::optional<Cycle> max_start_delay;
    std::string out_dir;
    std::vector<CoreId> cores_axis;
    std::vector<Cycle> lbus_axis;
    std::vector<ArbiterKind> arbiter_axis;
    std::vector<std::string> inputs;  ///< positional arguments (files)
};

/// The rrbtool commands a flag can apply to, one bit each.
namespace cmd {
enum : std::uint32_t {
    kEstimate = 1u << 0, kCalibrate = 1u << 1, kBaseline = 1u << 2,
    kIsolation = 1u << 3, kContention = 1u << 4, kSlowdown = 1u << 5,
    kCampaign = 1u << 6, kAttribution = 1u << 7, kPwcet = 1u << 8,
    kBatch = 1u << 9, kMerge = 1u << 10, kWhitebox = 1u << 11,
    kMergeWhitebox = 1u << 12, kSweepPwcet = 1u << 13, kSweep = 1u << 14,
    kTelemetryDiff = 1u << 15,
};
}  // namespace cmd

enum class OptionKind : std::uint8_t {
    kNumber,       ///< unsigned integer in [min, max]
    kNumberList,   ///< comma list of unsigned integers in [min, max]
    kSwitch,       ///< CLI: present or absent; spec: true or false
    kProbability,  ///< in (0,1); CLI: one per flag; spec: a comma list
    kPercentage,   ///< non-negative real
    kPath,         ///< non-empty file or directory name
    kShard,        ///< i/N with i < N
    kArbiter,      ///< rr | tdma | wrr | fixed
    kArbiterList,  ///< comma list of arbiters
};

/// Where a row's flag is listed in `rrbtool help`.
enum class HelpGroup : std::uint8_t {
    kNone,  ///< spec-only rows: listed among the batch keys
    kPlatform,
    kMeasurement,
    kCampaign,
    kTelemetryDiff,
    kPwcet,
    kBatch,
    kSweepPwcet,
};

enum class Surface : std::uint8_t { kCommandLine, kSpec };

struct OptionRow {
    std::string_view flag = {};     ///< "--cores"; empty: specs only
    std::string_view key = {};      ///< "cores"; empty: command line only
    OptionKind kind = OptionKind::kNumber;
    std::string_view metavar = {};  ///< "N" of "--cores N" in help
    std::uint64_t min = 0;          ///< inclusive range of integer kinds
    std::uint64_t max = 0;
    /// Default, parsed like an input; empty leaves the field zero/unset.
    /// Help appends "(default X)" to the first help line.
    std::string_view def = {};
    std::uint32_t commands = 0;  ///< cmd:: bits the flag applies to
    HelpGroup group = HelpGroup::kNone;
    /// Help lines, '\n'-separated. A row without any is listed on the
    /// help line of the row above it ("--cores N --lbus L") or described
    /// by its group's text (--max-regression-pct).
    std::string_view help = {};
    /// Parses one flag or spec value into the row's field; throws
    /// std::invalid_argument naming the flag or key.
    void (*store)(const OptionRow& row, Surface surface,
                  std::string_view text, OptionValues& values) = nullptr;

    [[nodiscard]] std::string_view name(Surface surface) const noexcept {
        return surface == Surface::kCommandLine ? flag : key;
    }
};

[[nodiscard]] std::span<const OptionRow> option_table();

/// "rr", "tdma", "wrr" or "fixed": the spelling arbiter options take.
[[nodiscard]] std::string_view arbiter_name(ArbiterKind kind) noexcept;

/// Every row's default applied to an empty OptionValues.
[[nodiscard]] OptionValues default_options();

/// Parses a command's flags and positional arguments. `command_bit` is
/// the command's cmd:: bit; positionals are accepted only when
/// `takes_files`. Throws std::invalid_argument naming the culprit: an
/// unknown flag, a flag that does not apply to `command`, a missing or
/// malformed value, a value out of range.
[[nodiscard]] OptionValues parse_flags(std::span<const std::string> args,
                                       std::string_view command,
                                       std::uint32_t command_bit,
                                       bool takes_files);

/// Applies one batch-spec `key = value` line to `values`. Throws
/// std::invalid_argument naming the key.
void apply_spec_key(OptionValues& values, std::string_view key,
                    std::string_view value);

/// The platform: scaled when cores or lbus is set (defaults 4 and 9),
/// the NGMP reference or variant otherwise, with the spec's arbiter.
[[nodiscard]] MachineConfig build_config(const OptionValues& values);

/// The campaign commands' scenario: the cache-buster scua on
/// build_config()'s platform against load-rsk contenders.
[[nodiscard]] Scenario build_scenario(const OptionValues& values,
                                      std::size_t default_runs);

/// The pwcet campaign the options describe, runs defaulting to 40
/// blocks: `pwcet`, `sweep-pwcet` and every batch-spec scenario build it
/// here, so a batch checkpoint and the equivalent standalone command
/// share one scenario fingerprint.
[[nodiscard]] BatchItem build_pwcet_campaign(const OptionValues& values);

}  // namespace rrb
