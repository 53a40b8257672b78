// The option table (core/options.h) on both of its surfaces: every row is
// driven through the command line and the batch-spec parser with a
// missing value, a malformed value, min-1, max+1 and a command it does
// not apply to, and a seeded parse-only fuzzer mutates argv tokens and
// spec text. Nothing here runs a campaign, so no thread is started.
#include <gtest/gtest.h>

#include <bit>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/options.h"
#include "machine/config.h"
#include "sched/batch_spec.h"
#include "sim/rng.h"

namespace rrb::cli {
namespace {

struct CliResult {
    int code;
    std::string err;
};

CliResult invoke(const std::vector<std::string>& args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(args, out, err);
    return {code, err.str()};
}

/// The spec parser's message for `key = value` in a one-scenario spec,
/// or "" when it parses.
std::string spec_error(std::string_view key, const std::string& value) {
    try {
        (void)sched::parse_batch_spec("[scenario a]\n" + std::string(key) +
                                      " = " + value + "\n");
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

/// Decimal n + 1, for n up to 2^64 - 1 (which gives a 20-digit number
/// that does not fit 64 bits).
std::string plus_one(std::uint64_t n) {
    if (n < std::numeric_limits<std::uint64_t>::max()) {
        return std::to_string(n + 1);
    }
    return "18446744073709551616";
}

bool integer_kind(OptionKind kind) {
    return kind == OptionKind::kNumber || kind == OptionKind::kNumberList;
}

/// A value of the row's kind that does not parse, or "" when every
/// non-empty text is acceptable.
std::string malformed_value(OptionKind kind) {
    switch (kind) {
        case OptionKind::kNumber: return "12x";
        case OptionKind::kNumberList: return "2,x";
        case OptionKind::kSwitch: return "maybe";
        case OptionKind::kProbability: return "1.5";
        case OptionKind::kPercentage: return "-1";
        case OptionKind::kPath: return "";
        case OptionKind::kShard: return "2/2";
        case OptionKind::kArbiter: return "bogus";
        case OptionKind::kArbiterList: return "rr,bogus";
    }
    return "";
}

TEST(OptionTable, EveryFlagRejectsBadValuesNamingItself) {
    for (const OptionRow& row : option_table()) {
        if (row.flag.empty()) continue;
        const std::string flag(row.flag);
        const std::string command(
            command_name(std::bit_floor(row.commands)));
        ASSERT_FALSE(command.empty()) << flag;
        std::vector<std::vector<std::string>> bad;
        if (row.kind != OptionKind::kSwitch) {
            bad.push_back({command, flag});  // missing value
            bad.push_back({command, flag, malformed_value(row.kind)});
        }
        if (integer_kind(row.kind)) {
            if (row.min > 0) {
                bad.push_back({command, flag, std::to_string(row.min - 1)});
            }
            bad.push_back({command, flag, plus_one(row.max)});
        }
        for (const std::vector<std::string>& args : bad) {
            const CliResult r = invoke(args);
            EXPECT_EQ(r.code, 1) << flag << " " << args.back();
            EXPECT_EQ(r.err.rfind("error: " + flag + " ", 0), 0u)
                << flag << ": " << r.err;
        }
        // On a command it does not apply to.
        for (std::uint32_t bit = 1; !command_name(bit).empty(); bit <<= 1) {
            if ((row.commands & bit) != 0) continue;
            const std::string other(command_name(bit));
            std::vector<std::string> args = {other, flag};
            if (row.kind != OptionKind::kSwitch) args.emplace_back("1");
            const CliResult r = invoke(args);
            EXPECT_EQ(r.code, 1) << flag << " on " << other;
            EXPECT_NE(r.err.find(flag + " does not apply to the '" + other +
                                 "' command"),
                      std::string::npos)
                << r.err;
        }
    }
}

TEST(OptionTable, EverySpecKeyRejectsBadValuesNamingKeyAndLine) {
    for (const OptionRow& row : option_table()) {
        const std::string key(row.key.empty() ? row.flag.substr(2)
                                              : row.key);
        std::vector<std::string> bad;
        if (row.key.empty()) {
            // A command-line-only option is no spec key.
            bad.push_back("1");
        } else {
            bad.push_back("");  // missing value
            bad.push_back(malformed_value(row.kind));
            if (integer_kind(row.kind)) {
                if (row.min > 0) bad.push_back(std::to_string(row.min - 1));
                bad.push_back(plus_one(row.max));
            }
        }
        for (const std::string& value : bad) {
            const std::string what = spec_error(key, value);
            EXPECT_EQ(what.rfind("batch spec line 2: ", 0), 0u)
                << key << " = " << value << ": " << what;
            EXPECT_NE(what.find(key), std::string::npos) << what;
        }
    }
}

TEST(OptionTable, RangeBoundsParseOnEverySurface) {
    for (const OptionRow& row : option_table()) {
        if (!integer_kind(row.kind)) continue;
        for (const std::uint64_t bound : {row.min, row.max}) {
            const std::string value = std::to_string(bound);
            if (!row.flag.empty()) {
                const std::string command(
                    command_name(std::bit_floor(row.commands)));
                EXPECT_NO_THROW((void)parse_command_line(
                    {command, std::string(row.flag), value}))
                    << row.flag << " " << value;
            }
            if (!row.key.empty()) {
                EXPECT_EQ(spec_error(row.key, value), "")
                    << row.key << " = " << value;
            }
        }
    }
}

TEST(OptionTable, DefaultsComeFromTheTableOnBothSurfaces) {
    const OptionValues defaults = default_options();
    EXPECT_EQ(defaults.k_max, 70u);
    EXPECT_EQ(defaults.iterations, 40u);
    EXPECT_EQ(defaults.nop_latency, 1u);
    EXPECT_EQ(defaults.seed, 1u);
    EXPECT_EQ(defaults.block_size, 50u);
    EXPECT_EQ(defaults.out_dir, ".");
    EXPECT_EQ(defaults.jobs, 0u);
    EXPECT_EQ(defaults.heartbeat, 0u);
    EXPECT_FALSE(defaults.runs.has_value());

    // `pwcet` with no flags and an empty spec scenario build one
    // campaign: same scenario fingerprint, same pwcet spec.
    const BatchItem cli = build_pwcet_campaign(
        parse_command_line({"pwcet"}).options);
    const std::vector<BatchItem> spec =
        sched::parse_batch_spec("[scenario d]\n");
    ASSERT_EQ(spec.size(), 1u);
    EXPECT_EQ(cli.scenario.fingerprint(), spec[0].scenario.fingerprint());
    EXPECT_EQ(cli.spec.block_size, spec[0].spec.block_size);
    EXPECT_EQ(cli.spec.exceedance, spec[0].spec.exceedance);
}

TEST(OptionTable, SurfacesKeepTheirOwnSyntax) {
    // A switch is bare on the command line and a bool in a spec.
    EXPECT_TRUE(parse_command_line({"baseline", "--var"}).options.variant);
    EXPECT_EQ(sched::parse_batch_spec("[scenario a]\nvar = yes\n")[0]
                  .scenario.config()
                  .fingerprint(),
              MachineConfig::ngmp_var().fingerprint());
    // --exceedance repeats; the spec key takes a list, and its last
    // assignment wins.
    EXPECT_EQ(parse_command_line({"pwcet", "--exceedance", "0.1",
                                  "--exceedance", "0.2"})
                  .options.exceedances,
              (std::vector<double>{0.1, 0.2}));
    EXPECT_EQ(invoke({"pwcet", "--exceedance", "0.1,0.2"}).code, 1);
    EXPECT_EQ(sched::parse_batch_spec("[scenario a]\nexceedance = 0.5\n"
                                      "exceedance = 0.1, 0.2\n")[0]
                  .spec.exceedance,
              (std::vector<double>{0.1, 0.2}));
    // arbiter and max-start-delay exist only in specs.
    EXPECT_EQ(invoke({"pwcet", "--arbiter", "tdma"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--max-start-delay", "5"}).code, 1);
}

TEST(OptionTable, HelpListsEveryFlagAndSpecKey) {
    const std::string help = usage();
    for (const OptionRow& row : option_table()) {
        if (!row.flag.empty()) {
            EXPECT_NE(help.find(std::string(row.flag) + " "),
                      std::string::npos)
                << row.flag;
        }
        if (!row.key.empty()) {
            EXPECT_NE(help.find(std::string(row.key)), std::string::npos)
                << row.key;
        }
    }
}

TEST(PlatformLimits, CoreCountStopsAtKMaxCores) {
    // Through validate() and the parser only: a kMaxCores+1 machine is
    // never built.
    EXPECT_NO_THROW(MachineConfig::scaled(kMaxCores, 9).validate());
    EXPECT_THROW(MachineConfig::scaled(kMaxCores + 1, 9).validate(),
                 std::invalid_argument);
    const std::string at = std::to_string(kMaxCores);
    const std::string past = std::to_string(kMaxCores + 1);
    EXPECT_EQ(parse_command_line({"contention", "--cores", at})
                  .options.cores,
              kMaxCores);
    EXPECT_EQ(invoke({"contention", "--cores", past}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores-axis", "2," + past}).code, 1);
    EXPECT_NE(spec_error("cores", past).find("cores must be at most " + at),
              std::string::npos);
}

TEST(PlatformLimits, LbusStopsAtKMaxLbus) {
    MachineConfig config = MachineConfig::ngmp_ref();
    EXPECT_NO_THROW(config.retime_bus(kMaxLbus));
    EXPECT_NO_THROW(config.validate());
    EXPECT_THROW(config.retime_bus(kMaxLbus + 1), std::invalid_argument);
    config.l2_hit_cycles = kMaxLbus;  // lbus = 1 + kMaxLbus
    EXPECT_THROW(config.validate(), std::invalid_argument);
    // 2^64 - 1 used to wrap `now + duration` and abort the simulator.
    const CliResult r = invoke(
        {"contention", "--cores", "2", "--lbus", "18446744073709551615"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--lbus must be at most 65536"), std::string::npos)
        << r.err;
}

// ------------------------------------------------------------ fuzzing

/// Flips, drops or duplicates one character, or leaves the text alone.
std::string mutate(std::string text, Pcg32& rng) {
    switch (rng.next_below(4)) {
        case 0:
            if (!text.empty()) {
                text[rng.next_below(static_cast<std::uint32_t>(
                    text.size()))] =
                    static_cast<char>(rng.next_below(128));
            }
            break;
        case 1:
            if (!text.empty()) {
                text.erase(rng.next_below(
                               static_cast<std::uint32_t>(text.size())),
                           1);
            }
            break;
        case 2:
            text += text.empty() ? std::string("0") : text.substr(0, 1);
            break;
        default: break;
    }
    return text;
}

std::vector<std::string> value_pool() {
    return {"0",        "1",         "2",          "4",
            "64",       "65",        "65536",      "65537",
            "86401",    "4294967297", "18446744073709551615",
            "99999999999999999999999", "-1", "1e-9", "0.5", "1.5", "inf",
            "nan",      "",          "abc",        "1/2",
            "2/2",      "0/0",       "/",          "rr",
            "tdma",     "wrr,fixed", "bogus",      "2,4",
            "2,",       ",",         " 5",         "x.ckpt",
            "true",     "no",        "=",          "--",
            "-"};
}

TEST(OptionFuzz, ArgvParsesOrThrowsInvalidArgument) {
    Pcg32 rng(0xC0FFEE);
    std::vector<std::string> tokens = value_pool();
    for (std::uint32_t bit = 1; !command_name(bit).empty(); bit <<= 1) {
        tokens.emplace_back(command_name(bit));
    }
    tokens.emplace_back("help");
    for (const OptionRow& row : option_table()) {
        if (!row.flag.empty()) tokens.emplace_back(row.flag);
        if (!row.key.empty()) tokens.emplace_back("--" + std::string(row.key));
    }
    const auto pick = [&] {
        return tokens[rng.next_below(static_cast<std::uint32_t>(
            tokens.size()))];
    };
    std::size_t parsed = 0;
    for (int i = 0; i < 20'000; ++i) {
        std::vector<std::string> args = {
            std::string(command_name(1u << rng.next_below(16)))};
        if (rng.next_bool(0.05)) args[0] = mutate(args[0], rng);
        const std::uint32_t n = rng.next_below(7);
        for (std::uint32_t t = 0; t < n; ++t) {
            args.push_back(rng.next_bool(0.2) ? mutate(pick(), rng) : pick());
        }
        try {
            (void)parse_command_line(args);
            ++parsed;
        } catch (const std::invalid_argument&) {
        } catch (const std::exception& e) {
            ADD_FAILURE() << "unexpected " << e.what() << " from "
                          << testing::PrintToString(args);
        }
    }
    // The corpus reaches both outcomes.
    EXPECT_GT(parsed, 100u);
}

TEST(OptionFuzz, SpecTextParsesOrThrowsInvalidArgument) {
    Pcg32 rng(0xBA7C4);
    const std::vector<std::string> values = value_pool();
    std::vector<std::string> keys = {"bogus", ""};
    for (const OptionRow& row : option_table()) {
        if (!row.key.empty()) keys.emplace_back(row.key);
    }
    std::size_t parsed = 0;
    for (int i = 0; i < 3'000; ++i) {
        std::string text;
        const std::uint32_t lines = 1 + rng.next_below(8);
        for (std::uint32_t l = 0; l < lines; ++l) {
            std::string line;
            if (l == 0 || rng.next_bool(0.15)) {
                line = "[scenario s" + std::to_string(rng.next_below(3)) +
                       "]";
            } else {
                line = keys[rng.next_below(
                           static_cast<std::uint32_t>(keys.size()))] +
                       " = " +
                       values[rng.next_below(
                           static_cast<std::uint32_t>(values.size()))];
            }
            if (rng.next_bool(0.1)) line = mutate(line, rng);
            text += line + "\n";
        }
        try {
            (void)sched::parse_batch_spec(text);
            ++parsed;
        } catch (const std::invalid_argument&) {
        } catch (const std::exception& e) {
            ADD_FAILURE() << "unexpected " << e.what() << " from:\n" << text;
        }
    }
    EXPECT_GT(parsed, 50u);
}

}  // namespace
}  // namespace rrb::cli
