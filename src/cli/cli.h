// rrbtool: command-line front end to the methodology.
//
//   rrbtool <command> [flags]     `rrbtool help` lists both
//
// Commands come from one command table (name, handler, help) and flags
// from the option table (core/options.h), which also gives each flag's
// value kind, range, default and the commands it applies to. Each
// command accepts only its own flags and exits 1 naming any flag that
// does not apply. The platform flags construct a MachineConfig: the NGMP
// reference model by default, `--var` for the 4-cycle-DL1 variant, or
// `--cores/--lbus` for a scaled platform. The campaign commands are thin
// shells over the Scenario/Session API (core/scenario.h,
// core/session.h). Command implementations live here so they are
// unit-testable without spawning processes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/options.h"

namespace rrb::cli {

/// Runs the tool. `args` excludes the program name (like argv+1).
/// Output goes to `out` (reports) and `err` (usage errors).
/// Returns a process exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// A command and its parsed flags and positional arguments.
struct CommandLine {
    std::string_view command;
    OptionValues options;
};

/// The parse-only front half of run(): resolves the command and parses
/// its flags. Throws std::invalid_argument naming the culprit; runs
/// nothing.
[[nodiscard]] CommandLine parse_command_line(
    const std::vector<std::string>& args);

/// The name of the command whose cmd:: bit is `bit`; empty if none.
[[nodiscard]] std::string_view command_name(std::uint32_t bit);

/// Renders the usage text.
[[nodiscard]] std::string usage();

}  // namespace rrb::cli
