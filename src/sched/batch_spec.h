// Declarative multi-scenario batch specs for `rrbtool batch`.
//
// A spec file names any number of scenarios, each with the same knobs
// the `pwcet` command takes as flags:
//
//   # contention study, 2026-08
//   [scenario small-rr]
//   runs = 600
//   seed = 7
//   block-size = 30
//
//   [scenario wide-bus]
//   cores = 2
//   lbus = 5
//   runs = 400
//   exceedance = 1e-3,1e-6
//
// Keys per scenario (all optional) are the `key` rows of the option
// table (src/core/options.h), which also gives their value kinds, ranges
// and defaults; `rrbtool help` lists them. Each scenario is built by
// build_pwcet_campaign, the function `rrbtool pwcet` builds its
// campaign with, so a spec entry and the equivalent `rrbtool pwcet`
// invocation share one scenario fingerprint: a batch checkpoint merges
// and byte-diffs against a standalone run (CI does exactly that).
// Scenario names become checkpoint file stems and must be unique and
// filesystem-safe ([A-Za-z0-9._-]).
#pragma once

#include <string>
#include <vector>

#include "core/session.h"

namespace rrb::sched {

/// Parses a spec file's text into ready-to-run batch items, in file
/// order. Throws std::invalid_argument naming the line on malformed
/// input — an unknown key, a bad value, a duplicate or unsafe name —
/// rather than running a campaign the user did not describe.
[[nodiscard]] std::vector<BatchItem> parse_batch_spec(
    const std::string& text);

}  // namespace rrb::sched
