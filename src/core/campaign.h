// Measurement campaigns: the MBTA observation protocol the ETB is
// validated against.
//
// A single contention run observes one alignment between the scua and its
// contenders. Industrial measurement-based practice runs *campaigns*:
// many runs with randomized release offsets, keeping the high-water mark
// (HWM) of the observed execution times. The composable bound
// ETB = et_isol + nr * ubdm must dominate the HWM of every campaign —
// and the gap between HWM and ETB is the (provably safe) pessimism.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "isa/program.h"
#include "machine/config.h"
#include "sim/types.h"
#include "stats/attribution.h"
#include "stats/evt.h"

namespace rrb {

struct HwmCampaignOptions {
    std::size_t runs = 20;
    std::uint64_t seed = 1;
    /// Contender release offsets are drawn uniformly from
    /// [0, max_start_delay].
    Cycle max_start_delay = 997;
    Cycle max_cycles_per_run = 200'000'000;
};

/// Ceiling on any campaign's run count (10^12). MBPTA needs 10^4–10^5
/// runs, so this never binds a real campaign; it keeps run indices,
/// progress totals and the shard-plan arithmetic far from overflow.
/// Every outside input — CLI flags, batch specs, checkpoint files —
/// is checked against it.
inline constexpr std::uint64_t kMaxCampaignRuns = 1'000'000'000'000;

struct HwmCampaignResult {
    Cycle et_isolation = 0;
    Cycle high_water_mark = 0;        ///< max observed contention time
    Cycle low_water_mark = 0;         ///< min observed contention time
    std::vector<Cycle> exec_times;    ///< one per run
    std::uint64_t nr = 0;             ///< scua bus requests (PMC)

    /// Max observed per-request slowdown: (HWM - isol) / nr. Compare with
    /// ubd: it can approach but never exceed it. Clamped to 0 when the
    /// HWM is below isolation (possible for hand-built results or warmth
    /// asymmetries) — the unsigned subtraction would otherwise wrap to a
    /// huge positive value.
    [[nodiscard]] double hwm_slowdown_per_request() const noexcept {
        return nr == 0 || high_water_mark <= et_isolation
                   ? 0.0
                   : static_cast<double>(high_water_mark - et_isolation) /
                         static_cast<double>(nr);
    }
};

/// Runs the campaign: `runs` contention executions of `scua` on core 0
/// against the contender programs on the other cores, each run with
/// fresh, seeded-random release offsets for the contenders.
///
/// Run i's offsets come from a Pcg32 seeded by
/// engine::SeedSequence(options.seed).seed_for(i) — a pure function of
/// (seed, i) — so every execution path produces bit-identical results
/// at any job count.
///
/// Low-level layer: this free function is kept as the historical entry
/// point and delegates to the Scenario/Session API (core/session.h)
/// with a one-worker budget. New code should build a Scenario and call
/// Session::hwm directly.
[[nodiscard]] HwmCampaignResult run_hwm_campaign(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options = {});

struct PwcetQuantile {
    double exceedance = 0.0;
    double pwcet = 0.0;  ///< NaN when the fit is degenerate
};

struct PwcetCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;             ///< scua bus requests (PMC)
    std::size_t runs = 0;
    Cycle high_water_mark = 0;
    Cycle low_water_mark = 0;
    double mean = 0.0;                ///< streamed (Chan-merged) moments
    double stddev = 0.0;
    std::size_t blocks = 0;           ///< complete blocks fed to the fit
    /// Live (max, fill) pairs the streamed fold held at the end — the
    /// memory-footprint evidence: ~runs/block_size, never ~runs.
    std::size_t live_values = 0;
    GumbelFit fit;                    ///< Gumbel over the block maxima
    std::vector<PwcetQuantile> quantiles;

    /// The composable bound the quantiles are compared against.
    [[nodiscard]] Cycle etb(Cycle ubd) const noexcept {
        return et_isolation + nr * ubd;
    }
};

class Machine;

namespace replay {
struct ScriptCache;
}  // namespace replay

namespace detail {

/// Identity of the program set a campaign installs on a machine: the
/// scua, the resolved contender list and the per-run cycle cap (which
/// re-scopes contender iteration counts). A machine whose last run used
/// the same fingerprint can be restarted in place — no program copies —
/// instead of reloaded; engine::MachineLease stores this tag next to
/// each cached machine. Never zero (zero means "nothing installed").
[[nodiscard]] std::uint64_t campaign_fingerprint(
    const Program& scua, const std::vector<Program>& contenders,
    const HwmCampaignOptions& options);

/// Runs run `run_index` of the campaign protocol on `machine`: resets
/// it to power-on state, installs the programs (or restarts them in
/// place when `loaded_campaign` already matches their fingerprint —
/// updated on return), draws the seeded release offsets, warms the
/// static footprints and runs to the scua's finish cycle. The single
/// protocol body shared by the hot leased path (hwm_campaign_run /
/// hwm_campaign_measure) and the differential tests' fresh-machine
/// naive-stepping reference — sharing it is what makes "bit-identical"
/// checkable rather than aspirational. Pass `loaded_campaign = 0` for a
/// machine whose program state is unknown.
///
/// `scripts` selects the execution mode: non-null enables micro-op
/// replay (src/replay) — scripts are decoded into the cache when its
/// campaign tag differs and attached to the cores each run; null (the
/// default, and the differential references' mode) interprets, and any
/// previously attached scripts are detached. Both modes produce
/// bit-identical results; replay is just faster.
///
/// `campaign` is an optional precomputed campaign_fingerprint(scua,
/// contenders, options): program fingerprints hash every instruction,
/// which is measurable per-run overhead for large contender bodies, so
/// shard loops hoist the hash out and pass it in. 0 (the default, and
/// never a valid fingerprint) means "compute it here"; a non-zero value
/// MUST equal what campaign_fingerprint would return for these inputs.
[[nodiscard]] Cycle execute_campaign_run(
    Machine& machine, std::uint64_t& loaded_campaign, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    replay::ScriptCache* scripts = nullptr, std::uint64_t campaign = 0);

/// One campaign run on a per-worker leased machine (machine reuse +
/// event-driven cycle skipping), returning the scua's finish cycle.
/// Thread-safe: the lease cache is thread-local. Shared by the serial
/// and parallel campaign paths, which is what keeps them bit-identical.
/// `campaign` as in execute_campaign_run: optional precomputed
/// campaign_fingerprint, 0 to compute per call.
[[nodiscard]] Cycle hwm_campaign_run(const MachineConfig& config,
                                     const Program& scua,
                                     const std::vector<Program>& contenders,
                                     const HwmCampaignOptions& options,
                                     std::uint64_t run_index,
                                     std::uint64_t campaign = 0);

/// hwm_campaign_run with the full Measurement snapshot (black-box PMCs
/// plus white-box histograms) instead of just the finish cycle. Same
/// setup, same seeding, same execution — m.exec_time equals
/// hwm_campaign_run(...) for equal inputs — so streamed accumulators
/// observe exactly the values the materializing path would have stored.
[[nodiscard]] Measurement hwm_campaign_measure(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    std::uint64_t campaign = 0);

/// hwm_campaign_run with the cycle-attribution profiler armed on the
/// leased machine: the run's finalized per-core cause timelines and
/// per-contender blame matrix are folded into `acc`, and the machine is
/// disarmed before the lease is released (cached machines must never
/// stay armed). Attribution is strictly observational, so the returned
/// finish cycle equals hwm_campaign_run(...) for equal inputs.
[[nodiscard]] Cycle hwm_campaign_attribute(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    AttributionAccumulator& acc, std::uint64_t campaign = 0);

}  // namespace detail

}  // namespace rrb
