// Campaign reductions: the determinism contract and the campaign kinds.
//
// A campaign never materializes more than its kind asks for: runs fold
// into mergeable accumulators, shard by shard. This header says *what*
// a shard computes; sched::CampaignScheduler — the one driver every
// campaign runs through — decides which worker runs it and when.
//
//   * Each shard owns a contiguous run range and folds it locally, in
//     ascending run order, into its own accumulator.
//   * Shard accumulators merge in shard order, so the overall fold order
//     is exactly run order 0..n-1 — whatever thread ran which shard.
//   * The shard plan is a pure function of the run count (see
//     ReducePlan::for_count), never of the job count or the hardware, so
//     even rounding-sensitive folds (Chan-merged floating-point moments)
//     see an identical merge tree — and produce bit-identical results —
//     at every --jobs value.
//
// A campaign kind is a small value type naming one campaign's
// reduction:
//
//   using Accumulator = ...;   // copyable, `void merge(const Acc& later)`
//   using Result = ...;
//   static constexpr std::uint8_t kPayload;  // checkpoint payload-kind
//                                            // byte, 0 = none
//   Accumulator init() const;  // the empty accumulator every shard
//                              // starts from (carries configuration)
//   void fold(Accumulator&, const CampaignInputs&, std::uint64_t run)
//       const;                 // one run, in ascending run order
//   Result finalize(Accumulator merged, Cycle et_isolation,
//                   std::uint64_t nr) const;
//   void validate() const;     // optional: reject bad parameters
//
// The scheduler needs only Accumulator, init and fold; finalize and
// kPayload serve Session and the checkpoint codec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "isa/program.h"
#include "machine/config.h"
#include "sim/contract.h"
#include "sim/types.h"
#include "stats/attribution.h"
#include "stats/streaming.h"

namespace rrb::engine {

/// Contiguous sharding of the run range [0, count). Pure function of
/// `count`: the plan — and therefore every merge tree built from it —
/// is identical whatever the worker count, which is what makes
/// floating-point folds reproducible across --jobs values. The shard
/// size targets kTargetShards shards so any realistic pool stays busy
/// while slot bookkeeping stays O(1)-ish. The arithmetic is exact for
/// every 64-bit count; callers bound counts by kMaxCampaignRuns.
struct ReducePlan {
    static constexpr std::uint64_t kTargetShards = 256;

    std::uint64_t count = 0;
    std::uint64_t shard_size = 1;

    [[nodiscard]] static ReducePlan for_count(std::uint64_t count) noexcept {
        ReducePlan plan;
        plan.count = count;
        // ceil(count / kTargetShards), written so it cannot overflow.
        plan.shard_size =
            count <= kTargetShards ? 1 : (count - 1) / kTargetShards + 1;
        return plan;
    }

    [[nodiscard]] std::size_t shards() const noexcept {
        return count == 0 ? 0
                          : static_cast<std::size_t>(
                                (count - 1) / shard_size + 1);
    }
    [[nodiscard]] std::uint64_t shard_begin(std::size_t shard) const noexcept {
        return static_cast<std::uint64_t>(shard) * shard_size;
    }
    [[nodiscard]] std::uint64_t shard_end(std::size_t shard) const noexcept {
        const std::uint64_t begin = shard_begin(shard);
        return count - begin < shard_size ? count : begin + shard_size;
    }

    /// Contiguous shard range [first, last) of one plan.
    struct ShardRange {
        std::size_t first = 0;
        std::size_t last = 0;

        [[nodiscard]] std::size_t size() const noexcept {
            return last - first;
        }
    };

    /// The runs a shard range covers (0 for an empty range).
    [[nodiscard]] std::uint64_t runs(ShardRange range) const noexcept {
        return range.size() == 0
                   ? 0
                   : shard_end(range.last - 1) - shard_begin(range.first);
    }

    /// Slice `slice_index` of `slice_count`: the plan's shards divided
    /// into contiguous, collectively exhaustive, mutually disjoint
    /// ranges. Slicing at shard granularity — never splitting a shard —
    /// is what keeps a checkpointed slice's accumulators bit-identical
    /// to the monolithic fold's: each shard is always folded whole, in
    /// run order, by exactly one worker. With more slices than shards
    /// the trailing slices are empty, which is valid (their checkpoints
    /// simply cover no runs).
    [[nodiscard]] ShardRange slice(std::size_t slice_index,
                                   std::size_t slice_count) const {
        RRB_REQUIRE(slice_count >= 1, "need at least one slice");
        RRB_REQUIRE(slice_index < slice_count,
                    "slice index must be below the slice count");
        const std::size_t total = shards();
        return {total * slice_index / slice_count,
                total * (slice_index + 1) / slice_count};
    }
};

/// What every run of one campaign reads: a scenario lowered to engine
/// inputs.
struct CampaignInputs {
    MachineConfig config;
    Program scua;
    std::vector<Program> contenders;
    HwmCampaignOptions protocol;
    /// detail::campaign_fingerprint of (scua, contenders, protocol).
    /// The scheduler hashes it once per campaign; it is pure overhead
    /// repeated per shard or per run.
    std::uint64_t fingerprint = 0;
};

/// One run range of a campaign: the isolation baseline (a
/// deterministic measurement, so every slice observes the same value)
/// plus the *unmerged* per-plan-shard accumulators for shards
/// [first_shard, first_shard + shards.size()). The checkpoint codec
/// persists exactly this; merging every slice's shards in shard-index
/// order is bit-identical to the whole campaign.
template <typename Accumulator>
struct CampaignSlice {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;  ///< scua bus requests (PMC)
    std::size_t first_shard = 0;
    std::uint64_t first_run = 0;  ///< run range [first_run, last_run)
    std::uint64_t last_run = 0;
    std::vector<Accumulator> shards;  ///< in shard order
};

/// The one merge sequence: left-fold the shards in shard-index order.
template <typename Accumulator>
[[nodiscard]] Accumulator merge_in_order(
    const std::vector<Accumulator>& shards) {
    RRB_REQUIRE(!shards.empty(), "nothing to merge");
    Accumulator acc = shards.front();
    for (std::size_t s = 1; s < shards.size(); ++s) acc.merge(shards[s]);
    return acc;
}

/// A whole-campaign slice merged and finalized by its kind.
template <typename Kind>
[[nodiscard]] typename Kind::Result finalize(
    const Kind& kind, const CampaignSlice<typename Kind::Accumulator>& slice) {
    return kind.finalize(merge_in_order(slice.shards),
                         slice.et_isolation, slice.nr);
}

/// Run `run` of a campaign with every stall observation kept.
[[nodiscard]] inline Measurement measure(const CampaignInputs& in,
                                         std::uint64_t run) {
    return detail::hwm_campaign_measure(in.config, in.scua, in.contenders,
                                        in.protocol, run, in.fingerprint);
}

/// Streamed pWCET: runs fold into mergeable accumulators instead of
/// being materialized — at any moment only O(runs / block_size) values
/// are live, so 10^5+ runs cost the same memory as 10^2 — then the
/// Gumbel fit over the block maxima and the pWCET quantiles at the
/// requested exceedance probabilities. The runs are exactly the ones a
/// materializing campaign with equal (seed, runs) would have stored.
struct PwcetKind {
    using Accumulator = PwcetAccumulator;
    using Result = PwcetCampaignResult;
    static constexpr std::uint8_t kPayload = 1;

    /// Consecutive runs per EVT block; the Gumbel is fitted to the block
    /// maxima (classical block-maxima MBPTA).
    std::size_t block_size = 50;
    /// Exceedance probabilities to quote pWCET quantiles at.
    std::vector<double> exceedance = {1e-3, 1e-6, 1e-9};

    void validate() const;
    [[nodiscard]] Accumulator init() const {
        return PwcetAccumulator(block_size);
    }
    static void fold(Accumulator& acc, const CampaignInputs& in,
                     std::uint64_t run) {
        acc.add(run, measure(in, run));
    }
    [[nodiscard]] Result finalize(const Accumulator& acc, Cycle et_isolation,
                                  std::uint64_t nr) const;
};

/// White-box campaign statistics: the gamma / ready-contenders /
/// injection-delta histograms and the run-ordered execution-time
/// series, identical to a serial fold of hwm_campaign_measure.
struct WhiteboxCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;
    WhiteboxAccumulator stats;
};

struct WhiteboxKind {
    using Accumulator = WhiteboxAccumulator;
    using Result = WhiteboxCampaignResult;
    static constexpr std::uint8_t kPayload = 2;

    [[nodiscard]] static Accumulator init() { return {}; }
    static void fold(Accumulator& acc, const CampaignInputs& in,
                     std::uint64_t run) {
        acc.add(run, measure(in, run));
    }
    [[nodiscard]] static Result finalize(Accumulator acc, Cycle et_isolation,
                                         std::uint64_t nr) {
        return {et_isolation, nr, std::move(acc)};
    }
};

/// Cycle-attribution campaign: every run executes with the profiler
/// armed and its finalized per-core cause timelines / per-contender
/// blame matrix are summed, identical to a serial fold of
/// hwm_campaign_attribute.
struct AttributionCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;  ///< scua bus requests (PMC)
    AttributionAccumulator attribution;
};

struct AttributionKind {
    using Accumulator = AttributionAccumulator;
    using Result = AttributionCampaignResult;
    static constexpr std::uint8_t kPayload = 0;

    [[nodiscard]] static Accumulator init() { return {}; }
    static void fold(Accumulator& acc, const CampaignInputs& in,
                     std::uint64_t run) {
        static_cast<void>(detail::hwm_campaign_attribute(
            in.config, in.scua, in.contenders, in.protocol, run, acc,
            in.fingerprint));
    }
    [[nodiscard]] static Result finalize(Accumulator acc, Cycle et_isolation,
                                         std::uint64_t nr) {
        return {et_isolation, nr, std::move(acc)};
    }
};

/// The materializing HWM campaign's accumulator: exec times in run
/// order (memory ~ runs, by design — the caller asked for every one).
struct ExecTimes {
    std::vector<Cycle> values;

    void merge(const ExecTimes& later) {
        values.insert(values.end(), later.values.begin(),
                      later.values.end());
    }
};

struct HwmKind {
    using Accumulator = ExecTimes;
    using Result = HwmCampaignResult;
    static constexpr std::uint8_t kPayload = 0;

    [[nodiscard]] static Accumulator init() { return {}; }
    static void fold(Accumulator& acc, const CampaignInputs& in,
                     std::uint64_t run) {
        acc.values.push_back(detail::hwm_campaign_run(
            in.config, in.scua, in.contenders, in.protocol, run,
            in.fingerprint));
    }
    [[nodiscard]] static Result finalize(Accumulator acc, Cycle et_isolation,
                                         std::uint64_t nr);
};

}  // namespace rrb::engine
