// Global campaign scheduler: (campaign × plan-shard) as the unit of work.
//
// The one driver of sharded campaigns. Every Session campaign entry
// point — pwcet, whitebox, attribution, hwm, checkpoint slices, resume,
// sweep and batch — lowers its scenarios to CampaignWork and runs them
// here; a standalone call is a batch of one. Campaigns are generic over
// a campaign kind (engine/reduce.h: accumulator, per-run fold, merge,
// finalize), and any number of them, of any kinds, flatten into one
// global work queue — every campaign's isolation baseline plus every
// shard of its plan range — drained across the one shared ThreadPool
// with no barrier until the whole batch is done.
//
// Determinism: a shard accumulator depends only on (plan, shard index,
// kind) — the engine/reduce.h contract — and the isolation baseline is
// a deterministic measurement, so *which worker* runs *which item when*
// cannot leak into any campaign's numbers: take() returns the same
// slice, bit for bit, at every jobs value and in every batch.
//
// Lease affinity: workers keep per-thread machine caches keyed by
// MachineConfig::fingerprint (engine::MachineLease). The dispatch loop
// prefers handing a worker another item of the fingerprint it just ran
// — the machine is hot in its cache — and falls back to *stealing* from
// the fingerprint class with the most work left, so no core ever idles
// while any queue is non-empty. Dispatch decisions are observable via
// the sched_* telemetry counters (hits + steals == dispatches).
//
// Supervision: each campaign is its own failure domain. A work item
// that throws marks *its* campaign failed (first exception captured;
// sched_failures counts campaigns, not throws) while every other
// campaign keeps draining — already-queued items of a failed campaign
// are dispatched but skipped (sched_items_skipped), so the dispatch
// invariant hits + steals == dispatches == enqueued always holds.
// Failures of class fault::TransientError (transient I/O, lease
// rebuild) are retried in place up to a bounded per-item budget
// (sched_retries) before counting as a campaign failure. take() on a
// failed campaign rethrows its captured exception; status() reports
// without throwing — how Session::batch turns one bad scenario into a
// per-point error instead of a poisoned batch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/progress.h"
#include "engine/reduce.h"
#include "engine/thread_pool.h"
#include "obs/heartbeat.h"
#include "sim/contract.h"

namespace rrb::sched {

/// Aggregate + per-campaign progress for one scheduler batch, readable
/// by a heartbeat thread while workers tick. announce() fixes the
/// structure (names, totals) before any concurrent access; the counters
/// themselves are lock-free.
class BatchProgress {
public:
    /// Declares the batch: one (name, total runs) per campaign, in
    /// campaign order. Call once, before the scheduler runs and before
    /// any reporter thread samples. Re-announcing resets everything.
    void announce(
        const std::vector<std::pair<std::string, std::size_t>>& campaigns);

    [[nodiscard]] engine::ProgressCounter& aggregate() noexcept {
        return aggregate_;
    }
    [[nodiscard]] const engine::ProgressCounter& aggregate() const noexcept {
        return aggregate_;
    }
    [[nodiscard]] std::size_t campaigns() const noexcept {
        return campaigns_.size();
    }
    [[nodiscard]] const std::string& name(std::size_t i) const {
        return campaigns_[i].name;
    }
    [[nodiscard]] engine::ProgressCounter& campaign(std::size_t i) {
        return campaigns_[i].progress;
    }
    [[nodiscard]] const engine::ProgressCounter& campaign(
        std::size_t i) const {
        return campaigns_[i].progress;
    }

    /// View for HeartbeatMeter's multi-campaign sample. The pointers
    /// stay valid until the next announce().
    [[nodiscard]] std::vector<obs::CampaignSample> samples() const;

private:
    struct Entry {
        std::string name;
        engine::ProgressCounter progress;
    };

    engine::ProgressCounter aggregate_;
    std::deque<Entry> campaigns_;  ///< deque: counters must not move
};

/// One campaign to schedule: a scenario lowered to engine inputs and
/// the part of its shard plan to run.
struct CampaignWork {
    engine::CampaignInputs inputs;
    /// Plan shards to run; unset = the whole plan. A checkpoint slice
    /// or one of resume's uncovered ranges sets it.
    std::optional<engine::ReducePlan::ShardRange> range;
    /// Span identity for the telemetry timeline. The name must be a
    /// static string (obs::SpanRecord does not copy it). Null: the
    /// campaign opens no span of its own and its items nest under the
    /// span open on the thread that calls run() — a single-campaign
    /// Session call keeps its session.* span as the shards' parent.
    const char* span_name = nullptr;
    std::uint64_t span_index = 0;
};

class CampaignScheduler {
public:
    /// The scheduler drains onto `pool` and owns it for the duration of
    /// run() — the ThreadPool contract forbids concurrent batches.
    explicit CampaignScheduler(engine::ThreadPool& pool);
    ~CampaignScheduler();

    CampaignScheduler(const CampaignScheduler&) = delete;
    CampaignScheduler& operator=(const CampaignScheduler&) = delete;

    /// Enqueues a campaign of `kind` (engine/reduce.h); returns its
    /// index (take() and fault-site key: submission order). Validates
    /// the inputs eagerly, on the calling thread. Must precede run().
    template <typename Kind>
    std::size_t add(CampaignWork work, Kind kind) {
        if constexpr (requires { kind.validate(); }) kind.validate();
        return enqueue(std::make_unique<KindCampaign<Kind>>(std::move(kind)),
                       std::move(work));
    }

    struct RunOptions {
        /// Ticked once per contention run (aggregate and the owning
        /// campaign's counter). The scheduler never calls begin() —
        /// announce totals via BatchProgress::announce.
        BatchProgress* batch = nullptr;
        /// Ticked once per contention run. Announced by the caller.
        engine::ProgressCounter* runs = nullptr;
        /// Ticked once per *completed campaign* — the sweep's per-point
        /// progress contract. Announced by the caller.
        engine::ProgressCounter* campaigns_done = nullptr;
    };

    /// Drains every queued item across the pool; returns when the whole
    /// batch is done. Call once. Never throws for item failures: each
    /// campaign is supervised independently (see the module comment) —
    /// inspect status() or let take() rethrow per campaign.
    void run(const RunOptions& options);
    void run() { run(RunOptions{}); }

    /// Post-run verdict for one campaign: ok, or failed with the first
    /// captured exception's message.
    struct CampaignStatus {
        bool failed = false;
        std::string error;
    };

    /// Valid after run(). Never throws.
    [[nodiscard]] const CampaignStatus& status(std::size_t index) const;

    /// Moves campaign `index`'s result out: its shard range's unmerged
    /// accumulators in shard order plus the isolation baseline. `Kind`
    /// must be the kind it was added with. Valid once per campaign,
    /// after run(). Rethrows the campaign's first captured exception if
    /// it failed.
    template <typename Kind>
    [[nodiscard]] engine::CampaignSlice<typename Kind::Accumulator> take(
        std::size_t index) {
        auto* campaign = dynamic_cast<KindCampaign<Kind>*>(&claim(index));
        RRB_REQUIRE(campaign != nullptr,
                    "campaign taken as a different kind than added");
        engine::CampaignSlice<typename Kind::Accumulator> slice;
        slice.et_isolation = campaign->et_isolation;
        slice.nr = campaign->nr;
        const engine::ReducePlan::ShardRange range = campaign->range;
        slice.first_shard = range.first;
        if (range.size() > 0) {  // an empty slice covers runs [0, 0)
            slice.first_run = campaign->plan.shard_begin(range.first);
            slice.last_run = slice.first_run + campaign->plan.runs(range);
        }
        slice.shards.reserve(campaign->slots.size());
        for (auto& slot : campaign->slots) {
            slice.shards.push_back(std::move(*slot));
        }
        return slice;
    }

    /// Total work items (isolation baselines + shards) this batch holds.
    [[nodiscard]] std::size_t work_items() const noexcept;

private:
    struct WorkItem;
    struct Bucket;
    struct State;

    /// The kind-independent half of a queued campaign: inputs, plan,
    /// supervision state and the isolation baseline.
    struct Campaign {
        virtual ~Campaign() = default;
        /// Sizes the result slots: one per shard of the range.
        virtual void prepare() = 0;
        /// Folds plan shard `shard` into a fresh accumulator and stores
        /// it; ticks `options` once per run.
        virtual void fold_shard(std::size_t shard,
                                const RunOptions& options) = 0;
        void tick(const RunOptions& options) const;

        std::size_t index = 0;
        CampaignWork work;
        engine::ReducePlan plan;
        engine::ReducePlan::ShardRange range;
        std::uint64_t fingerprint = 0;  ///< config fingerprint, never 0
        std::uint64_t span = 0;         ///< items' parent span
        bool owns_span = false;         ///< close `span` when done
        std::atomic<std::size_t> remaining{0};  ///< items left
        Cycle et_isolation = 0;
        std::uint64_t nr = 0;
        bool taken = false;
        /// Failure domain: set once by the first throwing item (later
        /// items of this campaign are skipped, not executed). The flag
        /// is the workers' fast check; error/status are written under
        /// the state mutex before the flag is released.
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        CampaignStatus status;
    };

    template <typename Kind>
    struct KindCampaign final : Campaign {
        explicit KindCampaign(Kind k) : kind(std::move(k)) {}

        void prepare() override { slots.assign(range.size(), std::nullopt); }

        void fold_shard(std::size_t shard,
                        const RunOptions& options) override {
            const engine::CampaignInputs& inputs = work.inputs;
            typename Kind::Accumulator acc = kind.init();
            const std::uint64_t last = plan.shard_end(shard);
            for (std::uint64_t i = plan.shard_begin(shard); i < last; ++i) {
                kind.fold(acc, inputs, i);
                tick(options);
            }
            slots[shard - range.first].emplace(std::move(acc));
        }

        Kind kind;
        std::vector<std::optional<typename Kind::Accumulator>> slots;
    };

    std::size_t enqueue(std::unique_ptr<Campaign> campaign, CampaignWork work);
    /// Checks `index` is takeable, rethrows its failure, marks it taken.
    Campaign& claim(std::size_t index);
    void execute(const WorkItem& item, const RunOptions& options);
    void run_item(const WorkItem& item, const RunOptions& options);
    void fail(Campaign& campaign, std::exception_ptr error) noexcept;
    [[nodiscard]] bool next_item(std::uint64_t& last_fingerprint,
                                 WorkItem& out);

    engine::ThreadPool& pool_;
    std::vector<std::unique_ptr<Campaign>> campaigns_;
    std::unique_ptr<State> state_;
    bool ran_ = false;
};

}  // namespace rrb::sched
