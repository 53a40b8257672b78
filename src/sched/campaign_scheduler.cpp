#include "sched/campaign_scheduler.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "fault/fault.h"
#include "obs/telemetry.h"
#include "sim/contract.h"

namespace rrb::sched {

namespace {

/// Shard index standing for "measure the isolation baseline" — the one
/// per-campaign item that is not a reduce shard. Scheduled through the
/// same queue (same fingerprint bucket) so the baseline also lands on a
/// worker with a hot lease.
constexpr std::size_t kIsolationItem = static_cast<std::size_t>(-1);

/// Per-item attempt budget: a TransientError is retried in place this
/// many times total before it counts as the campaign's failure. The
/// item restarts from a fresh accumulator, so a retry cannot perturb
/// results — only the advisory progress counters may overshoot if the
/// failure struck mid-fold.
constexpr std::size_t kMaxAttempts = 3;

/// Human-readable first line for CampaignStatus::error.
std::string describe(const std::exception_ptr& error) {
    try {
        std::rethrow_exception(error);
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "unknown error";
    }
}

}  // namespace

void BatchProgress::announce(
    const std::vector<std::pair<std::string, std::size_t>>& campaigns) {
    campaigns_.clear();
    std::size_t total = 0;
    for (const auto& [name, runs] : campaigns) {
        Entry& entry = campaigns_.emplace_back();
        entry.name = name;
        entry.progress.begin(runs);
        total += runs;
    }
    aggregate_.begin(total);
}

std::vector<obs::CampaignSample> BatchProgress::samples() const {
    std::vector<obs::CampaignSample> out;
    out.reserve(campaigns_.size());
    for (const Entry& entry : campaigns_) {
        out.push_back({&entry.name, &entry.progress});
    }
    return out;
}

/// One queued (campaign, shard) unit of work.
struct CampaignScheduler::WorkItem {
    std::size_t campaign = 0;
    std::size_t shard = 0;  ///< kIsolationItem for the baseline
};

/// All queued items of one config fingerprint, drained front to back
/// (isolation first, then shards ascending, campaign-major — so one
/// bucket finishes a campaign before starting the next and take() can
/// stream early results while later campaigns still run).
struct CampaignScheduler::Bucket {
    std::uint64_t fingerprint = 0;
    std::vector<WorkItem> items;
    std::size_t head = 0;  ///< items[0, head) already dispatched

    [[nodiscard]] std::size_t left() const noexcept {
        return items.size() - head;
    }
};

struct CampaignScheduler::State {
    std::mutex mutex;
    std::vector<Bucket> buckets;
    std::size_t remaining = 0;  ///< undispatched items across buckets
};

CampaignScheduler::CampaignScheduler(engine::ThreadPool& pool)
    : pool_(pool), state_(std::make_unique<State>()) {}

CampaignScheduler::~CampaignScheduler() = default;

std::size_t CampaignScheduler::enqueue(std::unique_ptr<Campaign> campaign,
                                       CampaignWork work) {
    RRB_REQUIRE(!ran_, "cannot add campaigns after run()");
    // Eager validation on the calling thread — a malformed campaign
    // must not surface as a worker-side failure halfway through an
    // unrelated batch.
    const engine::CampaignInputs& in = work.inputs;
    RRB_REQUIRE(in.protocol.runs >= 1, "need at least one run");
    RRB_REQUIRE(in.protocol.runs <= kMaxCampaignRuns,
                "run count exceeds the campaign ceiling of 10^12 runs");
    RRB_REQUIRE(!in.contenders.empty(), "need at least one contender");
    in.config.validate();

    campaign->plan = engine::ReducePlan::for_count(in.protocol.runs);
    campaign->range = work.range.value_or(
        engine::ReducePlan::ShardRange{0, campaign->plan.shards()});
    RRB_REQUIRE(campaign->range.first <= campaign->range.last &&
                    campaign->range.last <= campaign->plan.shards(),
                "shard range outside the plan");
    const std::uint64_t fp = in.config.fingerprint();
    campaign->fingerprint = fp == 0 ? 1 : fp;  // 0 = "no lease" sentinel
    // Hashed once here, not once per shard (or, for campaigns of up to
    // 256 runs, once per run).
    work.inputs.fingerprint =
        detail::campaign_fingerprint(in.scua, in.contenders, in.protocol);
    campaign->work = std::move(work);
    campaign->index = campaigns_.size();
    campaigns_.push_back(std::move(campaign));
    return campaigns_.size() - 1;
}

std::size_t CampaignScheduler::work_items() const noexcept {
    std::size_t total = 0;
    for (const std::unique_ptr<Campaign>& c : campaigns_) {
        total += c->range.size() + 1;
    }
    return total;
}

void CampaignScheduler::run(const RunOptions& options) {
    RRB_REQUIRE(!ran_, "a CampaignScheduler drains exactly once");
    ran_ = true;

    std::size_t total_items = 0;
    for (std::size_t index = 0; index < campaigns_.size(); ++index) {
        Campaign& campaign = *campaigns_[index];
        const std::size_t shards = campaign.range.size();
        campaign.prepare();
        campaign.remaining.store(shards + 1, std::memory_order_relaxed);
        // The campaign span parents every shard span, whatever worker
        // runs it — opened here, under the submitting thread's current
        // span (session.sweep / session.batch), closed by whichever
        // worker finishes the campaign's last item. A campaign without
        // a span name parents its items on that current span directly.
        campaign.owns_span =
            obs::enabled() && campaign.work.span_name != nullptr;
        campaign.span =
            campaign.owns_span
                ? obs::TelemetryRegistry::instance().open_span(
                      campaign.work.span_name, obs::current_span(),
                      campaign.work.span_index,
                      campaign.plan.runs(campaign.range))
                : obs::current_span();

        Bucket* bucket = nullptr;
        for (Bucket& b : state_->buckets) {
            if (b.fingerprint == campaign.fingerprint) {
                bucket = &b;
                break;
            }
        }
        if (bucket == nullptr) {
            bucket = &state_->buckets.emplace_back();
            bucket->fingerprint = campaign.fingerprint;
        }
        bucket->items.push_back({index, kIsolationItem});
        for (std::size_t s = campaign.range.first; s < campaign.range.last;
             ++s) {
            bucket->items.push_back({index, s});
        }
        total_items += shards + 1;
    }
    state_->remaining = total_items;
    obs::count(obs::kSchedItemsEnqueued, total_items);
    if (total_items == 0) return;

    // One drain loop per pool worker (never more loops than items):
    // each loop pulls items — affinity first, steal otherwise — until
    // the queue is dry. execute() supervises every item, so no loop
    // ever dies: failures are captured per campaign and the loops keep
    // draining the surviving campaigns' work.
    const std::size_t loops = std::min(pool_.thread_count(), total_items);
    for (std::size_t w = 0; w < loops; ++w) {
        pool_.submit([this, &options] {
            std::uint64_t last_fingerprint = 0;
            WorkItem item;
            while (next_item(last_fingerprint, item)) {
                execute(item, options);
            }
        });
    }
    pool_.wait_idle();
}

bool CampaignScheduler::next_item(std::uint64_t& last_fingerprint,
                                  WorkItem& out) {
    const std::scoped_lock lock(state_->mutex);
    if (state_->remaining == 0) return false;

    // Affinity: another item of the fingerprint this worker just ran —
    // its thread-local MachineLease still holds the hot machine.
    Bucket* pick = nullptr;
    bool hit = false;
    if (last_fingerprint != 0) {
        for (Bucket& b : state_->buckets) {
            if (b.fingerprint == last_fingerprint && b.left() > 0) {
                pick = &b;
                hit = true;
                break;
            }
        }
    }
    // Steal fallback: the fingerprint class with the most work left, so
    // idle workers pile onto the longest queue instead of all chasing
    // the same nearly-done one.
    if (pick == nullptr) {
        std::size_t best = 0;
        for (Bucket& b : state_->buckets) {
            if (b.left() > best) {
                best = b.left();
                pick = &b;
            }
        }
    }
    out = pick->items[pick->head++];
    --state_->remaining;
    last_fingerprint = pick->fingerprint;
    obs::count(obs::kSchedDispatches);
    obs::count(hit ? obs::kSchedAffinityHits : obs::kSchedSteals);
    return true;
}

void CampaignScheduler::fail(Campaign& campaign,
                             std::exception_ptr error) noexcept {
    const std::scoped_lock lock(state_->mutex);
    if (campaign.status.failed) return;  // first failure wins
    campaign.status.failed = true;
    campaign.status.error = describe(error);
    campaign.error = std::move(error);
    campaign.failed.store(true, std::memory_order_release);
    obs::count(obs::kSchedFailures);
}

void CampaignScheduler::execute(const WorkItem& item,
                                const RunOptions& options) {
    Campaign& campaign = *campaigns_[item.campaign];
    if (campaign.failed.load(std::memory_order_acquire)) {
        // The campaign already failed; its remaining queued items are
        // drained without work so `remaining` still reaches zero (the
        // span closes, sweep progress ticks) and other campaigns' items
        // behind them in the bucket are reached.
        obs::count(obs::kSchedItemsSkipped);
    } else {
        for (std::size_t attempt = 1;; ++attempt) {
            try {
                run_item(item, options);
                break;
            } catch (const fault::TransientError&) {
                if (attempt < kMaxAttempts) {
                    obs::count(obs::kSchedRetries);
                    continue;
                }
                fail(campaign, std::current_exception());
                break;
            } catch (...) {
                fail(campaign, std::current_exception());
                break;
            }
        }
    }

    if (campaign.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (campaign.owns_span && campaign.span != 0) {
            obs::TelemetryRegistry::instance().close_span(campaign.span);
        }
        if (options.campaigns_done != nullptr) {
            options.campaigns_done->tick();
        }
    }
}

void CampaignScheduler::run_item(const WorkItem& item,
                                 const RunOptions& options) {
    Campaign& campaign = *campaigns_[item.campaign];
    const engine::CampaignInputs& inputs = campaign.work.inputs;

    // Fault sites, evaluated at item start — before any progress tick,
    // so an injected retry replays the item exactly. Key: campaign
    // index in submission order; shard items only, so a rule's match
    // count is the campaign's shard count.
    if (item.shard != kIsolationItem) {
        if (fault::should_fire(fault::Site::kTransientIo,
                               item.campaign)) {
            throw fault::TransientError(
                "injected transient I/O failure (campaign " +
                std::to_string(item.campaign) + ")");
        }
        if (fault::should_fire(fault::Site::kShardThrow,
                               item.campaign)) {
            throw std::runtime_error(
                "injected shard worker failure (campaign " +
                std::to_string(item.campaign) + ")");
        }
    }

    if (item.shard == kIsolationItem) {
        // The deterministic baseline every campaign reports — here just
        // another queue item, so it also lands on a worker holding (or
        // about to hold) this config's lease.
        const obs::Span span("isolation", campaign.span, 0, 1);
        const Measurement isol =
            run_isolation(inputs.config, inputs.scua, 0,
                          inputs.protocol.max_cycles_per_run);
        RRB_ENSURE(!isol.deadline_reached);
        campaign.et_isolation = isol.exec_time;
        campaign.nr = isol.bus_requests;
        return;
    }
    const std::uint64_t begin_ns =
        obs::enabled() ? obs::TelemetryRegistry::instance().now_ns() : 0;
    // Explicit parent: the *owning campaign's* span, never whatever
    // campaign this worker happened to touch before — concurrent
    // heterogeneous campaigns keep their timelines separate.
    const obs::Span span("shard", campaign.span, item.shard,
                         campaign.plan.shard_end(item.shard) -
                             campaign.plan.shard_begin(item.shard));
    campaign.fold_shard(item.shard, options);
    obs::count(obs::kShardsCompleted);
    if (obs::enabled()) {
        obs::count(obs::kShardWallNs,
                   obs::TelemetryRegistry::instance().now_ns() - begin_ns);
    }
}

void CampaignScheduler::Campaign::tick(const RunOptions& options) const {
    if (options.runs != nullptr) options.runs->tick();
    if (options.batch != nullptr) {
        options.batch->aggregate().tick();
        options.batch->campaign(index).tick();
    }
}

const CampaignScheduler::CampaignStatus& CampaignScheduler::status(
    std::size_t index) const {
    RRB_REQUIRE(ran_, "run() the batch before reading statuses");
    RRB_REQUIRE(index < campaigns_.size(), "campaign index out of range");
    return campaigns_[index]->status;
}

CampaignScheduler::Campaign& CampaignScheduler::claim(std::size_t index) {
    RRB_REQUIRE(ran_, "run() the batch before taking results");
    RRB_REQUIRE(index < campaigns_.size(), "campaign index out of range");
    Campaign& campaign = *campaigns_[index];
    RRB_REQUIRE(!campaign.taken, "campaign result already taken");
    if (campaign.status.failed) {
        // The caller asked for a result that does not exist; hand the
        // original failure back on the calling thread (every Session
        // entry point's "throws on failure" contract rides on this).
        std::rethrow_exception(campaign.error);
    }
    campaign.taken = true;
    return campaign;
}

}  // namespace rrb::sched
