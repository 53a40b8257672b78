#include "core/session.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/progress.h"
#include "engine/thread_pool.h"
#include "obs/telemetry.h"
#include "sched/campaign_scheduler.h"
#include "sim/contract.h"

namespace rrb {

namespace {

/// Applies the set axis values to a copy of the base config, sharing
/// MachineConfig::scaled's choices (one 64KB L2 way per core, the
/// retime_bus timing model) where an axis is present and keeping the
/// base's settings where it is not.
MachineConfig apply_axes(MachineConfig config, std::optional<CoreId> cores,
                         std::optional<Cycle> lbus,
                         std::optional<ArbiterKind> arbiter) {
    if (cores.has_value()) {
        RRB_REQUIRE(*cores >= 1, "need at least one core");
        config.num_cores = *cores;
        config.l2_geometry.ways = *cores;
        config.l2_geometry.size_bytes = 64ULL * 1024 * *cores;
    }
    if (lbus.has_value()) config.retime_bus(*lbus);
    if (arbiter.has_value()) config.arbiter = *arbiter;
    config.validate();
    return config;
}

/// Lowers a scenario into the scheduler's work unit: the whole plan
/// unless `range` names part of it.
sched::CampaignWork to_campaign_work(
    const Scenario& scenario,
    std::optional<engine::ReducePlan::ShardRange> range = std::nullopt,
    const char* span_name = nullptr, std::uint64_t span_index = 0) {
    sched::CampaignWork work;
    work.inputs.config = scenario.config();
    work.inputs.scua = scenario.scua_program();
    work.inputs.contenders = scenario.contender_programs();
    work.inputs.protocol = scenario.run_protocol();
    work.range = range;
    work.span_name = span_name;
    work.span_index = span_index;
    return work;
}

/// A single campaign as a batch of one: announces the range's runs on
/// `progress`, drains, and hands back the slice (rethrowing a failure).
template <typename Kind>
engine::CampaignSlice<typename Kind::Accumulator> run_one(
    engine::ThreadPool& pool, engine::ProgressCounter* progress,
    const Scenario& scenario, Kind kind,
    std::optional<engine::ReducePlan::ShardRange> range = std::nullopt) {
    sched::CampaignScheduler scheduler(pool);
    scheduler.add(to_campaign_work(scenario, range), std::move(kind));
    if (progress != nullptr) {
        const engine::ReducePlan plan =
            engine::ReducePlan::for_count(scenario.run_protocol().runs);
        progress->begin(static_cast<std::size_t>(plan.runs(
            range.value_or(engine::ReducePlan::ShardRange{0,
                                                          plan.shards()}))));
    }
    sched::CampaignScheduler::RunOptions options;
    options.runs = progress;
    scheduler.run(options);
    return scheduler.take<Kind>(0);
}

/// The campaign identity a scenario stamps into its checkpoints — and
/// the identity resume validates loaded checkpoints against. The slice
/// that ran fills the slice, run-range and isolation fields.
CheckpointMeta campaign_meta(const Scenario& scenario,
                             const engine::PwcetKind& kind) {
    const engine::ReducePlan plan =
        engine::ReducePlan::for_count(scenario.run_protocol().runs);
    CheckpointMeta meta;
    meta.scenario_fingerprint = scenario.fingerprint();
    meta.seed = scenario.run_protocol().seed;
    meta.total_runs = scenario.run_protocol().runs;
    meta.block_size = kind.block_size;
    meta.shard_size = plan.shard_size;
    meta.plan_shards = plan.shards();
    meta.shard_plan_hash =
        shard_plan_hash(meta.total_runs, meta.shard_size, meta.plan_shards);
    meta.ubd_analytic = scenario.config().ubd_analytic();
    meta.exceedance = kind.exceedance;
    return meta;
}

/// White-box identity: the pWCET one minus the EVT half (white-box
/// campaigns have no block size or exceedance list; encoded 0 / empty).
CheckpointMeta campaign_meta(const Scenario& scenario,
                             const engine::WhiteboxKind&) {
    return campaign_meta(scenario, engine::PwcetKind{0, {}});
}

/// A slice that ran, wrapped with its campaign identity.
template <typename Kind>
CampaignCheckpoint<Kind> to_checkpoint(
    const Scenario& scenario, const Kind& kind, const SliceSpec& slice,
    engine::CampaignSlice<typename Kind::Accumulator> run) {
    CampaignCheckpoint<Kind> checkpoint;
    checkpoint.meta = campaign_meta(scenario, kind);
    checkpoint.meta.slice_index = slice.index;
    checkpoint.meta.slice_count = slice.count;
    checkpoint.meta.first_run = run.first_run;
    checkpoint.meta.last_run = run.last_run;
    checkpoint.meta.et_isolation = run.et_isolation;
    checkpoint.meta.nr = run.nr;
    checkpoint.first_shard = run.first_shard;
    checkpoint.shards = std::move(run.shards);
    return checkpoint;
}

/// Runs slice `slice` of the scenario's campaign of `kind` and writes
/// it to `path`.
template <typename Kind>
CampaignCheckpoint<Kind> checkpoint_slice(engine::ThreadPool& pool,
                                          engine::ProgressCounter* progress,
                                          const Scenario& scenario,
                                          const Kind& kind,
                                          const SliceSpec& slice,
                                          const std::string& path) {
    scenario.validate();
    const engine::ReducePlan::ShardRange range =
        engine::ReducePlan::for_count(scenario.run_protocol().runs)
            .slice(slice.index, slice.count);
    const obs::Span span("session.checkpoint", slice.index, range.size());
    CampaignCheckpoint<Kind> checkpoint =
        to_checkpoint(scenario, kind, slice,
                      run_one(pool, progress, scenario, kind, range));
    save_checkpoint(path, checkpoint);
    return checkpoint;
}

}  // namespace

Session::Session() = default;
Session::~Session() = default;

Session& Session::jobs(std::size_t n) {
    RRB_REQUIRE(pool_ == nullptr,
                "set the jobs budget before the first campaign call");
    jobs_ = n;
    return *this;
}

Session& Session::progress(engine::ProgressCounter* sink) {
    progress_ = sink;
    return *this;
}

std::size_t Session::worker_budget() const noexcept {
    return jobs_ == 0 ? engine::ThreadPool::default_jobs() : jobs_;
}

engine::ThreadPool& Session::shared_pool() {
    if (pool_ == nullptr) {
        pool_ = std::make_unique<engine::ThreadPool>(worker_budget());
    }
    return *pool_;
}

Measurement Session::isolation(const Scenario& scenario) const {
    scenario.validate();
    Measurement m =
        run_isolation(scenario.config(), scenario.scua_program(), 0,
                      scenario.run_protocol().max_cycles_per_run);
    // A capped run is not a measurement — same contract as the
    // campaign paths. Probe with the low-level run_isolation when
    // deadline_reached is the thing being asked.
    RRB_ENSURE(!m.deadline_reached);
    return m;
}

Measurement Session::contention(const Scenario& scenario) const {
    scenario.validate();
    Measurement m =
        run_contention(scenario.config(), scenario.scua_program(),
                       scenario.contender_programs(), 0,
                       scenario.run_protocol().max_cycles_per_run);
    RRB_ENSURE(!m.deadline_reached);
    return m;
}

SlowdownResult Session::slowdown(const Scenario& scenario) const {
    return {isolation(scenario), contention(scenario)};
}

HwmCampaignResult Session::hwm(const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.hwm", 0, scenario.run_protocol().runs);
    return engine::finalize(
        engine::HwmKind{},
        run_one(shared_pool(), progress_, scenario, engine::HwmKind{}));
}

PwcetCampaignResult Session::pwcet(const Scenario& scenario,
                                   const PwcetSpec& spec) {
    scenario.validate();
    const obs::Span span("session.pwcet", 0, scenario.run_protocol().runs);
    return engine::finalize(
        spec, run_one(shared_pool(), progress_, scenario, spec));
}

engine::WhiteboxCampaignResult Session::whitebox(const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.whitebox", 0,
                         scenario.run_protocol().runs);
    return engine::finalize(
        engine::WhiteboxKind{},
        run_one(shared_pool(), progress_, scenario, engine::WhiteboxKind{}));
}

engine::AttributionCampaignResult Session::attribution(
    const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.attribution", 0,
                         scenario.run_protocol().runs);
    return engine::finalize(engine::AttributionKind{},
                            run_one(shared_pool(), progress_, scenario,
                                    engine::AttributionKind{}));
}

SweepResult Session::sweep(const Scenario& scenario, const SweepAxes& axes,
                           const PwcetSpec& spec) {
    scenario.validate();

    // Materialize the enumeration. An empty axis contributes a single
    // disengaged value: apply_axes leaves the base config's setting
    // completely untouched (re-timing the bus to an equal lbus would
    // still be a different machine).
    const auto materialize = [](const auto& axis) {
        using Value = typename std::decay_t<decltype(axis)>::value_type;
        std::vector<std::optional<Value>> values;
        if (axis.empty()) {
            values.push_back(std::nullopt);
        } else {
            for (const Value& v : axis) values.push_back(v);
        }
        return values;
    };
    const auto cores = materialize(axes.cores);
    const auto lbus = materialize(axes.lbus);
    const auto arbiters = materialize(axes.arbiters);

    if (progress_ != nullptr) progress_->begin(axes.points());

    const obs::Span sweep_span(
        "session.sweep", 0,
        axes.points() * scenario.run_protocol().runs);
    // Lower the whole grid up front, then drain it as one flat
    // (campaign × shard) queue — no barrier between grid points, so
    // the tail shards of one point overlap the head of the next and
    // every worker stays busy to the end of the grid. Per-run progress
    // stays off — the sweep reports per completed point.
    sched::CampaignScheduler scheduler(shared_pool());
    SweepResult result;
    result.points.reserve(axes.points());
    for (const std::optional<CoreId>& c : cores) {
        for (const std::optional<Cycle>& l : lbus) {
            for (const std::optional<ArbiterKind>& a : arbiters) {
                SweepPoint point;
                point.config = apply_axes(scenario.config(), c, l, a);
                point.cores = point.config.num_cores;
                point.lbus = point.config.load_hit_service();
                point.arbiter = point.config.arbiter;
                scheduler.add(
                    to_campaign_work(scenario.with_config(point.config),
                                     std::nullopt, "grid-point",
                                     result.points.size()),
                    spec);
                result.points.push_back(std::move(point));
            }
        }
    }
    sched::CampaignScheduler::RunOptions run_options;
    run_options.campaigns_done = progress_;
    scheduler.run(run_options);
    for (std::size_t p = 0; p < result.points.size(); ++p) {
        result.points[p].result = engine::finalize(
            spec, scheduler.take<engine::PwcetKind>(p));
    }
    return result;
}

BatchResult Session::batch(const std::vector<BatchItem>& items,
                           sched::BatchProgress* monitor) {
    RRB_REQUIRE(!items.empty(), "batch needs at least one scenario");
    RRB_REQUIRE(monitor == nullptr || monitor->campaigns() == items.size(),
                "batch monitor must be announced with one entry per item");
    std::size_t total_runs = 0;
    for (const BatchItem& item : items) {
        item.scenario.validate();
        total_runs += item.scenario.run_protocol().runs;
    }
    if (progress_ != nullptr) progress_->begin(total_runs);
    const obs::Span span("session.batch", 0, total_runs);

    sched::CampaignScheduler scheduler(shared_pool());
    for (std::size_t i = 0; i < items.size(); ++i) {
        scheduler.add(to_campaign_work(items[i].scenario, std::nullopt,
                                       "campaign", i),
                      items[i].spec);
    }
    sched::CampaignScheduler::RunOptions run_options;
    run_options.batch = monitor;
    run_options.runs = progress_;
    scheduler.run(run_options);

    BatchResult result;
    result.points.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchItem& item = items[i];
        const sched::CampaignScheduler::CampaignStatus& status =
            scheduler.status(i);
        if (status.failed) {
            // This scenario's failure domain only: report it and keep
            // collecting the healthy campaigns' results.
            BatchPointResult point;
            point.name = item.name;
            point.ok = false;
            point.error = status.error;
            result.points.push_back(std::move(point));
            continue;
        }
        engine::CampaignSlice<PwcetAccumulator> slice =
            scheduler.take<engine::PwcetKind>(i);
        BatchPointResult point;
        point.name = item.name;
        point.result = engine::finalize(item.spec, slice);
        // The whole campaign as slice 0 of 1 — the exact checkpoint
        // `checkpoint(scenario, spec, {0, 1}, path)` would have written,
        // so batch output farms through the same merge tooling.
        point.checkpoint = to_checkpoint(item.scenario, item.spec,
                                         SliceSpec{}, std::move(slice));
        result.points.push_back(std::move(point));
    }
    return result;
}

PwcetCheckpoint Session::checkpoint(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const SliceSpec& slice,
                                    const std::string& path) {
    return checkpoint_slice(shared_pool(), progress_, scenario, spec,
                            slice, path);
}

WhiteboxCheckpoint Session::checkpoint(const Scenario& scenario,
                                       const SliceSpec& slice,
                                       const std::string& path) {
    return checkpoint_slice(shared_pool(), progress_, scenario,
                            engine::WhiteboxKind{}, slice, path);
}

MergedPwcetCampaign Session::merge(
    const std::vector<std::string>& paths) const {
    return merge_checkpoint_files<engine::PwcetKind>(paths);
}

MergedWhiteboxCampaign Session::merge_whitebox(
    const std::vector<std::string>& paths) const {
    return merge_checkpoint_files<engine::WhiteboxKind>(paths);
}

PwcetCampaignResult Session::resume(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const std::vector<std::string>& paths) {
    return resume_impl(scenario, spec, paths, nullptr);
}

PwcetCampaignResult Session::resume(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const std::vector<std::string>& paths,
                                    ResumeRecovery& recovery) {
    return resume_impl(scenario, spec, paths, &recovery);
}

PwcetCampaignResult Session::resume_impl(
    const Scenario& scenario, const PwcetSpec& spec,
    const std::vector<std::string>& paths, ResumeRecovery* recovery) {
    scenario.validate();
    const obs::Span span("session.resume", 0,
                         scenario.run_protocol().runs);
    const engine::ReducePlan plan =
        engine::ReducePlan::for_count(scenario.run_protocol().runs);
    CheckpointMeta expected = campaign_meta(scenario, spec);

    // Load and validate: every checkpoint must identify as a slice of
    // *this* campaign before any of its state is trusted. The expected
    // meta knows everything except the isolation baseline (measured,
    // not specified); the first *accepted* checkpoint supplies it and
    // every later one must agree. In recovery mode a checkpoint that
    // fails to load or identify is quarantined (or, if unreadable at
    // the I/O level, just recorded) and its coverage recomputed; in
    // strict mode it throws exactly as before.
    constexpr std::size_t kNobody = static_cast<std::size_t>(-1);
    std::vector<PwcetAccumulator> by_shard(plan.shards());
    std::vector<std::size_t> owner(plan.shards(), kNobody);
    bool have_baseline = false;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        PwcetCheckpoint checkpoint;
        try {
            checkpoint = load_pwcet_checkpoint(paths[i]);
            // Adopt the baseline transactionally: a mismatched first
            // checkpoint must not poison `expected` for its successors.
            CheckpointMeta candidate = expected;
            if (!have_baseline) {
                candidate.et_isolation = checkpoint.meta.et_isolation;
                candidate.nr = checkpoint.meta.nr;
            }
            require_same_campaign(checkpoint.meta, candidate, paths[i],
                                  "the campaign being resumed");
            expected = candidate;
            have_baseline = true;
        } catch (const CheckpointError& e) {
            if (recovery == nullptr) throw;
            RecoveryAction action;
            action.path = paths[i];
            action.reason = e.reason().empty() ? e.what() : e.reason();
            if (e.kind() != CheckpointError::Kind::kIo) {
                // The file exists but is not a usable slice of this
                // campaign — move it aside so a re-run cannot trip
                // over it again.
                action.quarantined_to = quarantine_checkpoint(paths[i]);
            }
            recovery->actions.push_back(std::move(action));
            continue;
        }
        bool duplicate_noted = false;
        for (std::size_t s = 0; s < checkpoint.shards.size(); ++s) {
            const std::size_t index =
                static_cast<std::size_t>(checkpoint.first_shard) + s;
            if (owner[index] != kNobody) {
                if (recovery == nullptr) {
                    throw CheckpointError("duplicate slice: shard " +
                                          std::to_string(index) +
                                          " appears in both " +
                                          paths[owner[index]] + " and " +
                                          paths[i]);
                }
                // Valid data, redundant coverage (e.g. the same slice
                // checkpointed twice across crashes): first owner
                // wins, the file stays in place.
                if (!duplicate_noted) {
                    duplicate_noted = true;
                    recovery->actions.push_back(
                        {paths[i],
                         "shard " + std::to_string(index) +
                             " already covered by " + paths[owner[index]] +
                             "; ignoring the duplicate coverage",
                         std::string()});
                }
                continue;
            }
            owner[index] = i;
            by_shard[index] = std::move(checkpoint.shards[s]);
        }
    }

    // Every maximal uncovered shard range becomes one campaign of a
    // single scheduler batch, exactly as a checkpoint slice would have
    // run it (fault-site key: the range's position in shard order).
    sched::CampaignScheduler scheduler(shared_pool());
    std::vector<std::size_t> range_first;
    std::uint64_t covered_runs = 0;
    for (std::size_t s = 0; s < plan.shards();) {
        if (owner[s] != kNobody) {
            covered_runs += plan.runs({s, s + 1});
            ++s;
            continue;
        }
        std::size_t end = s;
        while (end < plan.shards() && owner[end] == kNobody) ++end;
        obs::count(obs::kResumeShardsRerun,
                   static_cast<std::uint64_t>(end - s));
        if (recovery != nullptr) {
            recovery->shards_rerun += static_cast<std::uint64_t>(end - s);
        }
        scheduler.add(
            to_campaign_work(scenario, engine::ReducePlan::ShardRange{s, end}),
            spec);
        range_first.push_back(s);
        s = end;
    }

    // Announce the whole campaign once, with the checkpointed runs
    // counted as already completed: the progress line (and any
    // heartbeat ETA built on it) sees "covered/total" from the first
    // tick instead of a cold start.
    if (progress_ != nullptr) {
        progress_->begin_resumed(static_cast<std::size_t>(plan.count),
                                 static_cast<std::size_t>(covered_runs));
    }
    sched::CampaignScheduler::RunOptions options;
    options.runs = progress_;
    scheduler.run(options);

    for (std::size_t r = 0; r < range_first.size(); ++r) {
        engine::CampaignSlice<PwcetAccumulator> fresh =
            scheduler.take<engine::PwcetKind>(r);
        if (have_baseline && (fresh.et_isolation != expected.et_isolation ||
                              fresh.nr != expected.nr)) {
            // The fingerprints matched, so a diverging deterministic
            // baseline means the checkpoint does not come from this
            // scenario after all.
            throw CheckpointError(
                "checkpointed isolation baseline disagrees with the "
                "scenario being resumed");
        }
        expected.et_isolation = fresh.et_isolation;
        expected.nr = fresh.nr;
        have_baseline = true;
        for (std::size_t f = 0; f < fresh.shards.size(); ++f) {
            by_shard[range_first[r] + f] = std::move(fresh.shards[f]);
        }
    }
    return spec.finalize(engine::merge_in_order(by_shard),
                         expected.et_isolation, expected.nr);
}

}  // namespace rrb
