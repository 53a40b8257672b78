// Tests of the sharded streaming reduction: the fixed shard plan, the
// fold/merge order contract of campaign kinds run through the scheduler,
// and the pWCET / white-box campaign paths being bit-identical at every
// job count and to their serial references.
#include "engine/reduce.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/progress.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "sched/campaign_scheduler.h"

namespace rrb {
namespace {

// ---------------------------------------------------------- ReducePlan

TEST(ReducePlan, IsAPureFunctionOfCountAndCoversTheRange) {
    for (const std::uint64_t count : {1ull, 7ull, 256ull, 257ull, 100000ull}) {
        const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
        ASSERT_GE(plan.shards(), 1u);
        EXPECT_LE(plan.shards(), engine::ReducePlan::kTargetShards);
        // Shards are contiguous, ascending, and partition [0, count).
        std::uint64_t next = 0;
        for (std::size_t s = 0; s < plan.shards(); ++s) {
            EXPECT_EQ(plan.shard_begin(s), next);
            EXPECT_GT(plan.shard_end(s), plan.shard_begin(s));
            next = plan.shard_end(s);
        }
        EXPECT_EQ(next, count);
    }
}

TEST(ReducePlan, SmallCountsGetOneRunPerShard) {
    const engine::ReducePlan plan = engine::ReducePlan::for_count(20);
    EXPECT_EQ(plan.shards(), 20u);
    EXPECT_EQ(plan.shard_size, 1u);
}

TEST(ReducePlan, SlicesPartitionTheShardsContiguously) {
    for (const std::uint64_t count : {7ull, 256ull, 100000ull}) {
        const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
        for (const std::size_t slices : {1u, 2u, 3u, 4u, 7u}) {
            std::size_t next = 0;
            for (std::size_t i = 0; i < slices; ++i) {
                const engine::ReducePlan::ShardRange range =
                    plan.slice(i, slices);
                EXPECT_EQ(range.first, next)
                    << count << " sliced " << i << "/" << slices;
                EXPECT_LE(range.first, range.last);
                next = range.last;
            }
            EXPECT_EQ(next, plan.shards());
        }
    }
    // More slices than shards: trailing slices are empty, never lost.
    const engine::ReducePlan tiny = engine::ReducePlan::for_count(2);
    std::size_t covered = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        covered += tiny.slice(i, 5).size();
    }
    EXPECT_EQ(covered, tiny.shards());
    // Bad slice specs are rejected.
    EXPECT_THROW((void)tiny.slice(5, 5), std::invalid_argument);
    EXPECT_THROW((void)tiny.slice(0, 0), std::invalid_argument);
}

TEST(ReducePlan, ArithmeticIsExactAtTheTopOfTheRange) {
    // count + kTargetShards - 1 would wrap here; the plan must still
    // partition [0, count) into at most kTargetShards shards.
    constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    for (const std::uint64_t count :
         {kMaxCampaignRuns, kTop - 300, kTop - 1, kTop}) {
        const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
        ASSERT_GE(plan.shard_size, 1u);
        EXPECT_EQ(plan.shards(), engine::ReducePlan::kTargetShards) << count;
        EXPECT_EQ(plan.shard_end(plan.shards() - 1), count);
        EXPECT_EQ(plan.runs({0, plan.shards()}), count);
    }
}

// ---------------------------------------------------------- campaign kinds

/// Toy accumulator recording the fold order — merge appends, so the
/// reduced order must be exactly 0..n-1 whatever the job count.
struct OrderAccumulator {
    std::vector<std::uint64_t> order;
    void fold(std::uint64_t i) { order.push_back(i); }
    void merge(const OrderAccumulator& other) {
        order.insert(order.end(), other.order.begin(), other.order.end());
    }
};

/// The smallest campaign kind: records run indices, simulates nothing.
struct OrderKind {
    using Accumulator = OrderAccumulator;
    static Accumulator init() { return {}; }
    static void fold(Accumulator& acc, const engine::CampaignInputs&,
                     std::uint64_t run) {
        acc.fold(run);
    }
};

MachineConfig test_config() { return MachineConfig::ngmp_ref(); }

Program test_scua() {
    return make_autobench(Autobench::kTblook, 0x0100'0000, 40, 2);
}

sched::CampaignWork toy_work(
    std::size_t runs,
    std::optional<engine::ReducePlan::ShardRange> range = std::nullopt) {
    sched::CampaignWork work;
    work.inputs.config = test_config();
    work.inputs.scua = test_scua();
    work.inputs.contenders = make_rsk_contenders(work.inputs.config,
                                                 OpKind::kLoad);
    work.inputs.protocol.runs = runs;
    work.range = range;
    return work;
}

/// One campaign of `kind` through the scheduler on a `jobs`-wide pool.
template <typename Kind>
engine::CampaignSlice<typename Kind::Accumulator> run_kind(
    std::size_t jobs, sched::CampaignWork work, Kind kind = {},
    engine::ProgressCounter* progress = nullptr) {
    engine::ThreadPool pool(jobs);
    sched::CampaignScheduler scheduler(pool);
    scheduler.add(std::move(work), std::move(kind));
    sched::CampaignScheduler::RunOptions options;
    options.runs = progress;
    scheduler.run(options);
    return scheduler.take<Kind>(0);
}

TEST(CampaignKind, FoldOrderIsRunOrderAtEveryJobCount) {
    for (const std::size_t jobs : {1u, 2u, 5u, 16u}) {
        const OrderAccumulator acc = engine::merge_in_order(
            run_kind(jobs, toy_work(1000), OrderKind{}).shards);
        ASSERT_EQ(acc.order.size(), 1000u) << "jobs = " << jobs;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            ASSERT_EQ(acc.order[i], i) << "jobs = " << jobs;
        }
    }
}

TEST(CampaignKind, SliceShardsEqualTheMonolithicFoldsAtEveryJobCount) {
    // Each shard accumulator is a pure function of (plan, shard, kind):
    // a slice computed alone must hold exactly the indices the
    // monolithic run folds into that shard, in the same order.
    const engine::ReducePlan plan = engine::ReducePlan::for_count(1000);
    const engine::ReducePlan::ShardRange range =
        plan.slice(1, 3);  // some interior slice
    for (const std::size_t jobs : {1u, 4u}) {
        const engine::CampaignSlice<OrderAccumulator> slice =
            run_kind(jobs, toy_work(1000, range), OrderKind{});
        ASSERT_EQ(slice.shards.size(), range.size());
        EXPECT_EQ(slice.first_shard, range.first);
        EXPECT_EQ(slice.first_run, plan.shard_begin(range.first));
        EXPECT_EQ(slice.last_run, plan.shard_end(range.last - 1));
        for (std::size_t s = 0; s < slice.shards.size(); ++s) {
            const std::size_t shard = range.first + s;
            ASSERT_EQ(slice.shards[s].order.size(),
                      plan.shard_end(shard) - plan.shard_begin(shard));
            for (std::size_t k = 0; k < slice.shards[s].order.size(); ++k) {
                ASSERT_EQ(slice.shards[s].order[k],
                          plan.shard_begin(shard) + k)
                    << "jobs " << jobs;
            }
        }
    }
}

TEST(CampaignKind, EmptyRangeYieldsNoShards) {
    const engine::CampaignSlice<OrderAccumulator> none =
        run_kind(2, toy_work(10, engine::ReducePlan::ShardRange{4, 4}),
                 OrderKind{});
    EXPECT_TRUE(none.shards.empty());
    EXPECT_EQ(none.first_run, none.last_run);
    EXPECT_GT(none.et_isolation, 0u);  // the baseline still runs
    engine::ThreadPool pool(1);
    sched::CampaignScheduler scheduler(pool);
    EXPECT_THROW(
        (void)scheduler.add(
            toy_work(10, engine::ReducePlan::ShardRange{4, 11}), OrderKind{}),
        std::invalid_argument);
}

/// The initial accumulator's configuration (here: block size) must
/// reach every shard-local copy.
struct BlockMaximaKind {
    using Accumulator = StreamingBlockMaxima;
    std::size_t block_size = 25;
    Accumulator init() const { return StreamingBlockMaxima(block_size); }
    static void fold(Accumulator& acc, const engine::CampaignInputs&,
                     std::uint64_t run) {
        acc.add(run, static_cast<double>(run % 17));
    }
};

TEST(CampaignKind, InitSeedsEveryShard) {
    const StreamingBlockMaxima acc = engine::merge_in_order(
        run_kind(4, toy_work(600), BlockMaximaKind{}).shards);
    EXPECT_EQ(acc.block_size(), 25u);
    EXPECT_EQ(acc.complete_blocks(), 24u);
}

struct ThrowingKind {
    using Accumulator = OrderAccumulator;
    static Accumulator init() { return {}; }
    static void fold(Accumulator& acc, const engine::CampaignInputs&,
                     std::uint64_t run) {
        if (run == 57) throw std::runtime_error("bad fold");
        acc.fold(run);
    }
};

TEST(CampaignKind, PropagatesFoldExceptions) {
    engine::ThreadPool pool(2);
    sched::CampaignScheduler scheduler(pool);
    scheduler.add(toy_work(100), ThrowingKind{});
    scheduler.run();
    EXPECT_TRUE(scheduler.status(0).failed);
    EXPECT_EQ(scheduler.status(0).error, "bad fold");
    EXPECT_THROW((void)scheduler.take<ThrowingKind>(0), std::runtime_error);
}

TEST(CampaignKind, ReportsProgressPerRun) {
    engine::ProgressCounter progress;
    progress.begin(500);  // the scheduler ticks; the caller announces
    (void)run_kind(3, toy_work(500), OrderKind{}, &progress);
    EXPECT_EQ(progress.total(), 500u);
    EXPECT_EQ(progress.completed(), 500u);
}

TEST(CampaignKind, TakeChecksTheKind) {
    engine::ThreadPool pool(1);
    sched::CampaignScheduler scheduler(pool);
    scheduler.add(toy_work(4), OrderKind{});
    scheduler.run();
    EXPECT_THROW((void)scheduler.take<ThrowingKind>(0),
                 std::invalid_argument);
}

// ------------------------------------------------------ pWCET campaigns

/// A pWCET campaign: the run protocol plus the statistical spec.
struct PwcetCase {
    HwmCampaignOptions protocol{.runs = 48, .seed = 7};
    PwcetSpec spec{.block_size = 8};
};

PwcetCase small_pwcet() { return {}; }

PwcetCampaignResult session_pwcet(const PwcetCase& opt, std::size_t jobs) {
    const MachineConfig cfg = test_config();
    Session session;
    session.jobs(jobs);
    const Scenario scenario =
        Scenario::on(cfg)
            .scua(test_scua())
            .contenders(make_rsk_contenders(cfg, OpKind::kLoad))
            .runs(opt.protocol.runs)
            .seed(opt.protocol.seed);
    return session.pwcet(scenario, opt.spec);
}

TEST(PwcetCampaign, BitIdenticalAtEveryJobCount) {
    const PwcetCampaignResult serial = session_pwcet(small_pwcet(), 1);

    for (const std::size_t jobs :
         {2u, 4u, static_cast<unsigned>(
                      engine::ThreadPool::default_jobs())}) {
        const PwcetCampaignResult parallel =
            session_pwcet(small_pwcet(), jobs);
        EXPECT_EQ(parallel.high_water_mark, serial.high_water_mark)
            << "jobs = " << jobs;
        EXPECT_EQ(parallel.low_water_mark, serial.low_water_mark);
        EXPECT_EQ(parallel.et_isolation, serial.et_isolation);
        EXPECT_EQ(parallel.nr, serial.nr);
        // Bit-identical floating point: the shard plan (and with it the
        // Chan merge tree) depends on runs, never on jobs.
        EXPECT_EQ(parallel.mean, serial.mean) << "jobs = " << jobs;
        EXPECT_EQ(parallel.stddev, serial.stddev);
        EXPECT_EQ(parallel.fit.mu, serial.fit.mu);
        EXPECT_EQ(parallel.fit.beta, serial.fit.beta);
        ASSERT_EQ(parallel.quantiles.size(), serial.quantiles.size());
        for (std::size_t q = 0; q < serial.quantiles.size(); ++q) {
            EXPECT_EQ(parallel.quantiles[q].pwcet,
                      serial.quantiles[q].pwcet);
        }
    }
}

TEST(PwcetCampaign, StreamedFitEqualsSerialBlockMaximaFit) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    const PwcetCase opt = small_pwcet();
    const std::size_t block_size = opt.spec.block_size;

    const PwcetCampaignResult streamed = session_pwcet(opt, 2);

    // The materializing reference: same run protocol, same seed.
    const HwmCampaignResult hwm =
        run_hwm_campaign(cfg, scua, contenders, opt.protocol);
    std::vector<double> times;
    times.reserve(hwm.exec_times.size());
    for (const Cycle t : hwm.exec_times) {
        times.push_back(static_cast<double>(t));
    }
    const GumbelFit reference =
        fit_gumbel(block_maxima(times, block_size));

    EXPECT_EQ(streamed.high_water_mark, hwm.high_water_mark);
    EXPECT_EQ(streamed.low_water_mark, hwm.low_water_mark);
    EXPECT_EQ(streamed.fit.mu, reference.mu);
    EXPECT_EQ(streamed.fit.beta, reference.beta);
    EXPECT_EQ(streamed.fit.sample_size, reference.sample_size);
    EXPECT_EQ(streamed.runs, opt.protocol.runs);
    EXPECT_EQ(streamed.blocks, opt.protocol.runs / block_size);
    // The memory contract: live state ~ runs/block_size, not ~ runs.
    EXPECT_LE(streamed.live_values, opt.protocol.runs / block_size + 1);
}

TEST(PwcetCampaign, Validates) {
    PwcetCase opt = small_pwcet();
    opt.protocol.runs = 0;
    EXPECT_THROW((void)session_pwcet(opt, 1), std::invalid_argument);
    opt = small_pwcet();
    opt.spec.block_size = 0;
    EXPECT_THROW((void)session_pwcet(opt, 1), std::invalid_argument);
    opt = small_pwcet();
    opt.spec.exceedance = {0.0};
    EXPECT_THROW((void)session_pwcet(opt, 1), std::invalid_argument);
    opt = small_pwcet();
    opt.protocol.runs = kMaxCampaignRuns + 1;
    EXPECT_THROW((void)session_pwcet(opt, 1), std::invalid_argument);
    // The scheduler validates on its own too, for callers below Session.
    engine::ThreadPool pool(1);
    sched::CampaignScheduler scheduler(pool);
    sched::CampaignWork no_contenders = toy_work(8);
    no_contenders.inputs.contenders.clear();
    EXPECT_THROW((void)scheduler.add(no_contenders, engine::PwcetKind{}),
                 std::invalid_argument);
    EXPECT_THROW((void)scheduler.add(toy_work(8), engine::PwcetKind{0, {}}),
                 std::invalid_argument);
}

/// The POT accumulator satisfies the campaign-accumulator concept, so a
/// three-line kind shards it with no engine changes.
struct PotKind {
    using Accumulator = StreamingPeaksOverThreshold;
    static double value(std::uint64_t i) {
        return static_cast<double>((i * 733) % 1000);
    }
    static Accumulator init() { return StreamingPeaksOverThreshold(600.0); }
    static void fold(Accumulator& acc, const engine::CampaignInputs&,
                     std::uint64_t run) {
        acc.add(run, value(run));
    }
};

TEST(CampaignKind, PeaksOverThresholdRidesTheSchedulerUnchanged) {
    // Exceedances arrive in run order at every job count.
    StreamingPeaksOverThreshold serial(600.0);
    for (std::uint64_t i = 0; i < 400; ++i) serial.add(i, PotKind::value(i));

    for (const std::size_t jobs : {1u, 4u}) {
        const StreamingPeaksOverThreshold sharded = engine::merge_in_order(
            run_kind(jobs, toy_work(400), PotKind{}).shards);
        EXPECT_EQ(sharded.count(), serial.count()) << "jobs " << jobs;
        EXPECT_EQ(sharded.exceedances(), serial.exceedances())
            << "jobs " << jobs;
    }
}

// -------------------------------------------------- white-box campaigns

TEST(WhiteboxCampaign, ShardedMergeEqualsSerialSingleThread) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    HwmCampaignOptions opt;
    opt.runs = 12;
    opt.seed = 5;

    // Serial reference: fold every run's measurement by hand.
    WhiteboxAccumulator serial;
    for (std::uint64_t run = 0; run < opt.runs; ++run) {
        serial.add(run, detail::hwm_campaign_measure(cfg, scua, contenders,
                                                     opt, run));
    }

    for (const std::size_t jobs : {1u, 4u}) {
        Session session;
        session.jobs(jobs);
        const engine::WhiteboxCampaignResult sharded =
            session.whitebox(Scenario::on(cfg)
                                 .scua(scua)
                                 .contenders(contenders)
                                 .runs(opt.runs)
                                 .seed(opt.seed));
        const WhiteboxAccumulator& stats = sharded.stats;
        EXPECT_EQ(stats.runs(), serial.runs()) << "jobs = " << jobs;
        EXPECT_EQ(stats.max_gamma(), serial.max_gamma());
        EXPECT_EQ(stats.gamma().buckets(), serial.gamma().buckets());
        EXPECT_EQ(stats.ready_contenders().buckets(),
                  serial.ready_contenders().buckets());
        EXPECT_EQ(stats.injection_delta().buckets(),
                  serial.injection_delta().buckets());
        EXPECT_EQ(stats.exec_times().values(),
                  serial.exec_times().values());
    }
}

TEST(WhiteboxCampaign, MeasureAgreesWithBlackBoxRun) {
    // The Measurement path must observe the exact execution time the
    // Cycle-only path reports — one protocol, two views.
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    HwmCampaignOptions opt;
    opt.runs = 4;
    opt.seed = 3;
    for (std::uint64_t run = 0; run < opt.runs; ++run) {
        const Measurement m = detail::hwm_campaign_measure(
            cfg, scua, contenders, opt, run);
        EXPECT_EQ(m.exec_time, detail::hwm_campaign_run(cfg, scua,
                                                        contenders, opt,
                                                        run));
        EXPECT_FALSE(m.gamma.empty());
    }
}

}  // namespace
}  // namespace rrb
