// Tests of the parallel campaign engine: deterministic sharding, ordered
// grid collection, exception propagation and progress accounting.
#include "engine/campaign_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/progress.h"
#include "engine/seed_sequence.h"
#include "engine/thread_pool.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"

namespace rrb {
namespace {

// ------------------------------------------------------------- seeds

TEST(SeedSequence, IsAPureFunctionOfRootAndIndex) {
    const engine::SeedSequence a(42);
    const engine::SeedSequence b(42);
    // Query in different orders: values depend only on the index.
    EXPECT_EQ(a.seed_for(7), b.seed_for(7));
    EXPECT_EQ(a.seed_for(0), b.seed_for(0));
    EXPECT_EQ(a.seed_for(7), a.seed_for(7));
}

TEST(SeedSequence, DistinctIndicesAndRootsGiveDistinctSeeds) {
    std::set<std::uint64_t> seen;
    for (const std::uint64_t root : {0ull, 1ull, 42ull, ~0ull}) {
        const engine::SeedSequence seq(root);
        for (std::uint64_t i = 0; i < 64; ++i) {
            EXPECT_TRUE(seen.insert(seq.seed_for(i)).second)
                << "collision at root " << root << " index " << i;
        }
    }
}

TEST(SeedSequence, DeriveSeedsMatchesSeedFor) {
    const engine::SeedSequence seq(9);
    const std::vector<std::uint64_t> block = engine::derive_seeds(9, 5);
    ASSERT_EQ(block.size(), 5u);
    for (std::size_t i = 0; i < block.size(); ++i) {
        EXPECT_EQ(block[i], seq.seed_for(i));
    }
}

// -------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryJob) {
    engine::ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, BoundedQueueDoesNotDeadlock) {
    engine::ThreadPool pool(2, /*max_queued=*/4);
    std::atomic<int> count{0};
    for (int i = 0; i < 64; ++i) {  // far more than the queue bound
        pool.submit([&count] { ++count; });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PropagatesTheFirstJobException) {
    engine::ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("job failed"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The error is consumed: the pool is reusable afterwards.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RejectsEmptyJobs) {
    engine::ThreadPool pool(1);
    EXPECT_THROW(pool.submit(nullptr), std::invalid_argument);
}

TEST(ThreadPool, DefaultJobsIsAtLeastOne) {
    EXPECT_GE(engine::ThreadPool::default_jobs(), 1u);
}

TEST(EffectiveJobs, ResolvesZeroAndClampsToWork) {
    EXPECT_EQ(engine::effective_jobs(0, 1000),
              engine::ThreadPool::default_jobs());
    EXPECT_EQ(engine::effective_jobs(8, 3), 3u);
    EXPECT_EQ(engine::effective_jobs(2, 1000), 2u);
    EXPECT_EQ(engine::effective_jobs(8, 0), 1u);
}

// ----------------------------------------------------------- progress

TEST(Progress, CountsMonotonicallyToTotal) {
    engine::ProgressCounter progress;
    progress.begin(10);
    EXPECT_EQ(progress.completed(), 0u);
    EXPECT_FALSE(progress.done());
    std::size_t last = 0;
    for (int i = 0; i < 10; ++i) {
        progress.tick();
        EXPECT_GT(progress.completed(), last);  // strictly monotonic here
        last = progress.completed();
    }
    EXPECT_TRUE(progress.done());
    EXPECT_DOUBLE_EQ(progress.fraction(), 1.0);
    EXPECT_EQ(engine::render_progress(progress), "10/10 (100%)");
}

TEST(Progress, ConcurrentTicksNeverExceedTotal) {
    engine::ProgressCounter progress;
    progress.begin(80);
    engine::ThreadPool pool(4);
    for (int i = 0; i < 80; ++i) {
        pool.submit([&progress] { progress.tick(); });
    }
    pool.wait_idle();
    EXPECT_EQ(progress.completed(), 80u);
    EXPECT_TRUE(progress.done());
}

TEST(Progress, EmptyBatchIsDone) {
    engine::ProgressCounter progress;
    progress.begin(0);
    EXPECT_TRUE(progress.done());
    EXPECT_DOUBLE_EQ(progress.fraction(), 1.0);
}

// ---------------------------------------------------------------- grid

TEST(RunGrid, EmptyGridReturnsEmpty) {
    const std::vector<int> points;
    const auto results =
        engine::run_grid(points, [](const int x) { return x * 2; });
    EXPECT_TRUE(results.empty());
}

TEST(RunGrid, CollectsResultsInGridOrder) {
    std::vector<int> points;
    for (int i = 0; i < 50; ++i) points.push_back(i);
    engine::EngineOptions eng;
    eng.jobs = 4;
    const auto results = engine::run_grid(
        points,
        [](const int x) {
            // Stagger finish order so out-of-order completion would show.
            if (x % 7 == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            return x * 3;
        },
        eng);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i) * 3);
    }
}

TEST(RunGrid, PropagatesPointExceptions) {
    std::vector<int> points = {0, 1, 2, 3};
    engine::EngineOptions eng;
    eng.jobs = 2;
    EXPECT_THROW(
        (void)engine::run_grid(
            points,
            [](const int x) {
                if (x == 2) throw std::runtime_error("bad grid point");
                return x;
            },
            eng),
        std::runtime_error);
}

TEST(RunGrid, ReportsProgress) {
    std::vector<int> points = {1, 2, 3, 4, 5};
    engine::ProgressCounter progress;
    engine::EngineOptions eng;
    eng.jobs = 2;
    eng.progress = &progress;
    (void)engine::run_grid(points, [](const int x) { return x; }, eng);
    EXPECT_EQ(progress.total(), 5u);
    EXPECT_EQ(progress.completed(), 5u);
}

// ------------------------------------------------- campaign determinism

HwmCampaignOptions small_campaign() {
    HwmCampaignOptions opt;
    opt.runs = 6;
    opt.seed = 7;
    return opt;
}

Scenario campaign_scenario(const MachineConfig& cfg, const Program& scua,
                           std::vector<Program> contenders,
                           const HwmCampaignOptions& opt) {
    return Scenario::on(cfg)
        .scua(scua)
        .contenders(std::move(contenders))
        .protocol(opt);
}

TEST(CampaignEngine, ParallelMatchesSerialAtEveryJobCount) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kTblook, 0x0100'0000, 60, 5);
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);

    // The serial reference, run by hand in run order.
    std::vector<Cycle> serial;
    for (std::uint64_t run = 0; run < small_campaign().runs; ++run) {
        serial.push_back(detail::hwm_campaign_run(cfg, scua, contenders,
                                                  small_campaign(), run));
    }
    const HwmCampaignResult legacy =
        run_hwm_campaign(cfg, scua, contenders, small_campaign());
    EXPECT_EQ(legacy.exec_times, serial);
    for (const std::size_t jobs : {1u, 2u, 3u, 8u}) {
        Session session;
        session.jobs(jobs);
        const HwmCampaignResult parallel = session.hwm(
            campaign_scenario(cfg, scua, contenders, small_campaign()));
        EXPECT_EQ(parallel.exec_times, serial) << "jobs = " << jobs;
        EXPECT_EQ(parallel.high_water_mark, legacy.high_water_mark);
        EXPECT_EQ(parallel.low_water_mark, legacy.low_water_mark);
        EXPECT_EQ(parallel.et_isolation, legacy.et_isolation);
        EXPECT_EQ(parallel.nr, legacy.nr);
    }
}

TEST(CampaignEngine, RunsAreIndependentOfExecutionOrder) {
    // detail::hwm_campaign_run is a pure function of (inputs, run index):
    // evaluating run 3 before run 0 gives the same numbers.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCanrdr, 0x0100'0000, 40, 2);
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    const HwmCampaignOptions opt = small_campaign();
    const Cycle run3_first =
        detail::hwm_campaign_run(cfg, scua, contenders, opt, 3);
    const Cycle run0 = detail::hwm_campaign_run(cfg, scua, contenders, opt, 0);
    const Cycle run3_again =
        detail::hwm_campaign_run(cfg, scua, contenders, opt, 3);
    EXPECT_EQ(run3_first, run3_again);
    EXPECT_NE(run0, 0u);
}

TEST(CampaignEngine, ValidatesLikeSerial) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams p;
    const Program scua = make_rsk(p);
    HwmCampaignOptions opt;
    opt.runs = 0;
    Session session;
    EXPECT_THROW(
        (void)session.hwm(campaign_scenario(cfg, scua, {scua}, opt)),
        std::invalid_argument);
    EXPECT_THROW((void)session.hwm(campaign_scenario(cfg, scua, {}, {})),
                 std::invalid_argument);
}

TEST(CampaignEngine, ProgressCoversEveryRun) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCanrdr, 0x0100'0000, 40, 2);
    engine::ProgressCounter progress;
    Session session;
    session.jobs(2).progress(&progress);
    (void)session.hwm(campaign_scenario(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad),
        small_campaign()));
    EXPECT_EQ(progress.total(), small_campaign().runs);
    EXPECT_EQ(progress.completed(), small_campaign().runs);
}

// -------------------------------------------------- slowdown edge case

TEST(HwmCampaignResult, SlowdownClampsWhenHwmBelowIsolation) {
    HwmCampaignResult r;
    r.et_isolation = 1000;
    r.high_water_mark = 900;  // below isolation: must not wrap negative
    r.nr = 10;
    EXPECT_DOUBLE_EQ(r.hwm_slowdown_per_request(), 0.0);
    r.high_water_mark = 1000;  // equal: zero slowdown
    EXPECT_DOUBLE_EQ(r.hwm_slowdown_per_request(), 0.0);
    r.high_water_mark = 1270;
    EXPECT_DOUBLE_EQ(r.hwm_slowdown_per_request(), 27.0);
}

// -------------------------------------------------------- grid rewires

TEST(SlowdownGrid, MatchesSerialRunSlowdown) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const std::vector<Program> scuas = {
        make_autobench(Autobench::kCanrdr, 0x0100'0000, 30, 2),
        make_autobench(Autobench::kTblook, 0x0200'0000, 30, 3),
    };
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    const std::vector<SlowdownResult> grid =
        run_slowdown_grid(cfg, scuas, contenders, /*jobs=*/2);
    ASSERT_EQ(grid.size(), scuas.size());
    for (std::size_t i = 0; i < scuas.size(); ++i) {
        const SlowdownResult serial =
            run_slowdown(cfg, scuas[i], contenders);
        EXPECT_EQ(grid[i].isolation.exec_time, serial.isolation.exec_time);
        EXPECT_EQ(grid[i].contention.exec_time, serial.contention.exec_time);
        EXPECT_EQ(grid[i].isolation.bus_requests,
                  serial.isolation.bus_requests);
    }
}

}  // namespace
}  // namespace rrb
