// Tests of the Scenario/Session facade: fluent building, contender
// policy re-derivation, legacy-wrapper equivalence (bit-identical at
// every jobs value), and config sweeps whose grid points equal
// standalone campaigns.
#include "core/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "engine/progress.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "sched/campaign_scheduler.h"

namespace rrb {
namespace {

Program test_scua() {
    return make_autobench(Autobench::kTblook, 0x0100'0000, 40, 2);
}

Scenario small_scenario(std::uint64_t seed = 7, std::size_t runs = 6) {
    return Scenario::on(MachineConfig::ngmp_ref())
        .scua(test_scua())
        .rsk_contenders(OpKind::kLoad)
        .runs(runs)
        .seed(seed);
}

// ------------------------------------------------------------ Scenario

TEST(Scenario, FluentBuildersFillTheProtocol) {
    const Scenario s = Scenario::on(MachineConfig::ngmp_ref())
                           .scua(test_scua())
                           .runs(123)
                           .seed(9)
                           .max_start_delay(41)
                           .max_cycles(5'000'000);
    EXPECT_EQ(s.run_protocol().runs, 123u);
    EXPECT_EQ(s.run_protocol().seed, 9u);
    EXPECT_EQ(s.run_protocol().max_start_delay, 41u);
    EXPECT_EQ(s.run_protocol().max_cycles_per_run, 5'000'000u);
    EXPECT_TRUE(s.has_scua());
}

TEST(Scenario, DefaultContenderPolicyIsLoadRsk) {
    const Scenario s = small_scenario();
    const std::vector<Program> expected =
        make_rsk_contenders(s.config(), OpKind::kLoad);
    const std::vector<Program> actual = s.contender_programs();
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_FALSE(actual.empty());
    EXPECT_EQ(actual[0].body.size(),
              expected[0].body.size());
}

TEST(Scenario, RskPolicyRederivesOnRetarget) {
    // The rsk kernel is built against the config's DL1 geometry (W+1
    // loads per set), so re-targeting at a platform with a different
    // DL1 must rebuild it — which the policy does and an explicit
    // contender list must not.
    const Scenario base = small_scenario();
    MachineConfig other = MachineConfig::ngmp_ref();
    other.core.dl1_geometry.ways = 8;  // W+1 = 9 loads per group
    const Scenario re = base.with_config(other);
    const std::vector<Program> expected =
        make_rsk_contenders(other, OpKind::kLoad);
    ASSERT_EQ(re.contender_programs().size(), expected.size());
    EXPECT_EQ(re.contender_programs()[0].body.size(),
              expected[0].body.size());
    EXPECT_NE(re.contender_programs()[0].body.size(),
              base.contender_programs()[0].body.size());
    // The protocol rides along unchanged.
    EXPECT_EQ(re.run_protocol().seed, base.run_protocol().seed);
}

TEST(Scenario, ExplicitContendersSurviveRetarget) {
    const std::vector<Program> fixed = {test_scua()};
    const Scenario s = small_scenario().contenders(fixed);
    const Scenario re = s.with_config(MachineConfig::scaled(8, 9));
    EXPECT_EQ(re.contender_programs().size(), 1u);
}

TEST(Scenario, ValidateRejectsIncompleteScenarios) {
    EXPECT_THROW(Scenario::on(MachineConfig::ngmp_ref()).validate(),
                 std::invalid_argument);  // no scua
    EXPECT_THROW(small_scenario().runs(0).validate(),
                 std::invalid_argument);
    EXPECT_THROW(
        small_scenario().contenders({}).validate(),
        std::invalid_argument);
}

// ----------------------------------------- Session vs legacy campaigns

TEST(Session, HwmIsBitIdenticalToLegacyCampaignAcrossSeedsAndJobs) {
    // Property over (seed, runs): the facade, the legacy free function
    // and a hand-rolled serial fold of the shared run primitive all
    // observe the same numbers — at one worker and at four.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);

    for (const std::uint64_t seed : {1ull, 23ull}) {
        for (const std::size_t runs : {4u, 7u}) {
            HwmCampaignOptions opt;
            opt.runs = runs;
            opt.seed = seed;

            // Independent serial reference.
            std::vector<Cycle> reference;
            for (std::uint64_t run = 0; run < runs; ++run) {
                reference.push_back(detail::hwm_campaign_run(
                    cfg, scua, contenders, opt, run));
            }

            const HwmCampaignResult legacy =
                run_hwm_campaign(cfg, scua, contenders, opt);
            EXPECT_EQ(legacy.exec_times, reference)
                << "seed " << seed << " runs " << runs;

            for (const std::size_t jobs : {1u, 4u}) {
                Session session;
                session.jobs(jobs);
                const HwmCampaignResult facade = session.hwm(
                    Scenario::on(cfg).scua(scua).contenders(contenders)
                        .protocol(opt));
                EXPECT_EQ(facade.exec_times, reference)
                    << "seed " << seed << " runs " << runs << " jobs "
                    << jobs;
                EXPECT_EQ(facade.high_water_mark, legacy.high_water_mark);
                EXPECT_EQ(facade.low_water_mark, legacy.low_water_mark);
                EXPECT_EQ(facade.et_isolation, legacy.et_isolation);
                EXPECT_EQ(facade.nr, legacy.nr);
            }
        }
    }
}

/// The scenario as one campaign of `kind` on a one-worker scheduler —
/// the layer every Session campaign entry point lowers to.
template <typename Kind>
typename Kind::Result scheduled(const Scenario& scenario, const Kind& kind) {
    engine::ThreadPool pool(1);
    sched::CampaignScheduler scheduler(pool);
    sched::CampaignWork work;
    work.inputs.config = scenario.config();
    work.inputs.scua = scenario.scua_program();
    work.inputs.contenders = scenario.contender_programs();
    work.inputs.protocol = scenario.run_protocol();
    scheduler.add(std::move(work), kind);
    scheduler.run();
    return engine::finalize(kind, scheduler.take<Kind>(0));
}

TEST(Session, PwcetMatchesSchedulerCampaign) {
    const Scenario scenario = small_scenario(/*seed=*/7, /*runs=*/48);
    PwcetSpec spec;
    spec.block_size = 8;
    spec.exceedance = {1e-6};

    Session session;
    session.jobs(4);
    const PwcetCampaignResult facade = session.pwcet(scenario, spec);
    const PwcetCampaignResult engine = scheduled(
        scenario, engine::PwcetKind{spec.block_size, spec.exceedance});

    EXPECT_EQ(facade.high_water_mark, engine.high_water_mark);
    EXPECT_EQ(facade.mean, engine.mean);
    EXPECT_EQ(facade.stddev, engine.stddev);
    EXPECT_EQ(facade.fit.mu, engine.fit.mu);
    EXPECT_EQ(facade.fit.beta, engine.fit.beta);
    ASSERT_EQ(facade.quantiles.size(), engine.quantiles.size());
    EXPECT_EQ(facade.quantiles[0].pwcet, engine.quantiles[0].pwcet);
}

TEST(Session, WhiteboxMatchesSchedulerCampaign) {
    const Scenario scenario = small_scenario(/*seed=*/5, /*runs=*/8);
    Session session;
    session.jobs(2);
    const engine::WhiteboxCampaignResult facade =
        session.whitebox(scenario);
    const engine::WhiteboxCampaignResult reference =
        scheduled(scenario, engine::WhiteboxKind{});
    EXPECT_EQ(facade.stats.runs(), reference.stats.runs());
    EXPECT_EQ(facade.stats.max_gamma(), reference.stats.max_gamma());
    EXPECT_EQ(facade.stats.exec_times().values(),
              reference.stats.exec_times().values());
}

TEST(Session, SingleRunEntryPointsMatchTheFreeFunctions) {
    const Scenario scenario = small_scenario();
    const Session session;
    const Measurement isol = session.isolation(scenario);
    const Measurement ref = run_isolation(
        scenario.config(), scenario.scua_program(), 0,
        scenario.run_protocol().max_cycles_per_run);
    EXPECT_EQ(isol.exec_time, ref.exec_time);
    EXPECT_EQ(isol.bus_requests, ref.bus_requests);

    const SlowdownResult slow = session.slowdown(scenario);
    EXPECT_EQ(slow.isolation.exec_time, isol.exec_time);
    EXPECT_GE(slow.contention.exec_time, slow.isolation.exec_time);
}

TEST(Session, JobsBudgetIsFrozenByTheFirstCampaign) {
    Session session;
    session.jobs(2);
    (void)session.hwm(small_scenario());
    EXPECT_THROW(session.jobs(4), std::invalid_argument);
}

// ---------------------------------------------------------------- sweep

TEST(Session, SweepEnumeratesTheCrossProductInAxisOrder) {
    const Scenario scenario = small_scenario(/*seed=*/3, /*runs=*/4);
    SweepAxes axes;
    axes.cores = {2, 4};
    axes.lbus = {5, 9};
    EXPECT_EQ(axes.points(), 4u);

    engine::ProgressCounter progress;
    Session session;
    session.jobs(2).progress(&progress);
    const SweepResult sweep = session.sweep(scenario, axes);

    ASSERT_EQ(sweep.points.size(), 4u);
    // cores-major, then lbus.
    EXPECT_EQ(sweep.points[0].cores, 2u);
    EXPECT_EQ(sweep.points[0].lbus, 5u);
    EXPECT_EQ(sweep.points[1].cores, 2u);
    EXPECT_EQ(sweep.points[1].lbus, 9u);
    EXPECT_EQ(sweep.points[3].cores, 4u);
    EXPECT_EQ(sweep.points[3].lbus, 9u);
    // Axis values landed in the derived configs.
    EXPECT_EQ(sweep.points[0].config.num_cores, 2u);
    EXPECT_EQ(sweep.points[0].config.load_hit_service(), 5u);
    // Progress ticked per grid point.
    EXPECT_EQ(progress.total(), 4u);
    EXPECT_EQ(progress.completed(), 4u);
}

TEST(Session, SweepGridPointEqualsStandalonePwcet) {
    // Each grid point must be bit-identical to a standalone streamed
    // campaign at the same config, protocol and spec — nesting on the
    // shared pool is an execution detail, never a statistics change.
    const Scenario scenario = small_scenario(/*seed=*/11, /*runs=*/32);
    PwcetSpec spec;
    spec.block_size = 8;
    spec.exceedance = {1e-3, 1e-6};
    SweepAxes axes;
    axes.cores = {2, 4};
    axes.lbus = {5};

    Session sweep_session;
    sweep_session.jobs(4);
    const SweepResult sweep = sweep_session.sweep(scenario, axes, spec);
    ASSERT_EQ(sweep.points.size(), 2u);

    for (const SweepPoint& point : sweep.points) {
        Session standalone;
        standalone.jobs(1);
        const PwcetCampaignResult reference = standalone.pwcet(
            scenario.with_config(point.config), spec);
        EXPECT_EQ(point.result.high_water_mark, reference.high_water_mark);
        EXPECT_EQ(point.result.low_water_mark, reference.low_water_mark);
        EXPECT_EQ(point.result.et_isolation, reference.et_isolation);
        EXPECT_EQ(point.result.nr, reference.nr);
        EXPECT_EQ(point.result.mean, reference.mean);
        EXPECT_EQ(point.result.stddev, reference.stddev);
        EXPECT_EQ(point.result.fit.mu, reference.fit.mu);
        EXPECT_EQ(point.result.fit.beta, reference.fit.beta);
        ASSERT_EQ(point.result.quantiles.size(),
                  reference.quantiles.size());
        for (std::size_t q = 0; q < reference.quantiles.size(); ++q) {
            EXPECT_EQ(point.result.quantiles[q].pwcet,
                      reference.quantiles[q].pwcet);
        }
    }
}

TEST(Session, SweepIsBitIdenticalAtEveryJobsValue) {
    const Scenario scenario = small_scenario(/*seed=*/13, /*runs=*/16);
    PwcetSpec spec;
    spec.block_size = 4;
    SweepAxes axes;
    axes.cores = {2, 4};

    Session serial;
    serial.jobs(1);
    const SweepResult reference = serial.sweep(scenario, axes, spec);

    for (const std::size_t jobs : {2u, 8u}) {
        Session session;
        session.jobs(jobs);
        const SweepResult sweep = session.sweep(scenario, axes, spec);
        ASSERT_EQ(sweep.points.size(), reference.points.size());
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            EXPECT_EQ(sweep.points[i].result.high_water_mark,
                      reference.points[i].result.high_water_mark)
                << "jobs " << jobs << " point " << i;
            EXPECT_EQ(sweep.points[i].result.mean,
                      reference.points[i].result.mean);
            EXPECT_EQ(sweep.points[i].result.fit.mu,
                      reference.points[i].result.fit.mu);
        }
    }
}

TEST(Session, SweepArbiterAxisBuildsValidConfigs) {
    const Scenario scenario = small_scenario(/*seed=*/2, /*runs=*/4);
    SweepAxes axes;
    axes.arbiters = {ArbiterKind::kRoundRobin, ArbiterKind::kTdma,
                     ArbiterKind::kWeightedRoundRobin};
    Session session;
    session.jobs(2);
    const SweepResult sweep = session.sweep(scenario, axes);
    ASSERT_EQ(sweep.points.size(), 3u);
    EXPECT_EQ(sweep.points[0].arbiter, ArbiterKind::kRoundRobin);
    EXPECT_EQ(sweep.points[1].arbiter, ArbiterKind::kTdma);
    EXPECT_EQ(sweep.points[2].arbiter, ArbiterKind::kWeightedRoundRobin);
    for (const SweepPoint& point : sweep.points) {
        EXPECT_EQ(point.result.runs, 4u);
        EXPECT_GT(point.result.high_water_mark, 0u);
    }
}

}  // namespace
}  // namespace rrb
