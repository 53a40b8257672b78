// Differential harness for the hot-path simulator (PR 5).
//
// The production campaign path — per-worker machine reuse
// (engine::MachineLease + Machine::reset_keep_programs), POD completion
// tokens, and event-driven cycle skipping — must be *bit-identical* to
// the semantics it replaced: a fresh Machine per run stepped cycle by
// cycle. These tests run both paths over a grid of configurations
// (ref/var platforms, 1–4 cores, every arbiter, DRAM-heavy and
// store-heavy kernels, refresh on/off), seeds and start delays, and
// compare finish cycles, the full black-box/white-box Measurement
// (PMCs and histograms), and per-core stall counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/machine_lease.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "machine/machine.h"

namespace rrb {
namespace {

/// The pre-optimization reference semantics: fresh machine, naive
/// cycle-by-cycle stepping, full program loads.
Measurement reference_measure(const MachineConfig& config,
                              const Program& scua,
                              const std::vector<Program>& contenders,
                              const HwmCampaignOptions& options,
                              std::uint64_t run_index) {
    Machine machine(config);
    machine.set_cycle_skipping(false);
    std::uint64_t no_campaign = 0;
    const Cycle finish = detail::execute_campaign_run(
        machine, no_campaign, scua, contenders, options, run_index);
    return detail::snapshot_measurement(machine, 0, finish,
                                        /*deadline_reached=*/false);
}

void expect_same_histogram(const Histogram& a, const Histogram& b,
                           const std::string& what) {
    EXPECT_EQ(a.total(), b.total()) << what;
    EXPECT_EQ(a.buckets(), b.buckets()) << what;
}

void expect_same_measurement(const Measurement& hot, const Measurement& ref,
                             const std::string& what) {
    EXPECT_EQ(hot.exec_time, ref.exec_time) << what;
    EXPECT_EQ(hot.bus_requests, ref.bus_requests) << what;
    // Doubles must be bit-equal: both sides compute the same integer
    // ratios in the same order.
    EXPECT_EQ(hot.bus_utilization, ref.bus_utilization) << what;
    EXPECT_EQ(hot.scua_bus_share, ref.scua_bus_share) << what;
    EXPECT_EQ(hot.max_gamma, ref.max_gamma) << what;
    expect_same_histogram(hot.gamma, ref.gamma, what + " gamma");
    expect_same_histogram(hot.ready_contenders, ref.ready_contenders,
                          what + " ready_contenders");
    expect_same_histogram(hot.injection_delta, ref.injection_delta,
                          what + " injection_delta");
    EXPECT_EQ(hot.deadline_reached, ref.deadline_reached) << what;
}

struct GridPoint {
    std::string name;
    MachineConfig config;
};

std::vector<GridPoint> config_grid() {
    std::vector<GridPoint> grid;
    grid.push_back({"ngmp_ref", MachineConfig::ngmp_ref()});
    grid.push_back({"ngmp_var", MachineConfig::ngmp_var()});
    grid.push_back({"scaled_2x5", MachineConfig::scaled(2, 5)});
    grid.push_back({"textbook", MachineConfig::textbook()});
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kTdma;  // non-work-conserving skipping
        grid.push_back({"tdma", cfg});
    }
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kFixedPriority;
        grid.push_back({"fixed", cfg});
    }
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kWeightedRoundRobin;
        cfg.wrr_weights = {3, 1, 1, 1};
        grid.push_back({"wrr", cfg});
    }
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.dram.refresh_interval = 1560;  // refresh boundaries vs skip
        cfg.dram.refresh_duration = 26;
        grid.push_back({"refresh", cfg});
    }
    return grid;
}

/// Scuas chosen to exercise distinct hot-path machinery: L2-hit loads
/// (cacheb), nop/alu batching (a2time), the DRAM split-transaction path
/// (a 256KB walk misses the 64KB L2 partition), and the store drain /
/// full-buffer / load-gate stalls (store rsk with interleaved loads).
std::vector<Program> scua_set() {
    std::vector<Program> scuas;
    scuas.push_back(make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9));
    scuas.push_back(make_autobench(Autobench::kA2time, 0x0100'0000, 10, 3));
    scuas.push_back(ProgramBuilder("dram-walk")
                        .load(AddrPattern::stride(0x0200'0000, 32,
                                                  256 * 1024))
                        .nop(2)
                        .iterations(300)
                        .build());
    {
        RskParams params;
        params.access = OpKind::kStore;
        params.unroll = 2;
        params.iterations = 25;
        Program store_heavy = make_rsk(params);
        // A trailing load closes the store buffer gate every pass.
        store_heavy.body.push_back(
            {OpKind::kLoad, 1, AddrPattern::fixed(0x0030'0000)});
        store_heavy.name = "store-heavy";
        scuas.push_back(store_heavy);
    }
    return scuas;
}

TEST(HotPathDifferential, GridIsBitIdenticalToFreshNaiveReference) {
    for (const GridPoint& point : config_grid()) {
        const std::vector<Program> contenders =
            make_rsk_contenders(point.config, OpKind::kLoad);
        for (const Program& scua : scua_set()) {
            for (const std::uint64_t seed : {1ULL, 7ULL}) {
                HwmCampaignOptions options;
                options.runs = 3;
                options.seed = seed;
                options.max_start_delay = 997;
                for (std::uint64_t run = 0; run < options.runs; ++run) {
                    const std::string what = point.name + "/" + scua.name +
                                             "/seed" +
                                             std::to_string(seed) + "/run" +
                                             std::to_string(run);
                    // Production: leased machine (reset_keep_programs on
                    // repeat runs) + cycle skipping + POD tokens.
                    const Measurement hot = detail::hwm_campaign_measure(
                        point.config, scua, contenders, options, run);
                    const Measurement ref = reference_measure(
                        point.config, scua, contenders, options, run);
                    expect_same_measurement(hot, ref, what);
                }
            }
        }
    }
}

TEST(HotPathDifferential, StallCountersMatchNaivePath) {
    // Stall PMCs (full store buffer, load gate) charge per cycle; the
    // skipper must observe every one of those cycles. Drive a reused
    // skipping machine and fresh naive machines over the same runs and
    // compare the whole per-core counter set.
    const MachineConfig config = MachineConfig::ngmp_ref();
    RskParams params;
    params.access = OpKind::kStore;
    params.unroll = 2;
    params.iterations = 30;
    Program scua = make_rsk(params);
    scua.body.push_back({OpKind::kLoad, 1, AddrPattern::fixed(0x0030'0000)});
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kStore);
    HwmCampaignOptions options;
    options.runs = 4;

    Machine hot(config);  // reused across runs, skipping on (default)
    std::uint64_t hot_campaign = 0;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        const Cycle hot_finish = detail::execute_campaign_run(
            hot, hot_campaign, scua, contenders, options, run);

        Machine ref(config);
        ref.set_cycle_skipping(false);
        std::uint64_t ref_campaign = 0;
        const Cycle ref_finish = detail::execute_campaign_run(
            ref, ref_campaign, scua, contenders, options, run);

        EXPECT_EQ(hot_finish, ref_finish) << "run " << run;
        for (CoreId c = 0; c < config.num_cores; ++c) {
            const CoreStats& hs = hot.core(c).stats();
            const CoreStats& rs = ref.core(c).stats();
            const std::string what =
                "run " + std::to_string(run) + " core " + std::to_string(c);
            EXPECT_EQ(hs.instructions, rs.instructions) << what;
            EXPECT_EQ(hs.loads, rs.loads) << what;
            EXPECT_EQ(hs.stores, rs.stores) << what;
            EXPECT_EQ(hs.nops, rs.nops) << what;
            EXPECT_EQ(hs.load_miss_requests, rs.load_miss_requests) << what;
            EXPECT_EQ(hs.ifetch_requests, rs.ifetch_requests) << what;
            EXPECT_EQ(hs.store_drains, rs.store_drains) << what;
            EXPECT_EQ(hs.store_full_stall_cycles, rs.store_full_stall_cycles)
                << what;
            EXPECT_EQ(hs.load_gate_stall_cycles, rs.load_gate_stall_cycles)
                << what;
            expect_same_histogram(hs.load_injection_delta,
                                  rs.load_injection_delta, what);
        }
    }
}

TEST(HotPathDifferential, CampaignHwmsMatchAtEveryJobCount) {
    // End to end through the engine: the campaign's exec-time vector and
    // HWM/LWM are identical to a loop of naive-reference runs, at jobs 1
    // and 4 (worker count must never leak into the numbers).
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = make_autobench(Autobench::kCacheb, 0x0100'0000,
                                        15, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 8;
    options.seed = 5;

    std::vector<Cycle> reference;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        reference.push_back(
            reference_measure(config, scua, contenders, options, run)
                .exec_time);
    }

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        Session session;
        session.jobs(jobs);
        const HwmCampaignResult result = session.hwm(
            Scenario::on(config).scua(scua).contenders(contenders).protocol(
                options));
        EXPECT_EQ(result.exec_times, reference) << "jobs " << jobs;
    }
}

TEST(MachineReset, RunAfterResetEqualsFreshMachineRun) {
    // State-leak probe: run program A, reset, run program B — every
    // observable of the B run must equal a fresh machine's B run.
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program a = make_autobench(Autobench::kCacheb, 0x0100'0000, 10, 9);
    const Program b = make_autobench(Autobench::kTblook, 0x0200'0000, 10, 3);

    Machine reused(config);
    reused.load_program(0, a);
    reused.warm_static_footprint(0);
    ASSERT_NE(reused.run_core(0), kNoCycle);

    reused.reset();
    reused.load_program(0, b);
    reused.warm_static_footprint(0);
    const Cycle reused_finish = reused.run_core(0);

    Machine fresh(config);
    fresh.load_program(0, b);
    fresh.warm_static_footprint(0);
    const Cycle fresh_finish = fresh.run_core(0);

    EXPECT_EQ(reused_finish, fresh_finish);
    const Measurement mr = detail::snapshot_measurement(reused, 0,
                                                        reused_finish, false);
    const Measurement mf = detail::snapshot_measurement(fresh, 0,
                                                        fresh_finish, false);
    expect_same_measurement(mr, mf, "post-reset run B");
    // Cache statistics too: a leaked line would show up as a hit delta.
    EXPECT_EQ(reused.l2().stats(0).read_hits, fresh.l2().stats(0).read_hits);
    EXPECT_EQ(reused.l2().stats(0).read_misses,
              fresh.l2().stats(0).read_misses);
    EXPECT_EQ(reused.core(0).il1().stats().read_hits,
              fresh.core(0).il1().stats().read_hits);
    EXPECT_EQ(reused.core(0).dl1().stats().read_misses,
              fresh.core(0).dl1().stats().read_misses);
    EXPECT_EQ(reused.dram().stats().reads, fresh.dram().stats().reads);
}

TEST(MachineReset, ResetForgetsPrograms) {
    Machine machine(MachineConfig::ngmp_ref());
    machine.load_program(0, ProgramBuilder("n").nop(4).iterations(2).build());
    ASSERT_NE(machine.run_core(0), kNoCycle);
    machine.reset();
    EXPECT_EQ(machine.now(), 0u);
    EXPECT_THROW(machine.run_core(0), std::invalid_argument);
    EXPECT_THROW(machine.restart_program(0), std::invalid_argument);
}

TEST(MachineLease, ReusesOneMachinePerConfigFingerprint) {
    engine::MachineLease::drop_thread_cache();
    const MachineConfig ref = MachineConfig::ngmp_ref();
    Machine* first = nullptr;
    {
        engine::MachineLease lease(ref);
        first = &lease.machine();
        lease.campaign() = 42;
    }
    {
        engine::MachineLease lease(ref);
        EXPECT_EQ(&lease.machine(), first);  // same cached machine
        EXPECT_EQ(lease.campaign(), 42u);    // campaign tag survives
    }
    EXPECT_EQ(engine::MachineLease::cached_machines(), 1u);
    {
        engine::MachineLease lease(MachineConfig::ngmp_var());
        EXPECT_NE(&lease.machine(), first);
    }
    EXPECT_EQ(engine::MachineLease::cached_machines(), 2u);
    engine::MachineLease::drop_thread_cache();
    EXPECT_EQ(engine::MachineLease::cached_machines(), 0u);
}

TEST(MachineLease, EvictsLeastRecentlyUsedBeyondCap) {
    engine::MachineLease::drop_thread_cache();
    const std::vector<MachineConfig> configs = {
        MachineConfig::ngmp_ref(), MachineConfig::ngmp_var(),
        MachineConfig::textbook(), MachineConfig::scaled(2, 5),
        MachineConfig::scaled(3, 9), MachineConfig::p4080_like()};
    for (const MachineConfig& config : configs) {
        engine::MachineLease lease(config);
        (void)lease.machine();
    }
    EXPECT_LE(engine::MachineLease::cached_machines(), 4u);
    engine::MachineLease::drop_thread_cache();
}

TEST(MachineRun, RunCoreAgreesWithRunUntilCore) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = make_autobench(Autobench::kCacheb, 0x0100'0000,
                                        10, 9);
    Machine a(config);
    a.load_program(0, scua);
    a.warm_static_footprint(0);
    const RunResult r = a.run_until_core(0);
    ASSERT_FALSE(r.deadline_reached);

    Machine b(config);
    b.load_program(0, scua);
    b.warm_static_footprint(0);
    EXPECT_EQ(b.run_core(0), r.finish_cycle[0]);
}

TEST(MachineRun, DeadlineStillReportedWithSkipping) {
    Machine machine(MachineConfig::ngmp_ref());
    machine.load_program(
        0, ProgramBuilder("long").nop(4).iterations(1'000'000).build());
    EXPECT_EQ(machine.run_core(0, 100), kNoCycle);
    EXPECT_EQ(machine.now(), 100u);  // skipping never overshoots the cap
}

}  // namespace
}  // namespace rrb
