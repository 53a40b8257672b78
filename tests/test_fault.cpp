// The fault-tolerance contract, proven through the deterministic
// injector (src/fault/): crash-safe checkpoint saves never leave torn
// bytes at a final path, the supervised scheduler confines a throwing
// item to its own campaign (with a bounded retry budget for transient
// failures), recovery-mode resume quarantines bad files and re-runs
// exactly the uncovered ranges — and every recovery path reproduces
// the uninterrupted reference bit for bit, at jobs 1 and 4. Plus the
// telemetry-style no-op guarantee: hooks disarmed (or armed but never
// firing) change nothing.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/reduce.h"
#include "fault/fault.h"
#include "kernels/autobench.h"
#include "machine/config.h"
#include "obs/telemetry.h"
#include "stats/checkpoint.h"

namespace rrb {
namespace {

/// Every test disarms on exit, firing or not — injector state must
/// never leak into the next test (or suite: ctest runs these alongside
/// the bit-identity suites).
struct InjectorGuard {
    InjectorGuard() { fault::FaultInjector::instance().disarm(); }
    ~InjectorGuard() { fault::FaultInjector::instance().disarm(); }
};

Scenario small_scenario(std::uint64_t seed = 7, std::size_t runs = 48) {
    return Scenario::on(MachineConfig::ngmp_ref())
        .scua(make_autobench(Autobench::kTblook, 0x0100'0000, 40, 2))
        .rsk_contenders(OpKind::kLoad)
        .runs(runs)
        .seed(seed);
}

PwcetSpec small_spec() {
    PwcetSpec spec;
    spec.block_size = 8;
    spec.exceedance = {1e-3, 1e-9};
    return spec;
}

std::string temp_path(const std::string& name) {
    return testing::TempDir() + "rrb_fault_" + name;
}

std::vector<char> file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void write_garbage(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::vector<char> junk(64, '\xAB');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
}

void expect_same_bits(double a, double b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b));
}

void expect_same_result(const PwcetCampaignResult& a,
                        const PwcetCampaignResult& b) {
    EXPECT_EQ(a.et_isolation, b.et_isolation);
    EXPECT_EQ(a.nr, b.nr);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.high_water_mark, b.high_water_mark);
    EXPECT_EQ(a.low_water_mark, b.low_water_mark);
    expect_same_bits(a.mean, b.mean);
    expect_same_bits(a.stddev, b.stddev);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.live_values, b.live_values);
    expect_same_bits(a.fit.mu, b.fit.mu);
    expect_same_bits(a.fit.beta, b.fit.beta);
    ASSERT_EQ(a.quantiles.size(), b.quantiles.size());
    for (std::size_t q = 0; q < a.quantiles.size(); ++q) {
        EXPECT_EQ(a.quantiles[q].exceedance, b.quantiles[q].exceedance);
        expect_same_bits(a.quantiles[q].pwcet, b.quantiles[q].pwcet);
    }
}

// ------------------------------------------------------ injector spec

TEST(FaultInjector, WindowRuleFiltersByKeyAndCountsEvaluations) {
    const InjectorGuard guard;
    fault::FaultInjector& injector = fault::FaultInjector::instance();
    injector.arm("shard-throw@2:2+3");

    // Evaluations with other keys never match the rule — not fired,
    // not even counted.
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(fault::should_fire(fault::Site::kShardThrow, 1));
    }
    EXPECT_EQ(injector.evaluations(fault::Site::kShardThrow), 0u);

    // Matching evaluations fire exactly on the window [2, 5).
    const bool expected[] = {false, true, true, true, false};
    for (const bool want : expected) {
        EXPECT_EQ(fault::should_fire(fault::Site::kShardThrow, 2), want);
    }
    EXPECT_EQ(injector.evaluations(fault::Site::kShardThrow), 5u);
    EXPECT_EQ(injector.fired(fault::Site::kShardThrow), 3u);

    // Other sites are untouched.
    EXPECT_FALSE(fault::should_fire(fault::Site::kTransientIo, 2));
}

TEST(FaultInjector, BareSiteFiresAlways) {
    const InjectorGuard guard;
    fault::FaultInjector::instance().arm("decode-overflow");
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(
            fault::should_fire(fault::Site::kDecodeOverflow, 42 + i));
    }
}

TEST(FaultInjector, SeededRateIsDeterministicPerSeed) {
    const InjectorGuard guard;
    fault::FaultInjector& injector = fault::FaultInjector::instance();
    const auto decisions = [&](const std::string& spec) {
        injector.arm(spec);
        std::vector<bool> out;
        for (int i = 0; i < 200; ++i) {
            out.push_back(
                fault::should_fire(fault::Site::kTransientIo, 0));
        }
        return out;
    };
    const std::vector<bool> first = decisions("seed=9,transient-io:~3");
    const std::vector<bool> again = decisions("seed=9,transient-io:~3");
    EXPECT_EQ(first, again);  // same seed, same schedule
    std::size_t fired = 0;
    for (const bool b : first) fired += b ? 1 : 0;
    EXPECT_GT(fired, 0u);    // ~1/3 rate actually fires...
    EXPECT_LT(fired, 200u);  // ...and actually skips
    EXPECT_NE(first, decisions("seed=10,transient-io:~3"));
}

TEST(FaultInjector, MalformedSpecThrowsAndKeepsArmedRules) {
    const InjectorGuard guard;
    fault::FaultInjector& injector = fault::FaultInjector::instance();
    injector.arm("shard-throw");
    for (const char* bad :
         {"bogus-site", "shard-throw:x", "shard-throw@", "shard-throw:0",
          "shard-throw:~0", "shard-throw,,decode-overflow", "seed=x"}) {
        EXPECT_THROW(injector.arm(bad), std::invalid_argument) << bad;
    }
    // The failed arms replaced nothing: the original rule still fires.
    EXPECT_TRUE(fault::should_fire(fault::Site::kShardThrow, 0));
}

TEST(FaultInjector, DisarmStopsEveryHook) {
    const InjectorGuard guard;
    fault::FaultInjector& injector = fault::FaultInjector::instance();
    injector.arm("shard-throw,ckpt-truncate,transient-io");
    EXPECT_TRUE(fault::should_fire(fault::Site::kShardThrow, 0));
    injector.disarm();
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::should_fire(fault::Site::kShardThrow, 0));
    EXPECT_FALSE(fault::should_fire(fault::Site::kCheckpointTruncate, 0));
}

// ------------------------------------------------- crash-safe saves

TEST(CrashSafeCheckpoint, InjectedCrashesNeverTearTheFinalPath) {
    const InjectorGuard guard;
    Session session;
    session.jobs(2);
    const std::string path = temp_path("atomic_save");
    const PwcetCheckpoint checkpoint = session.checkpoint(
        small_scenario(), small_spec(), SliceSpec{0, 1}, path);
    const std::vector<char> good = file_bytes(path);

    for (const char* spec :
         {"ckpt-truncate:1", "ckpt-fsync:1", "ckpt-rename:1"}) {
        SCOPED_TRACE(spec);
        fault::FaultInjector::instance().arm(spec);
        EXPECT_THROW(save_pwcet_checkpoint(path, checkpoint),
                     CheckpointError);
        fault::FaultInjector::instance().disarm();
        // Whatever stage the "crash" hit, the published file is still
        // the previous complete checkpoint, byte for byte...
        EXPECT_EQ(file_bytes(path), good);
        // ...and still loads.
        EXPECT_NO_THROW((void)load_pwcet_checkpoint(path));
    }

    // After the torn-write fault the crash debris is a .tmp beside the
    // real file — visible for forensics, never loaded as a checkpoint.
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));

    // And the error is structured: an I/O failure naming the path.
    fault::FaultInjector::instance().arm("ckpt-rename:1");
    try {
        save_pwcet_checkpoint(path, checkpoint);
        FAIL() << "save was expected to throw";
    } catch (const CheckpointError& e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::kIo);
        EXPECT_EQ(e.path(), path);
        EXPECT_NE(e.reason().find("rename"), std::string::npos);
    }
}

TEST(CrashSafeCheckpoint, CrashOnFirstSaveLeavesNoFinalFile) {
    const InjectorGuard guard;
    Session session;
    session.jobs(2);
    const std::string staging = temp_path("first_save_staging");
    const PwcetCheckpoint checkpoint = session.checkpoint(
        small_scenario(), small_spec(), SliceSpec{0, 1}, staging);

    const std::string path = temp_path("first_save_crash");
    fault::FaultInjector::instance().arm("ckpt-truncate:1");
    EXPECT_THROW(save_pwcet_checkpoint(path, checkpoint),
                 CheckpointError);
    fault::FaultInjector::instance().disarm();
    // No torn half-checkpoint a later merge/resume could mistake for
    // data — only the .tmp debris.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
}

// ------------------------------------------------- resume recovery

TEST(ResumeRecovery, QuarantinesCorruptFileAndRecoversBitIdentically) {
    const InjectorGuard guard;
    const Scenario scenario = small_scenario(11);
    const PwcetSpec spec = small_spec();

    Session monolithic;
    monolithic.jobs(1);
    const PwcetCampaignResult reference =
        monolithic.pwcet(scenario, spec);

    Session worker;
    worker.jobs(2);
    const std::string p0 = temp_path("recover_0");
    const std::string p2 = temp_path("recover_2");
    (void)worker.checkpoint(scenario, spec, {0, 3}, p0);
    (void)worker.checkpoint(scenario, spec, {2, 3}, p2);
    const std::string bad = temp_path("recover_corrupt");
    write_garbage(bad);

    // Strict resume still refuses loudly — the PR-4 contract.
    Session strict;
    EXPECT_THROW((void)strict.resume(scenario, spec, {p0, bad, p2}),
                 CheckpointError);

    // Recovery mode: the corrupt file is quarantined, its coverage (and
    // the never-checkpointed slice 1) recomputed, and the merged result
    // is the uninterrupted campaign, bit for bit.
    Session resumer;
    resumer.jobs(4);
    Session::ResumeRecovery recovery;
    const PwcetCampaignResult r =
        resumer.resume(scenario, spec, {p0, bad, p2}, recovery);
    expect_same_result(r, reference);

    ASSERT_EQ(recovery.actions.size(), 1u);
    EXPECT_EQ(recovery.actions[0].path, bad);
    EXPECT_EQ(recovery.actions[0].quarantined_to, bad + ".corrupt");
    EXPECT_FALSE(std::filesystem::exists(bad));
    EXPECT_TRUE(std::filesystem::exists(bad + ".corrupt"));
    const engine::ReducePlan plan = engine::ReducePlan::for_count(
        scenario.run_protocol().runs);
    EXPECT_EQ(recovery.shards_rerun, plan.slice(1, 3).size());
}

TEST(ResumeRecovery, QuarantinesMismatchedCampaignAndIgnoresDuplicates) {
    const InjectorGuard guard;
    const Scenario scenario = small_scenario(11);
    const PwcetSpec spec = small_spec();

    Session monolithic;
    monolithic.jobs(1);
    const PwcetCampaignResult reference =
        monolithic.pwcet(scenario, spec);

    Session worker;
    worker.jobs(2);
    const std::string p0 = temp_path("mismatch_0");
    const std::string p2 = temp_path("mismatch_2");
    const std::string other = temp_path("mismatch_other");
    (void)worker.checkpoint(scenario, spec, {0, 3}, p0);
    (void)worker.checkpoint(scenario, spec, {2, 3}, p2);
    (void)worker.checkpoint(small_scenario(99), spec, {1, 3}, other);

    // `other` is first in line, so it even gets to propose the
    // isolation baseline — and must still be rejected and quarantined
    // without poisoning the real checkpoints' validation. `p0` twice
    // is valid data covering the same shards: first copy wins, the
    // file stays in place.
    Session resumer;
    resumer.jobs(4);
    Session::ResumeRecovery recovery;
    const PwcetCampaignResult r = resumer.resume(
        scenario, spec, {other, p0, p0, p2}, recovery);
    expect_same_result(r, reference);

    ASSERT_EQ(recovery.actions.size(), 2u);
    EXPECT_EQ(recovery.actions[0].path, other);
    EXPECT_EQ(recovery.actions[0].quarantined_to, other + ".corrupt");
    EXPECT_EQ(recovery.actions[1].path, p0);
    EXPECT_TRUE(recovery.actions[1].quarantined_to.empty());
    EXPECT_TRUE(std::filesystem::exists(p0));
    EXPECT_FALSE(std::filesystem::exists(other));
}

// ------------------------------------- kill-and-recover differential

TEST(KillAndRecover, ResumeAfterInjectedCrashMatchesReferenceAcrossJobs) {
    const InjectorGuard guard;
    const Scenario scenario = small_scenario(11);
    const PwcetSpec spec = small_spec();
    const engine::ReducePlan plan = engine::ReducePlan::for_count(
        scenario.run_protocol().runs);

    Session monolithic;
    monolithic.jobs(1);
    const PwcetCampaignResult reference =
        monolithic.pwcet(scenario, spec);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string tag = std::to_string(jobs);
        const std::string p0 = temp_path("kill_0_j" + tag);
        const std::string p1 = temp_path("kill_1_j" + tag);
        const std::string p2 = temp_path("kill_2_j" + tag);
        Session worker;
        worker.jobs(jobs);
        (void)worker.checkpoint(scenario, spec, {0, 3}, p0);
        (void)worker.checkpoint(scenario, spec, {2, 3}, p2);

        // Crash 1: the process dies *while saving* slice 1. The
        // crash-safe writer guarantees p1 never appears.
        fault::FaultInjector::instance().arm("ckpt-truncate:1");
        EXPECT_THROW(
            (void)worker.checkpoint(scenario, spec, {1, 3}, p1),
            CheckpointError);
        fault::FaultInjector::instance().disarm();
        EXPECT_FALSE(std::filesystem::exists(p1));

        // Recover, naively passing the path the dead process *meant*
        // to write: recovery notes it as unreadable and re-runs.
        Session resumer;
        resumer.jobs(jobs);
        Session::ResumeRecovery recovery;
        const PwcetCampaignResult recovered =
            resumer.resume(scenario, spec, {p0, p1, p2}, recovery);
        expect_same_result(recovered, reference);
        ASSERT_EQ(recovery.actions.size(), 1u);
        EXPECT_EQ(recovery.actions[0].path, p1);
        EXPECT_TRUE(recovery.actions[0].quarantined_to.empty());
        EXPECT_EQ(recovery.shards_rerun, plan.slice(1, 3).size());

        // Crash 2: a worker throws *mid-shard* while slice 1 re-runs
        // in another process — nothing lands on disk at all. The slice
        // is the checkpoint call's only campaign: campaign index 0.
        fault::FaultInjector::instance().arm("shard-throw@0:1");
        Session doomed;
        doomed.jobs(jobs);
        EXPECT_THROW(
            (void)doomed.checkpoint(scenario, spec, {1, 3}, p1),
            std::runtime_error);
        fault::FaultInjector::instance().disarm();
        EXPECT_FALSE(std::filesystem::exists(p1));

        // Plain strict resume completes the campaign identically.
        Session strict;
        strict.jobs(jobs);
        expect_same_result(strict.resume(scenario, spec, {p0, p2}),
                           reference);
    }
}

// ------------------------------------------- supervised scheduler

std::vector<BatchItem> three_campaign_batch() {
    PwcetSpec spec;
    spec.block_size = 5;
    std::vector<BatchItem> items;
    items.push_back({"alpha", small_scenario(7, 60), spec});
    items.push_back({"beta", small_scenario(11, 45), spec});
    items.push_back({"gamma", small_scenario(13, 30), spec});
    return items;
}

TEST(SupervisedScheduler, FailingCampaignDoesNotPoisonTheBatch) {
    const InjectorGuard guard;
    const std::vector<BatchItem> items = three_campaign_batch();

    std::vector<PwcetCampaignResult> reference;
    for (const BatchItem& item : items) {
        Session session;
        session.jobs(1);
        reference.push_back(session.pwcet(item.scenario, item.spec));
    }

    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    fault::FaultInjector::instance().arm("shard-throw@1:1");
    Session session;
    session.jobs(4);
    const BatchResult batch = session.batch(items);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();

    ASSERT_EQ(batch.points.size(), 3u);
    EXPECT_FALSE(batch.points[1].ok);
    EXPECT_NE(batch.points[1].error.find("injected shard worker failure"),
              std::string::npos);
    // The survivors are not merely "still computed": they are exactly
    // what an all-healthy batch produces, at jobs 4, with the failure
    // racing alongside them.
    EXPECT_TRUE(batch.points[0].ok);
    EXPECT_TRUE(batch.points[2].ok);
    expect_same_result(batch.points[0].result, reference[0]);
    expect_same_result(batch.points[2].result, reference[2]);

    // Supervision accounting: one campaign failed, its queued items
    // were drained as skips, and the dispatch invariant still holds —
    // skipped items *were* dispatched.
    EXPECT_EQ(counters[obs::kSchedFailures], 1u);
    EXPECT_GE(counters[obs::kSchedItemsSkipped], 1u);
    EXPECT_EQ(counters[obs::kSchedDispatches],
              counters[obs::kSchedItemsEnqueued]);
    EXPECT_EQ(counters[obs::kSchedAffinityHits] +
                  counters[obs::kSchedSteals],
              counters[obs::kSchedDispatches]);
}

TEST(SupervisedScheduler, TransientFailureRetriesWithinBudget) {
    const InjectorGuard guard;
    std::vector<BatchItem> items;
    PwcetSpec spec;
    spec.block_size = 5;
    items.push_back({"flaky", small_scenario(7, 60), spec});

    Session ref_session;
    ref_session.jobs(1);
    const PwcetCampaignResult reference =
        ref_session.pwcet(items[0].scenario, items[0].spec);

    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    // Fails twice, then succeeds: inside the per-item budget of 3.
    fault::FaultInjector::instance().arm("transient-io@0:1+2");
    Session session;
    session.jobs(2);
    const BatchResult batch = session.batch(items);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();

    ASSERT_EQ(batch.points.size(), 1u);
    EXPECT_TRUE(batch.points[0].ok);
    // A retried item restarts from a fresh accumulator — the result is
    // *identical*, not merely close.
    expect_same_result(batch.points[0].result, reference);
    EXPECT_EQ(counters[obs::kSchedRetries], 2u);
    EXPECT_EQ(counters[obs::kSchedFailures], 0u);
}

TEST(SupervisedScheduler, ExhaustedRetryBudgetFailsTheCampaign) {
    const InjectorGuard guard;
    std::vector<BatchItem> items;
    PwcetSpec spec;
    spec.block_size = 5;
    items.push_back({"doomed", small_scenario(7, 60), spec});

    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    fault::FaultInjector::instance().arm("transient-io@0");
    Session session;
    session.jobs(1);  // one drain loop: the retry accounting is exact
    const BatchResult batch = session.batch(items);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();

    ASSERT_EQ(batch.points.size(), 1u);
    EXPECT_FALSE(batch.points[0].ok);
    EXPECT_NE(batch.points[0].error.find("transient"), std::string::npos);
    // 3 attempts = 2 retries, then the campaign fails once and every
    // remaining item is skipped without burning its own budget.
    EXPECT_EQ(counters[obs::kSchedRetries], 2u);
    EXPECT_EQ(counters[obs::kSchedFailures], 1u);
}

// ------------------------------------------------- no-op guarantees

std::string after_first_line(const std::string& text) {
    const std::size_t eol = text.find('\n');
    return eol == std::string::npos ? std::string() : text.substr(eol + 1);
}

struct CliResult {
    int code;
    std::string out;
    std::string err;
};

CliResult invoke(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::run(args, out, err);
    return {code, out.str(), err.str()};
}

TEST(FaultNoop, ArmedButNeverFiringIsByteIdenticalToDisarmed) {
    const InjectorGuard guard;
    const std::vector<std::string> args = {"pwcet",      "--runs",
                                           "60",         "--seed",
                                           "7",          "--block-size",
                                           "5",          "--jobs",
                                           "2"};
    const CliResult disarmed = invoke(args);
    // Armed with a rule that can never match (no campaign index is
    // ever 999999): every hook still evaluates, nothing may change —
    // the same out-of-band guarantee the telemetry layer proves.
    fault::FaultInjector::instance().arm("shard-throw@999999");
    const CliResult armed = invoke(args);
    EXPECT_EQ(armed.code, disarmed.code);
    EXPECT_EQ(armed.out, disarmed.out);
}

TEST(FaultNoop, ForcedDecodeOverflowFallsBackBitIdentically) {
    const InjectorGuard guard;
    const Scenario scenario = small_scenario(7, 40);
    const PwcetSpec spec = small_spec();

    Session plain;
    plain.jobs(2);
    const PwcetCampaignResult reference = plain.pwcet(scenario, spec);

    // Every decode "overflows": replay hands every run to the
    // interpreter. The replay contract says that path is bit-identical
    // — the injector turns that contract into a test.
    fault::FaultInjector::instance().arm("decode-overflow");
    Session fallback;
    fallback.jobs(2);
    const PwcetCampaignResult degraded = fallback.pwcet(scenario, spec);
    EXPECT_GT(fault::FaultInjector::instance().fired(
                  fault::Site::kDecodeOverflow),
              0u);
    fault::FaultInjector::instance().disarm();
    expect_same_result(degraded, reference);
}

// ------------------------------------------------------ CLI surface

TEST(FaultCli, BatchReportsFailedScenarioAndExitsFour) {
    const InjectorGuard guard;
    const std::string spec_path = temp_path("batch_spec.ini");
    {
        std::ofstream spec(spec_path, std::ios::trunc);
        spec << "[scenario doomed]\n"
                "runs = 60\nseed = 7\nblock-size = 5\n"
                "\n"
                "[scenario survivor]\n"
                "runs = 60\nseed = 11\nblock-size = 5\n";
    }
    const std::string out_dir = temp_path("batch_out");

    // Campaign 0 ("doomed", spec order) fails on its first shard item.
    fault::FaultInjector::instance().arm("shard-throw@0:1");
    const CliResult batch =
        invoke({"batch", spec_path, "--out-dir", out_dir, "--jobs", "2"});
    fault::FaultInjector::instance().disarm();

    // Nonzero aggregate exit naming the failed scenario; the failed
    // campaign left no checkpoint (and certainly no torn one).
    EXPECT_EQ(batch.code, 4);
    EXPECT_NE(batch.out.find("doomed 60 7 - - - - FAILED"),
              std::string::npos)
        << batch.out;
    EXPECT_NE(batch.out.find("scenario 'doomed' failed"),
              std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(out_dir + "/doomed.ckpt"));

    // The survivor completed, checkpointed, and merges byte-identically
    // to the uninterrupted standalone campaign.
    const std::string survivor = out_dir + "/survivor.ckpt";
    ASSERT_TRUE(std::filesystem::exists(survivor));
    const CliResult merged = invoke({"merge", survivor});
    const CliResult standalone =
        invoke({"pwcet", "--runs", "60", "--seed", "11", "--block-size",
                "5", "--jobs", "2"});
    EXPECT_EQ(merged.code, standalone.code);
    EXPECT_EQ(after_first_line(merged.out),
              after_first_line(standalone.out));
}

TEST(FaultCli, UnhandledWorkerFailureExitsSeventyNotTerminate) {
    const InjectorGuard guard;
    // A standalone pwcet is a scheduler batch of one: the first shard
    // item throws, the campaign fails, take() rethrows on the calling
    // thread, and the top-level catch-all must turn it into exit 70
    // naming the command.
    fault::FaultInjector::instance().arm("shard-throw:1");
    const CliResult r = invoke({"pwcet", "--runs", "40", "--seed", "7",
                                "--block-size", "8", "--jobs", "2"});
    EXPECT_EQ(r.code, 70);
    EXPECT_NE(r.err.find("command 'pwcet' failed"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("injected shard worker failure"),
              std::string::npos);
}

TEST(FaultCli, MalformedRrbFaultsEnvIsAUsageError) {
    const InjectorGuard guard;
    ::setenv("RRB_FAULTS", "not-a-site", 1);
    const CliResult r = invoke({"estimate"});
    ::unsetenv("RRB_FAULTS");
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("malformed fault spec"), std::string::npos);
}

TEST(FaultCli, RrbFaultsEnvArmsForTheCommandOnly) {
    const InjectorGuard guard;
    ::setenv("RRB_FAULTS", "shard-throw:1", 1);
    const CliResult r = invoke({"pwcet", "--runs", "40", "--seed", "7",
                                "--block-size", "8", "--jobs", "2"});
    ::unsetenv("RRB_FAULTS");
    EXPECT_EQ(r.code, 70);
    // ScopedEnvArm disarmed on the way out of run().
    EXPECT_FALSE(fault::armed());
}

}  // namespace
}  // namespace rrb
