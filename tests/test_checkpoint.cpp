// Tests of the checkpoint subsystem: bit-exact codec round trips for
// the accumulator family (empty and NaN-bearing states included), loud
// rejection of truncated / corrupt / mismatched files, and the headline
// contract — a campaign run as 1, 2 or 4 checkpointed slices and merged
// is bit-identical to the monolithic session.pwcet at every jobs value.
#include "stats/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/session.h"
#include "engine/progress.h"
#include "engine/reduce.h"
#include "kernels/autobench.h"
#include "machine/config.h"

namespace rrb {
namespace {

// ----------------------------------------------------- codec round trips

/// Encode -> decode -> encode. Byte equality of the two encodings is a
/// bit-exactness check that needs no accessor for hidden state (m2,
/// NaN payloads): if any field survived only approximately, the second
/// encoding would differ.
template <typename T, typename Load>
std::vector<std::uint8_t> round_trip(const T& value, Load&& load) {
    CheckpointWriter first;
    CheckpointCodec::save(first, value);
    CheckpointReader reader(first.bytes());
    const T reloaded = load(reader);
    EXPECT_EQ(reader.remaining(), 0u);
    CheckpointWriter second;
    CheckpointCodec::save(second, reloaded);
    EXPECT_EQ(first.bytes(), second.bytes());
    return first.bytes();
}

TEST(CheckpointCodec, ExtremesRoundTripIncludingEmpty) {
    StreamingExtremes<Cycle> empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_extremes(r);
    });

    StreamingExtremes<Cycle> a;
    a.add(7);
    a.add(1902);
    a.add(44);
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_extremes(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const StreamingExtremes<Cycle> b = CheckpointCodec::load_extremes(r);
    EXPECT_EQ(b.count(), 3u);
    EXPECT_EQ(b.min(), 7u);
    EXPECT_EQ(b.max(), 1902u);
}

TEST(CheckpointCodec, MomentsRoundTripBitExactlyIncludingNaN) {
    StreamingMoments empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_moments(r);
    });

    StreamingMoments a;
    // Values chosen so mean/m2 are not exactly representable sums —
    // only a bit-pattern round trip reproduces them.
    for (int i = 0; i < 17; ++i) a.add(0.1 * i + 1.0 / 3.0);
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_moments(r);
    });

    StreamingMoments nan_bearing;
    nan_bearing.add(5.0);
    nan_bearing.add(std::numeric_limits<double>::quiet_NaN());
    ASSERT_TRUE(std::isnan(nan_bearing.mean()));
    const std::vector<std::uint8_t> bytes =
        round_trip(nan_bearing, [](CheckpointReader& r) {
            return CheckpointCodec::load_moments(r);
        });
    CheckpointReader r(bytes);
    const StreamingMoments reloaded = CheckpointCodec::load_moments(r);
    EXPECT_TRUE(std::isnan(reloaded.mean()));
    EXPECT_EQ(reloaded.count(), 2u);
}

TEST(CheckpointCodec, BlockMaximaRoundTripWithPartialBlocks) {
    StreamingBlockMaxima empty(8);
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_block_maxima(r);
    });

    StreamingBlockMaxima a(4);
    for (std::uint64_t i = 0; i < 11; ++i) {  // last block partial
        a.add(i, static_cast<double>((i * 37) % 13));
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_block_maxima(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const StreamingBlockMaxima b = CheckpointCodec::load_block_maxima(r);
    EXPECT_EQ(b.block_size(), 4u);
    EXPECT_EQ(b.count(), 11u);
    EXPECT_EQ(b.complete_blocks(), 2u);
    EXPECT_EQ(b.maxima(), a.maxima());
}

TEST(CheckpointCodec, PeaksOverThresholdRoundTrip) {
    StreamingPeaksOverThreshold a(100.0);
    for (std::uint64_t i = 0; i < 40; ++i) {
        a.add(i, static_cast<double>((i * 733) % 200));
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_pot(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const StreamingPeaksOverThreshold b = CheckpointCodec::load_pot(r);
    EXPECT_EQ(b.threshold(), a.threshold());
    EXPECT_EQ(b.count(), a.count());
    EXPECT_EQ(b.exceedances(), a.exceedances());
}

TEST(CheckpointCodec, WhiteboxAccumulatorRoundTrip) {
    WhiteboxAccumulator empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_whitebox(r);
    });

    WhiteboxAccumulator a;
    for (std::uint64_t run = 0; run < 6; ++run) {
        Measurement m;
        m.exec_time = 1000 + run * 13;
        m.max_gamma = run % 3;
        m.gamma.add(run % 3);
        m.ready_contenders.add(run % 2);
        m.injection_delta.add(5 + run);
        a.add(run, m);
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_whitebox(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const WhiteboxAccumulator b = CheckpointCodec::load_whitebox(r);
    EXPECT_EQ(b.runs(), a.runs());
    EXPECT_EQ(b.max_gamma(), a.max_gamma());
    EXPECT_EQ(b.gamma().buckets(), a.gamma().buckets());
    EXPECT_EQ(b.exec_times().values(), a.exec_times().values());
    EXPECT_EQ(b.extremes().max(), a.extremes().max());
}

TEST(CheckpointCodec, PwcetAccumulatorRoundTrip) {
    PwcetAccumulator a(4);
    for (std::uint64_t run = 0; run < 10; ++run) {
        Measurement m;
        m.exec_time = 2000 + ((run * 271) % 97);
        a.add(run, m);
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_pwcet(r);
    });
}

TEST(CheckpointCodec, RejectsCorruptAccumulatorState) {
    // min > max
    CheckpointWriter w;
    w.u64(2);
    w.u64(100);
    w.u64(50);
    CheckpointReader r(w.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_extremes(r), CheckpointError);

    // truncated mid-field
    CheckpointWriter short_write;
    short_write.u64(1);
    CheckpointReader short_read(short_write.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_extremes(short_read),
                 CheckpointError);

    // block maxima with zero block size
    CheckpointWriter zero_block;
    zero_block.u64(0);
    zero_block.u64(0);
    zero_block.u64(0);
    CheckpointReader zero_read(zero_block.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_block_maxima(zero_read),
                 CheckpointError);

    // a length field claiming more values than bytes remain is rejected
    // before anything is allocated for it
    CheckpointWriter long_series;
    long_series.u64(std::uint64_t{1} << 60);
    long_series.f64(1.0);
    CheckpointReader long_read(long_series.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_series(long_read),
                 CheckpointError);
}

// -------------------------------------------------- campaign checkpoints

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
    return testing::TempDir() + "rrb_ckpt_" + name;
}

PwcetCheckpoint make_checkpoint(std::uint64_t seed = 7,
                                const SliceSpec& slice = {0, 1}) {
    Session session;
    session.jobs(2);
    return session.checkpoint(small_scenario(seed), small_spec(), slice,
                              temp_path("make_" + std::to_string(seed) +
                                        "_" + std::to_string(slice.index)));
}

TEST(PwcetCheckpointFile, EncodeDecodeRoundTripsBitExactly) {
    const PwcetCheckpoint a = make_checkpoint();
    const std::vector<std::uint8_t> first = encode_pwcet_checkpoint(a);
    const PwcetCheckpoint b = decode_pwcet_checkpoint(first);
    EXPECT_EQ(encode_pwcet_checkpoint(b), first);
    EXPECT_EQ(b.meta.scenario_fingerprint, a.meta.scenario_fingerprint);
    EXPECT_EQ(b.meta.total_runs, 48u);
    EXPECT_EQ(b.meta.first_run, 0u);
    EXPECT_EQ(b.meta.last_run, 48u);
    EXPECT_EQ(b.shards.size(), a.shards.size());
}

TEST(PwcetCheckpointFile, RejectsGarbageTruncationAndCorruption) {
    const std::vector<std::uint8_t> bytes =
        encode_pwcet_checkpoint(make_checkpoint());

    // Garbage: not even the magic.
    const std::vector<std::uint8_t> garbage(64, 0xAB);
    EXPECT_THROW((void)decode_pwcet_checkpoint(garbage), CheckpointError);

    // Empty and too-short files.
    EXPECT_THROW((void)decode_pwcet_checkpoint(std::vector<std::uint8_t>{}),
                 CheckpointError);
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(
            std::span(bytes).subspan(0, 10)),
        CheckpointError);

    // Truncation anywhere: the trailer checksum can no longer match.
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{20}}) {
        EXPECT_THROW(
            (void)decode_pwcet_checkpoint(std::span(bytes).subspan(0, keep)),
            CheckpointError)
            << "kept " << keep << " of " << bytes.size();
    }

    // A single flipped payload byte fails the checksum.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x01;
    EXPECT_THROW((void)decode_pwcet_checkpoint(corrupt), CheckpointError);

    // A future format version is rejected even with a valid checksum:
    // re-encode with the version field bumped, then fix the trailer.
    std::vector<std::uint8_t> future = bytes;
    future[8] += 1;  // version is the u32 after the 8-byte magic
    // (checksum now wrong too — still must throw, which is the point)
    EXPECT_THROW((void)decode_pwcet_checkpoint(future), CheckpointError);
}

TEST(PwcetCheckpointFile, RejectsShardRangesThatOverflowThePlan) {
    // first_shard + n_shards must not be checkable by a wrapping sum: a
    // huge first_shard would otherwise pass and index plan-sized
    // coverage tables far out of bounds at merge time.
    PwcetCheckpoint bad = make_checkpoint();
    bad.first_shard = std::numeric_limits<std::uint64_t>::max();
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(encode_pwcet_checkpoint(bad)),
        CheckpointError);
    bad.first_shard = bad.meta.plan_shards + 1;
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(encode_pwcet_checkpoint(bad)),
        CheckpointError);
}

/// A crafted file: a real checkpoint whose metadata was edited and the
/// file re-sealed — plan hash and trailer checksum recomputed — so only
/// semantic validation can catch it.
std::vector<std::uint8_t> reseal(PwcetCheckpoint checkpoint) {
    CheckpointMeta& meta = checkpoint.meta;
    meta.shard_plan_hash =
        shard_plan_hash(meta.total_runs, meta.shard_size, meta.plan_shards);
    return encode_pwcet_checkpoint(checkpoint);
}

TEST(PwcetCheckpointFile, RejectsResealedFilesWhosePlanIsNotTheRunCounts) {
    // 300 runs: 150 real shards of 2 runs each.
    Session session;
    session.jobs(2);
    const std::string path = temp_path("resealed_source");
    const PwcetCheckpoint real = session.checkpoint(
        small_scenario(7, 300), small_spec(), {0, 1}, path);
    ASSERT_EQ(real.meta.shard_size, 2u);
    ASSERT_EQ(real.meta.plan_shards, 150u);
    EXPECT_NO_THROW((void)decode_pwcet_checkpoint(reseal(real)));

    PwcetCheckpoint huge_runs = real;  // 2^64-1 runs over 300 real ones
    huge_runs.meta.total_runs = std::numeric_limits<std::uint64_t>::max();
    PwcetCheckpoint odd_shards = real;  // a shard size the plan never has
    odd_shards.meta.shard_size = 3;
    PwcetCheckpoint huge_plan = real;  // a coverage table of 2^64-1
    huge_plan.meta.plan_shards = std::numeric_limits<std::uint64_t>::max();
    PwcetCheckpoint shifted = real;  // runs that are not the shards' runs
    shifted.meta.first_run = 1;
    shifted.meta.last_run = 301;
    shifted.meta.total_runs = 301;
    const engine::ReducePlan plan301 = engine::ReducePlan::for_count(301);
    shifted.meta.shard_size = plan301.shard_size;
    shifted.meta.plan_shards = plan301.shards();
    for (const PwcetCheckpoint* crafted :
         {&huge_runs, &odd_shards, &huge_plan, &shifted}) {
        const std::vector<std::uint8_t> bytes = reseal(*crafted);
        EXPECT_THROW((void)decode_pwcet_checkpoint(bytes), CheckpointError);
        // The file forms fail the same way — never with an allocation
        // failure or a different exception type.
        const std::string crafted_path = temp_path("resealed");
        std::FILE* f = std::fopen(crafted_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
        EXPECT_THROW((void)session.merge({crafted_path}), CheckpointError);
        std::remove(crafted_path.c_str());
    }
    std::remove(path.c_str());
}

TEST(PwcetCheckpointFile, LoadNamesThePathOnFailure) {
    const std::string missing = temp_path("does_not_exist");
    try {
        (void)load_pwcet_checkpoint(missing);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
    }
}

TEST(ScenarioFingerprint, IdentifiesTheCampaign) {
    const std::uint64_t base = small_scenario().fingerprint();
    EXPECT_EQ(small_scenario().fingerprint(), base);  // deterministic
    EXPECT_NE(small_scenario(23).fingerprint(), base);  // seed
    EXPECT_NE(small_scenario(7, 64).fingerprint(), base);  // runs
    EXPECT_NE(small_scenario().max_start_delay(11).fingerprint(), base);
    const Scenario other_platform =
        small_scenario().with_config(MachineConfig::ngmp_var());
    EXPECT_NE(other_platform.fingerprint(), base);  // config
    const Scenario other_contenders =
        small_scenario().rsk_contenders(OpKind::kStore);
    EXPECT_NE(other_contenders.fingerprint(), base);  // contender policy
}

TEST(MergeCheckpoints, RejectsMismatchedDuplicateAndMissingSlices) {
    const PwcetCheckpoint whole = make_checkpoint(7);
    const PwcetCheckpoint other_seed = make_checkpoint(23);
    EXPECT_THROW(
        (void)merge_checkpoints<engine::PwcetKind>({whole, other_seed}),
        CheckpointError);

    // Duplicate slice: the same shards twice.
    EXPECT_THROW((void)merge_checkpoints<engine::PwcetKind>({whole, whole}),
                 CheckpointError);

    // Missing slice: half a campaign is not a campaign.
    const PwcetCheckpoint half = make_checkpoint(7, {0, 2});
    EXPECT_THROW((void)merge_checkpoints<engine::PwcetKind>({half}),
                 CheckpointError);

    EXPECT_THROW((void)merge_checkpoints<engine::PwcetKind>({}),
                 CheckpointError);
}

// The headline contract (acceptance criterion): for several seeds, a
// campaign run as 1, 2 and 4 checkpointed slices — at jobs 1 and 4 —
// merges to the bit-identical result of the monolithic session.pwcet.
TEST(MergeCheckpoints, SliceThenMergeIsBitIdenticalToMonolithic) {
    for (const std::uint64_t seed : {7ull, 23ull}) {
        const Scenario scenario = small_scenario(seed);
        const PwcetSpec spec = small_spec();

        Session monolithic;
        monolithic.jobs(1);
        const PwcetCampaignResult reference =
            monolithic.pwcet(scenario, spec);

        for (const std::size_t slices : {1u, 2u, 4u}) {
            for (const std::size_t jobs : {1u, 4u}) {
                std::vector<std::string> paths;
                Session worker;
                worker.jobs(jobs);
                for (std::size_t i = 0; i < slices; ++i) {
                    const std::string path = temp_path(
                        "slice_" + std::to_string(seed) + "_" +
                        std::to_string(slices) + "_" +
                        std::to_string(jobs) + "_" + std::to_string(i));
                    (void)worker.checkpoint(scenario, spec,
                                            {i, slices}, path);
                    paths.push_back(path);
                }
                Session merger;
                const MergedPwcetCampaign merged = merger.merge(paths);
                const PwcetCampaignResult& r = merged.result;
                const std::string label =
                    "seed " + std::to_string(seed) + " slices " +
                    std::to_string(slices) + " jobs " +
                    std::to_string(jobs);
                EXPECT_EQ(r.runs, reference.runs) << label;
                EXPECT_EQ(r.et_isolation, reference.et_isolation) << label;
                EXPECT_EQ(r.nr, reference.nr) << label;
                EXPECT_EQ(r.high_water_mark, reference.high_water_mark)
                    << label;
                EXPECT_EQ(r.low_water_mark, reference.low_water_mark)
                    << label;
                // Bit-identical floating point: the merge replays the
                // monolithic fold's exact Chan-merge sequence.
                EXPECT_EQ(r.mean, reference.mean) << label;
                EXPECT_EQ(r.stddev, reference.stddev) << label;
                EXPECT_EQ(r.blocks, reference.blocks) << label;
                EXPECT_EQ(r.live_values, reference.live_values) << label;
                EXPECT_EQ(r.fit.mu, reference.fit.mu) << label;
                EXPECT_EQ(r.fit.beta, reference.fit.beta) << label;
                ASSERT_EQ(r.quantiles.size(), reference.quantiles.size());
                for (std::size_t q = 0; q < r.quantiles.size(); ++q) {
                    EXPECT_EQ(r.quantiles[q].pwcet,
                              reference.quantiles[q].pwcet)
                        << label;
                }
                for (const std::string& path : paths) {
                    std::remove(path.c_str());
                }
            }
        }
    }
}

TEST(SessionResume, CompletesAPartiallyCheckpointedCampaign) {
    const Scenario scenario = small_scenario(11);
    const PwcetSpec spec = small_spec();

    Session monolithic;
    monolithic.jobs(1);
    const PwcetCampaignResult reference = monolithic.pwcet(scenario, spec);

    // Checkpoint slices 0 and 2 of 3; resume must run slice 1 itself.
    Session worker;
    worker.jobs(2);
    const std::string p0 = temp_path("resume_0");
    const std::string p2 = temp_path("resume_2");
    (void)worker.checkpoint(scenario, spec, {0, 3}, p0);
    (void)worker.checkpoint(scenario, spec, {2, 3}, p2);

    Session resumer;
    resumer.jobs(4);
    const PwcetCampaignResult r = resumer.resume(scenario, spec, {p0, p2});
    EXPECT_EQ(r.high_water_mark, reference.high_water_mark);
    EXPECT_EQ(r.mean, reference.mean);
    EXPECT_EQ(r.stddev, reference.stddev);
    EXPECT_EQ(r.fit.mu, reference.fit.mu);
    EXPECT_EQ(r.fit.beta, reference.fit.beta);
    ASSERT_EQ(r.quantiles.size(), reference.quantiles.size());
    EXPECT_EQ(r.quantiles[0].pwcet, reference.quantiles[0].pwcet);

    // The same slice twice is rejected, naming the duplicate shard...
    Session duplicate_resumer;
    EXPECT_THROW((void)duplicate_resumer.resume(scenario, spec, {p0, p0}),
                 CheckpointError);
    // ...and a checkpoint from another campaign is rejected outright.
    Session mismatched_resumer;
    const std::string other = temp_path("resume_other");
    Session other_worker;
    (void)other_worker.checkpoint(small_scenario(99), spec, {0, 3}, other);
    EXPECT_THROW(
        (void)mismatched_resumer.resume(scenario, spec, {other, p2}),
        CheckpointError);

    // Resume with no checkpoints is simply the monolithic campaign.
    Session from_scratch;
    from_scratch.jobs(2);
    const PwcetCampaignResult whole =
        from_scratch.resume(scenario, spec, {});
    EXPECT_EQ(whole.mean, reference.mean);
    EXPECT_EQ(whole.fit.mu, reference.fit.mu);

    std::remove(p0.c_str());
    std::remove(p2.c_str());
    std::remove(other.c_str());
}

TEST(SessionResume, ProgressCountsCheckpointedRunsOnceAndEndsComplete) {
    // The progress contract across the one driver: a slice announces its
    // own runs; resume announces the whole campaign with the covered
    // runs already done, and the scheduler's per-run ticks — spread over
    // several uncovered ranges — finish it exactly.
    const Scenario scenario = small_scenario(13, 100);
    const PwcetSpec spec = small_spec();
    const engine::ReducePlan plan = engine::ReducePlan::for_count(100);
    const std::string p1 = temp_path("progress_1");
    const std::string p3 = temp_path("progress_3");

    engine::ProgressCounter slice_progress;
    Session worker;
    worker.jobs(2).progress(&slice_progress);
    (void)worker.checkpoint(scenario, spec, {1, 4}, p1);
    EXPECT_EQ(slice_progress.total(), plan.runs(plan.slice(1, 4)));
    EXPECT_EQ(slice_progress.completed(), slice_progress.total());
    (void)worker.checkpoint(scenario, spec, {3, 4}, p3);

    engine::ProgressCounter progress;
    Session resumer;
    resumer.jobs(3).progress(&progress);
    Session::ResumeRecovery recovery;
    (void)resumer.resume(scenario, spec, {p1, p3}, recovery);
    EXPECT_EQ(progress.total(), 100u);
    EXPECT_EQ(progress.completed(), 100u);
    EXPECT_EQ(recovery.shards_rerun,
              plan.slice(0, 4).size() + plan.slice(2, 4).size());
    std::remove(p1.c_str());
    std::remove(p3.c_str());
}

// ------------------------------------------------- whitebox checkpoints

void expect_same_whitebox(const WhiteboxAccumulator& a,
                          const WhiteboxAccumulator& b,
                          const std::string& label) {
    EXPECT_EQ(a.runs(), b.runs()) << label;
    EXPECT_EQ(a.max_gamma(), b.max_gamma()) << label;
    EXPECT_EQ(a.gamma().buckets(), b.gamma().buckets()) << label;
    EXPECT_EQ(a.ready_contenders().buckets(),
              b.ready_contenders().buckets())
        << label;
    EXPECT_EQ(a.injection_delta().buckets(), b.injection_delta().buckets())
        << label;
    // Run-ordered series, element for element (exact doubles).
    EXPECT_EQ(a.exec_times().values(), b.exec_times().values()) << label;
    EXPECT_EQ(a.extremes().count(), b.extremes().count()) << label;
    if (!a.extremes().empty() && !b.extremes().empty()) {
        EXPECT_EQ(a.extremes().max(), b.extremes().max()) << label;
        EXPECT_EQ(a.extremes().min(), b.extremes().min()) << label;
    }
}

TEST(WhiteboxCheckpointFile, EncodeDecodeRoundTripsBitExactly) {
    Session session;
    session.jobs(2);
    const WhiteboxCheckpoint a = session.checkpoint(
        small_scenario(), SliceSpec{0, 1}, temp_path("wb_roundtrip"));
    const std::vector<std::uint8_t> first = encode_checkpoint(a);
    const WhiteboxCheckpoint b =
        decode_checkpoint<engine::WhiteboxKind>(first);
    EXPECT_EQ(encode_checkpoint(b), first);
    EXPECT_EQ(b.meta.scenario_fingerprint, a.meta.scenario_fingerprint);
    EXPECT_EQ(b.meta.block_size, 0u);  // no EVT half on whitebox slices
    EXPECT_TRUE(b.meta.exceedance.empty());
    EXPECT_EQ(b.shards.size(), a.shards.size());
    std::remove(temp_path("wb_roundtrip").c_str());
}

TEST(WhiteboxCheckpointFile, PayloadKindsDoNotCrossMerge) {
    // A pwcet checkpoint must never decode as a whitebox one (or vice
    // versa) — same container, tagged payloads.
    const std::vector<std::uint8_t> pwcet_bytes =
        encode_pwcet_checkpoint(make_checkpoint());
    EXPECT_THROW((void)decode_checkpoint<engine::WhiteboxKind>(pwcet_bytes),
                 CheckpointError);

    Session session;
    const WhiteboxCheckpoint whitebox = session.checkpoint(
        small_scenario(), SliceSpec{0, 1}, temp_path("wb_kind"));
    const std::vector<std::uint8_t> whitebox_bytes =
        encode_checkpoint(whitebox);
    EXPECT_THROW((void)decode_pwcet_checkpoint(whitebox_bytes),
                 CheckpointError);
    std::remove(temp_path("wb_kind").c_str());
}

TEST(MergeWhitebox, SliceThenMergeIsBitIdenticalToMonolithic) {
    for (const std::uint64_t seed : {7ull, 23ull}) {
        const Scenario scenario = small_scenario(seed);

        Session monolithic;
        monolithic.jobs(1);
        const engine::WhiteboxCampaignResult reference =
            monolithic.whitebox(scenario);

        for (const std::size_t slices : {1u, 3u}) {
            for (const std::size_t jobs : {1u, 4u}) {
                std::vector<std::string> paths;
                Session worker;
                worker.jobs(jobs);
                for (std::size_t i = 0; i < slices; ++i) {
                    const std::string path = temp_path(
                        "wbslice_" + std::to_string(seed) + "_" +
                        std::to_string(slices) + "_" +
                        std::to_string(jobs) + "_" + std::to_string(i));
                    (void)worker.checkpoint(scenario, {i, slices}, path);
                    paths.push_back(path);
                }
                Session merger;
                const MergedWhiteboxCampaign merged =
                    merger.merge_whitebox(paths);
                const std::string label =
                    "seed " + std::to_string(seed) + " slices " +
                    std::to_string(slices) + " jobs " +
                    std::to_string(jobs);
                EXPECT_EQ(merged.result.et_isolation, reference.et_isolation)
                    << label;
                EXPECT_EQ(merged.result.nr, reference.nr) << label;
                expect_same_whitebox(merged.result.stats, reference.stats,
                                     label);
                for (const std::string& path : paths) {
                    std::remove(path.c_str());
                }
            }
        }
    }
}

TEST(MergeWhitebox, RejectsMismatchedAndIncompleteSlices) {
    Session session;
    session.jobs(2);
    const std::string p0 = temp_path("wb_rej_0");
    const std::string p1 = temp_path("wb_rej_1");
    (void)session.checkpoint(small_scenario(7), SliceSpec{0, 2}, p0);
    (void)session.checkpoint(small_scenario(7), SliceSpec{1, 2}, p1);

    // Missing slice.
    Session incomplete;
    EXPECT_THROW((void)incomplete.merge_whitebox({p0}), CheckpointError);
    // Duplicate slice.
    Session duplicated;
    EXPECT_THROW((void)duplicated.merge_whitebox({p0, p0, p1}),
                 CheckpointError);
    // Another campaign's slice.
    const std::string other = temp_path("wb_rej_other");
    Session other_session;
    (void)other_session.checkpoint(small_scenario(99), SliceSpec{1, 2},
                                   other);
    Session mismatched;
    EXPECT_THROW((void)mismatched.merge_whitebox({p0, other}),
                 CheckpointError);
    // A pwcet file in a whitebox merge is rejected by payload kind.
    const std::string pwcet_path = temp_path("wb_rej_pwcet");
    Session pwcet_session;
    pwcet_session.jobs(2);
    (void)pwcet_session.checkpoint(small_scenario(7), small_spec(),
                                   SliceSpec{1, 2}, pwcet_path);
    Session cross;
    EXPECT_THROW((void)cross.merge_whitebox({p0, pwcet_path}),
                 CheckpointError);

    std::remove(p0.c_str());
    std::remove(p1.c_str());
    std::remove(other.c_str());
    std::remove(pwcet_path.c_str());
}

}  // namespace
}  // namespace rrb
