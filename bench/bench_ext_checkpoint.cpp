// Extension — checkpointed campaigns: what distributing a pWCET
// campaign actually ships.
//
// The federated-aggregation trick behind `rrbtool pwcet --shard` /
// `rrbtool merge`: each worker folds its slice of the shard plan and
// ships compact accumulator state, never raw runs. This bench makes the
// communication argument concrete — checkpoint bytes per slice vs the
// bytes a raw exec-times transfer would need — verifies the 4-way
// slice-then-merge reproduces the monolithic campaign bit for bit, and
// times the codec (encode / decode / merge) to show the fan-in cost is
// noise next to the simulation itself.
#include <cinttypes>
#include <cstdio>

#include "fig_common.h"

using namespace rrb;

namespace {

constexpr std::size_t kRuns = 20'000;
constexpr std::size_t kBlockSize = 50;
constexpr std::size_t kSlices = 4;

/// Scratch file for a slice; session.checkpoint always persists, the
/// bench only needs the in-memory return value.
std::string testing_path(std::size_t i) {
    return "/tmp/rrb_bench_ckpt_" + std::to_string(i) + ".ckpt";
}

Scenario bench_scenario() {
    return Scenario::on(MachineConfig::ngmp_ref())
        .scua(make_autobench(Autobench::kCacheb, 0x0100'0000, 40, 5))
        .rsk_contenders(OpKind::kLoad)
        .runs(kRuns)
        .seed(23);
}

PwcetSpec bench_spec() {
    PwcetSpec spec;
    spec.block_size = kBlockSize;
    spec.exceedance = {1e-9};
    return spec;
}

void print_figure() {
    rrbench::print_header(
        "Extension — checkpointed campaigns: slice, ship state, merge",
        "mergeable accumulator state is constant-size-ish per slice "
        "(~runs/block_size live values), so distributing a campaign "
        "ships kilobytes where raw runs would ship megabytes — and the "
        "merged statistics are bit-identical to one monolithic run");

    const Scenario scenario = bench_scenario();
    const PwcetSpec spec = bench_spec();

    Session session;
    const PwcetCampaignResult reference = session.pwcet(scenario, spec);

    std::printf("%8s %14s %14s %12s\n", "slice", "runs", "ckpt bytes",
                "raw bytes");
    std::size_t checkpoint_bytes = 0;
    std::vector<PwcetCheckpoint> checkpoints;
    for (std::size_t i = 0; i < kSlices; ++i) {
        Session worker;
        const std::string path = testing_path(i);
        checkpoints.push_back(
            worker.checkpoint(scenario, spec, {i, kSlices}, path));
        const PwcetCheckpoint& c = checkpoints.back();
        const std::size_t bytes = encode_pwcet_checkpoint(c).size();
        checkpoint_bytes += bytes;
        const std::uint64_t runs = c.meta.last_run - c.meta.first_run;
        std::printf("%8zu %14" PRIu64 " %14zu %12zu\n", i, runs, bytes,
                    static_cast<std::size_t>(runs) * sizeof(Cycle));
        std::remove(path.c_str());
    }

    const MergedPwcetCampaign merged =
        merge_checkpoints(checkpoints);
    const bool identical =
        merged.result.mean == reference.mean &&
        merged.result.stddev == reference.stddev &&
        merged.result.fit.mu == reference.fit.mu &&
        merged.result.fit.beta == reference.fit.beta &&
        merged.result.high_water_mark == reference.high_water_mark;
    std::printf(
        "\n%zu-way merge vs monolithic: %s (hwm %" PRIu64 ", mean %.3f, "
        "pwcet@1e-9 %.0f)\n",
        kSlices, identical ? "bit-identical" : "MISMATCH",
        merged.result.high_water_mark, merged.result.mean,
        merged.result.quantiles.front().pwcet);
    std::printf(
        "total shipped: %zu checkpoint bytes for %zu runs; a raw "
        "exec-times transfer would ship %zu bytes (%zux more)\n",
        checkpoint_bytes, kRuns, kRuns * sizeof(Cycle),
        checkpoint_bytes == 0
            ? 0
            : kRuns * sizeof(Cycle) / checkpoint_bytes);
}

void BM_EncodeCheckpoint(benchmark::State& state) {
    Session session;
    const std::string path = testing_path(99);
    const PwcetCheckpoint checkpoint =
        session.checkpoint(bench_scenario(), bench_spec(), {0, 1}, path);
    std::remove(path.c_str());
    for (auto _ : state) {
        benchmark::DoNotOptimize(encode_pwcet_checkpoint(checkpoint));
    }
}
BENCHMARK(BM_EncodeCheckpoint);

void BM_DecodeCheckpoint(benchmark::State& state) {
    Session session;
    const std::string path = testing_path(98);
    const std::vector<std::uint8_t> bytes = encode_pwcet_checkpoint(
        session.checkpoint(bench_scenario(), bench_spec(), {0, 1}, path));
    std::remove(path.c_str());
    for (auto _ : state) {
        benchmark::DoNotOptimize(decode_pwcet_checkpoint(bytes));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeCheckpoint);

void BM_MergeCheckpoints(benchmark::State& state) {
    std::vector<PwcetCheckpoint> checkpoints;
    for (std::size_t i = 0; i < kSlices; ++i) {
        Session worker;
        const std::string path = testing_path(90 + i);
        checkpoints.push_back(worker.checkpoint(
            bench_scenario(), bench_spec(), {i, kSlices}, path));
        std::remove(path.c_str());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(merge_checkpoints(checkpoints));
    }
}
BENCHMARK(BM_MergeCheckpoints)->Unit(benchmark::kMillisecond);

}  // namespace

RRBENCH_MAIN(print_figure)
