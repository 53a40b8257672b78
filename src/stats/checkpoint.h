// Checkpoints: the serialize/deserialize half of "accumulators are
// mergeable", which turns one-process campaigns into distributable ones.
//
// Every streamed accumulator (stats/streaming.h) merges over disjoint
// run ranges, so a pWCET campaign can be split across processes or
// machines: each worker folds a slice of the shard plan, ships its
// compact accumulator state — never the raw runs — and a single merge
// reproduces the monolithic campaign. This module supplies the missing
// round-trip: a versioned, endian-stable, length-checked binary codec
// for the whole accumulator family plus the campaign metadata (scenario
// fingerprint, seed, run range, shard-plan hash) that lets a resume
// reject a mismatched checkpoint loudly instead of merging garbage.
//
// The determinism contract survives the trip because checkpoints store
// *per-plan-shard* accumulators, not a pre-merged slice: the final
// fan-in left-folds all shards in shard-index order — exactly the merge
// sequence the monolithic reduce performs — so even the rounding of the
// Chan-merged floating-point moments is bit-identical however the
// campaign was sliced. Doubles travel as IEEE-754 bit patterns (NaNs
// included), integers as fixed-width little-endian bytes, and the file
// ends in a checksum so truncation and corruption fail before any
// accumulator state is trusted.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "engine/reduce.h"
#include "obs/report.h"
#include "sim/types.h"
#include "stats/attribution.h"
#include "stats/histogram.h"
#include "stats/series.h"
#include "stats/streaming.h"

namespace rrb {

/// Any malformed, truncated, corrupt or mismatched checkpoint: bad
/// magic, unknown version, short reads, checksum failures, and merge
/// rejections (fingerprint / plan / coverage mismatches). Deliberately
/// distinct from std::invalid_argument (caller bugs): a bad checkpoint
/// is bad *data*, typically from another process or machine.
class CheckpointError : public std::runtime_error {
public:
    /// Why the checkpoint was rejected, structured so recovery code
    /// (Session::resume's quarantine scan, the CLI) can act on the
    /// class of failure instead of parsing the message:
    ///   kIo       — the file could not be read/written/renamed
    ///   kCorrupt  — the bytes decode to no valid checkpoint
    ///   kMismatch — a valid checkpoint of a *different* campaign
    enum class Kind { kIo, kCorrupt, kMismatch };

    explicit CheckpointError(const std::string& what)
        : CheckpointError(Kind::kCorrupt, std::string(), what) {}

    CheckpointError(Kind kind, std::string path, std::string reason)
        : std::runtime_error(path.empty() ? reason
                                          : path + ": " + reason),
          kind_(kind),
          path_(std::move(path)),
          reason_(std::move(reason)) {}

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    /// The offending file, empty when the error predates a path (pure
    /// byte-level decode).
    [[nodiscard]] const std::string& path() const noexcept {
        return path_;
    }
    /// The path-free explanation (what() is "path: reason").
    [[nodiscard]] const std::string& reason() const noexcept {
        return reason_;
    }

private:
    Kind kind_ = Kind::kCorrupt;
    std::string path_;
    std::string reason_;
};

/// Little-endian byte encoder. Fixed-width fields only — the format
/// must not depend on host endianness or integer sizes.
class CheckpointWriter {
public:
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// IEEE-754 bit pattern via the u64 path: round-trips every double
    /// bit-exactly, NaN payloads and signed zeros included.
    void f64(double v);

    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
        return buf_;
    }

private:
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder; every read past the end throws
/// CheckpointError — a truncated file can never yield a value.
class CheckpointReader {
public:
    explicit CheckpointReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes) {}

    [[nodiscard]] std::uint8_t u8();
    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] double f64();

    [[nodiscard]] std::size_t remaining() const noexcept {
        return bytes_.size() - offset_;
    }

private:
    std::span<const std::uint8_t> bytes_;
    std::size_t offset_ = 0;
};

/// save/load for the accumulator family. Befriended by the accumulators
/// so raw state (e.g. StreamingMoments' m2) round-trips bit-exactly;
/// loads re-establish every class invariant or throw CheckpointError.
struct CheckpointCodec {
    static void save(CheckpointWriter& w, const StreamingExtremes<Cycle>& a);
    [[nodiscard]] static StreamingExtremes<Cycle> load_extremes(
        CheckpointReader& r);

    static void save(CheckpointWriter& w, const StreamingMoments& a);
    [[nodiscard]] static StreamingMoments load_moments(CheckpointReader& r);

    static void save(CheckpointWriter& w, const StreamingBlockMaxima& a);
    [[nodiscard]] static StreamingBlockMaxima load_block_maxima(
        CheckpointReader& r);

    static void save(CheckpointWriter& w,
                     const StreamingPeaksOverThreshold& a);
    [[nodiscard]] static StreamingPeaksOverThreshold load_pot(
        CheckpointReader& r);

    static void save(CheckpointWriter& w, const Histogram& a);
    [[nodiscard]] static Histogram load_histogram(CheckpointReader& r);

    static void save(CheckpointWriter& w, const Series& a);
    [[nodiscard]] static Series load_series(CheckpointReader& r);

    static void save(CheckpointWriter& w, const WhiteboxAccumulator& a);
    [[nodiscard]] static WhiteboxAccumulator load_whitebox(
        CheckpointReader& r);

    static void save(CheckpointWriter& w, const PwcetAccumulator& a);
    [[nodiscard]] static PwcetAccumulator load_pwcet(CheckpointReader& r);

    static void save(CheckpointWriter& w, const AttributionAccumulator& a);
    [[nodiscard]] static AttributionAccumulator load_attribution(
        CheckpointReader& r);
};

/// Campaign identity a checkpoint carries so resumes and merges can
/// verify they are fan-in of *one* campaign. Two checkpoints belong
/// together iff every field here except the slice/run-range ones is
/// equal; the run range says which part this checkpoint holds.
struct CheckpointMeta {
    /// Scenario::fingerprint() of (config, scua, contenders, protocol).
    std::uint64_t scenario_fingerprint = 0;
    std::uint64_t seed = 0;
    std::uint64_t total_runs = 0;
    std::uint64_t block_size = 0;
    /// The producer's ReducePlan, pinned: shard size, shard count, and a
    /// hash over (total_runs, shard_size, plan_shards). A checkpoint
    /// written under a different plan (e.g. a future engine with another
    /// kTargetShards) must be rejected, not merged into a different tree.
    std::uint64_t shard_size = 1;
    std::uint64_t plan_shards = 0;
    std::uint64_t shard_plan_hash = 0;
    /// Which slice of how many produced this checkpoint (informational;
    /// coverage is validated from the shard payload, not from these).
    std::uint64_t slice_index = 0;
    std::uint64_t slice_count = 1;
    /// Run range [first_run, last_run) this checkpoint's shards cover.
    std::uint64_t first_run = 0;
    std::uint64_t last_run = 0;
    /// Isolation baseline of the campaign (identical for every slice).
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;
    /// Equation-1 per-request bound of the scenario's config, so a merge
    /// can report the ETB verdict without rebuilding the scenario.
    Cycle ubd_analytic = 0;
    /// Exceedance probabilities the final quantiles are quoted at.
    std::vector<double> exceedance;
};

/// The campaign-identity half of a telemetry run report, filled from a
/// checkpoint's metadata: the same fields `merge` validates are the
/// ones that let a collection of shard run-reports be recognized as one
/// distributed campaign.
[[nodiscard]] obs::CampaignInfo telemetry_info(const CheckpointMeta& meta);

/// The hash stored in CheckpointMeta::shard_plan_hash.
[[nodiscard]] std::uint64_t shard_plan_hash(std::uint64_t total_runs,
                                            std::uint64_t shard_size,
                                            std::uint64_t plan_shards);

/// One campaign slice on disk: metadata plus the per-plan-shard
/// accumulators of a checkpointable campaign kind (engine/reduce.h)
/// for shards [first_shard, first_shard + shards.size()). The file
/// format tags its payload kind, so a pwcet checkpoint can never be
/// merged as a white-box one or vice versa. White-box metadata carries
/// block_size 0 and an empty exceedance list (no EVT half exists).
template <typename Kind>
struct CampaignCheckpoint {
    CheckpointMeta meta;
    std::uint64_t first_shard = 0;
    std::vector<typename Kind::Accumulator> shards;
};

using PwcetCheckpoint = CampaignCheckpoint<engine::PwcetKind>;
/// White-box slices distribute the validation-figure campaigns (gamma /
/// ready-contenders / injection histograms plus the run-ordered
/// exec-time series).
using WhiteboxCheckpoint = CampaignCheckpoint<engine::WhiteboxKind>;

/// The codec. Decoding validates the bytes (checksum, version, payload
/// kind) *and* the campaign they describe: the plan must be
/// ReducePlan::for_count(total_runs), the run count within
/// kMaxCampaignRuns, and every shard must hold exactly its plan
/// shard's runs. Any failure throws CheckpointError.
template <typename Kind>
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint<Kind>& checkpoint);
template <typename Kind>
[[nodiscard]] CampaignCheckpoint<Kind> decode_checkpoint(
    std::span<const std::uint8_t> bytes);

/// File forms. Saves are crash-safe: the bytes go to a same-directory
/// temp file (`<path>.tmp`) which is fsynced, renamed over `path`, and
/// the directory fsynced — a crash at any point leaves either the old
/// complete file or the new complete file at `path`, never torn bytes
/// (at worst a stale `.tmp`, which no loader ever reads). Load throws
/// CheckpointError naming the path on any I/O or decode failure.
template <typename Kind>
void save_checkpoint(const std::string& path,
                     const CampaignCheckpoint<Kind>& checkpoint);
template <typename Kind>
[[nodiscard]] CampaignCheckpoint<Kind> load_checkpoint(
    const std::string& path);

[[nodiscard]] inline std::vector<std::uint8_t> encode_pwcet_checkpoint(
    const PwcetCheckpoint& checkpoint) {
    return encode_checkpoint(checkpoint);
}
[[nodiscard]] inline PwcetCheckpoint decode_pwcet_checkpoint(
    std::span<const std::uint8_t> bytes) {
    return decode_checkpoint<engine::PwcetKind>(bytes);
}
inline void save_pwcet_checkpoint(const std::string& path,
                                  const PwcetCheckpoint& checkpoint) {
    save_checkpoint(path, checkpoint);
}
[[nodiscard]] inline PwcetCheckpoint load_pwcet_checkpoint(
    const std::string& path) {
    return load_checkpoint<engine::PwcetKind>(path);
}

/// Takes a bad checkpoint file out of the live set by renaming it to
/// `<path>.corrupt` (overwriting an earlier quarantine of the same
/// path), so a re-run of the same resume/merge never trips over it
/// again, and returns the quarantine path. Bumps the
/// checkpoints_quarantined telemetry counter. Throws
/// CheckpointError(Kind::kIo) if the rename itself fails.
std::string quarantine_checkpoint(const std::string& path);

/// Throws CheckpointError — naming `source` and `reference_name` —
/// unless `meta` identifies the same campaign as `reference`: equal
/// scenario fingerprint, seed, run count, block size, shard plan,
/// exceedance list and isolation baseline. Slice and run-range fields
/// are excluded (they say which *part*, not which campaign). The one
/// identity check behind both merge_checkpoints and Session::resume.
void require_same_campaign(const CheckpointMeta& meta,
                           const CheckpointMeta& reference,
                           const std::string& source,
                           const std::string& reference_name);

/// A merged campaign: the shared identity plus the kind's result.
template <typename Kind>
struct MergedCampaign {
    CheckpointMeta meta;
    typename Kind::Result result;
};

using MergedPwcetCampaign = MergedCampaign<engine::PwcetKind>;
using MergedWhiteboxCampaign = MergedCampaign<engine::WhiteboxKind>;

/// Fan-in: validates the checkpoints are slices of one campaign (equal
/// fingerprint / seed / plan / spec), that their shards cover the whole
/// plan exactly once (duplicates and gaps both throw, naming the shard),
/// then left-folds all shard accumulators in shard-index order — the
/// monolithic merge sequence — and finalizes. `sources` (parallel to
/// `checkpoints`, typically file paths) names offenders in errors; pass
/// {} to report by slice position instead. Every failure, including one
/// inside an accumulator merge, throws CheckpointError.
template <typename Kind>
[[nodiscard]] MergedCampaign<Kind> merge_checkpoints(
    std::vector<CampaignCheckpoint<Kind>> checkpoints,
    const std::vector<std::string>& sources = {});

/// Loads every file and merges them, naming files in errors.
template <typename Kind>
[[nodiscard]] MergedCampaign<Kind> merge_checkpoint_files(
    const std::vector<std::string>& paths);

}  // namespace rrb
