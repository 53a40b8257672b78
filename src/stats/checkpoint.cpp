#include "stats/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "fault/fault.h"
#include "obs/telemetry.h"
#include "sim/contract.h"
#include "sim/fnv.h"

namespace rrb {

namespace {

// 8-byte magic + format version. Bump the version on ANY layout change:
// an old reader must reject a new file (and vice versa) rather than
// misinterpret bytes into plausible-looking statistics.
// v2: a payload-kind byte follows the version (pwcet vs whitebox
// campaign slices share one container format).
constexpr std::uint8_t kMagic[8] = {'R', 'R', 'B', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kFormatVersion = 2;

const char* payload_name(std::uint8_t kind) {
    switch (kind) {
        case engine::PwcetKind::kPayload: return "pwcet";
        case engine::WhiteboxKind::kPayload: return "whitebox";
    }
    return "unknown";
}

/// The trailer checksum over a byte range.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
    Fnv1a hash;
    hash.bytes(bytes);
    return hash.value();
}

[[noreturn]] void corrupt(const std::string& what) {
    throw CheckpointError("corrupt checkpoint: " + what);
}

}  // namespace

// ------------------------------------------------------ writer / reader

void CheckpointWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void CheckpointWriter::u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
}

void CheckpointWriter::u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
        buf_.push_back(static_cast<std::uint8_t>(v >> shift));
    }
}

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t CheckpointReader::u8() {
    if (remaining() < 1) corrupt("truncated (read past end)");
    return bytes_[offset_++];
}

std::uint32_t CheckpointReader::u32() {
    if (remaining() < 4) corrupt("truncated (read past end)");
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
        v |= static_cast<std::uint32_t>(bytes_[offset_++]) << shift;
    }
    return v;
}

std::uint64_t CheckpointReader::u64() {
    if (remaining() < 8) corrupt("truncated (read past end)");
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
        v |= static_cast<std::uint64_t>(bytes_[offset_++]) << shift;
    }
    return v;
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

// ------------------------------------------------------------- codec

void CheckpointCodec::save(CheckpointWriter& w,
                           const StreamingExtremes<Cycle>& a) {
    w.u64(a.count_);
    w.u64(a.min_);
    w.u64(a.max_);
}

StreamingExtremes<Cycle> CheckpointCodec::load_extremes(CheckpointReader& r) {
    StreamingExtremes<Cycle> a;
    a.count_ = r.u64();
    a.min_ = r.u64();
    a.max_ = r.u64();
    if (a.count_ == 0) {
        return StreamingExtremes<Cycle>{};  // canonical empty state
    }
    if (a.min_ > a.max_) corrupt("extremes with min > max");
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w, const StreamingMoments& a) {
    w.u64(a.count_);
    w.f64(a.mean_);
    w.f64(a.m2_);
}

StreamingMoments CheckpointCodec::load_moments(CheckpointReader& r) {
    StreamingMoments a;
    a.count_ = r.u64();
    a.mean_ = r.f64();
    a.m2_ = r.f64();
    // No finiteness check: a campaign that folded a NaN observation has
    // NaN moments, and the round-trip must reproduce that state
    // bit-exactly rather than launder it.
    if (a.count_ == 0) return StreamingMoments{};
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w,
                           const StreamingBlockMaxima& a) {
    w.u64(a.block_size_);
    w.u64(a.count_);
    w.u64(a.blocks_.size());
    for (const auto& [index, block] : a.blocks_) {
        w.u64(index);
        w.f64(block.max);
        w.u64(block.filled);
    }
}

StreamingBlockMaxima CheckpointCodec::load_block_maxima(CheckpointReader& r) {
    const std::uint64_t block_size = r.u64();
    if (block_size == 0) corrupt("block maxima with block size 0");
    StreamingBlockMaxima a(static_cast<std::size_t>(block_size));
    a.count_ = r.u64();
    const std::uint64_t n = r.u64();
    std::uint64_t filled_total = 0;
    std::uint64_t previous_index = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t index = r.u64();
        if (i > 0 && index <= previous_index) {
            corrupt("block indices out of order");
        }
        previous_index = index;
        StreamingBlockMaxima::Block block;
        block.max = r.f64();
        block.filled = r.u64();
        if (block.filled == 0 || block.filled > block_size) {
            corrupt("block fill outside [1, block_size]");
        }
        filled_total += block.filled;
        a.blocks_.emplace(index, block);
    }
    if (filled_total != a.count_) {
        corrupt("block fills do not sum to the observation count");
    }
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w,
                           const StreamingPeaksOverThreshold& a) {
    w.f64(a.threshold_);
    w.u64(a.count_);
    w.u64(a.exceedances_.size());
    for (const double v : a.exceedances_) w.f64(v);
}

StreamingPeaksOverThreshold CheckpointCodec::load_pot(CheckpointReader& r) {
    const double threshold = r.f64();
    StreamingPeaksOverThreshold a(threshold);
    a.count_ = r.u64();
    const std::uint64_t n = r.u64();
    if (n > a.count_) corrupt("more exceedances than observations");
    if (n > r.remaining() / 8) corrupt("exceedances run past the file");
    a.exceedances_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        const double v = r.f64();
        if (!(v > threshold)) corrupt("exceedance not above the threshold");
        a.exceedances_.push_back(v);
    }
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w, const Histogram& a) {
    const auto buckets = a.buckets();
    w.u64(buckets.size());
    for (const auto& [value, count] : buckets) {
        w.u64(value);
        w.u64(count);
    }
}

Histogram CheckpointCodec::load_histogram(CheckpointReader& r) {
    Histogram a;
    const std::uint64_t n = r.u64();
    std::uint64_t previous_value = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t value = r.u64();
        const std::uint64_t count = r.u64();
        if (i > 0 && value <= previous_value) {
            corrupt("histogram buckets out of order");
        }
        previous_value = value;
        if (count == 0) corrupt("histogram bucket with zero count");
        a.add(value, count);
    }
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w, const Series& a) {
    w.u64(a.size());
    for (const double v : a.values()) w.f64(v);
}

Series CheckpointCodec::load_series(CheckpointReader& r) {
    const std::uint64_t n = r.u64();
    if (n > r.remaining() / 8) corrupt("series runs past the file");
    std::vector<double> values;
    values.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) values.push_back(r.f64());
    return Series(std::move(values));
}

void CheckpointCodec::save(CheckpointWriter& w,
                           const WhiteboxAccumulator& a) {
    w.u64(a.runs_);
    w.u64(a.max_gamma_);
    save(w, a.gamma_);
    save(w, a.ready_contenders_);
    save(w, a.injection_delta_);
    save(w, a.exec_times_);
    save(w, a.extremes_);
}

WhiteboxAccumulator CheckpointCodec::load_whitebox(CheckpointReader& r) {
    WhiteboxAccumulator a;
    a.runs_ = r.u64();
    a.max_gamma_ = r.u64();
    a.gamma_ = load_histogram(r);
    a.ready_contenders_ = load_histogram(r);
    a.injection_delta_ = load_histogram(r);
    a.exec_times_ = load_series(r);
    a.extremes_ = load_extremes(r);
    if (a.exec_times_.size() != a.runs_ || a.extremes_.count() != a.runs_) {
        corrupt("white-box sample sizes disagree with the run count");
    }
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w, const PwcetAccumulator& a) {
    save(w, a.extremes_);
    save(w, a.moments_);
    save(w, a.blocks_);
}

PwcetAccumulator CheckpointCodec::load_pwcet(CheckpointReader& r) {
    const StreamingExtremes<Cycle> extremes = load_extremes(r);
    const StreamingMoments moments = load_moments(r);
    StreamingBlockMaxima blocks = load_block_maxima(r);
    if (extremes.count() != moments.count() ||
        extremes.count() != blocks.count()) {
        corrupt("pwcet accumulator parts disagree on the run count");
    }
    PwcetAccumulator a(blocks.block_size());
    a.extremes_ = extremes;
    a.moments_ = moments;
    a.blocks_ = std::move(blocks);
    return a;
}

void CheckpointCodec::save(CheckpointWriter& w,
                           const AttributionAccumulator& a) {
    w.u64(a.num_cores_);
    w.u64(a.runs_);
    w.u64(a.machine_cycles_);
    for (const std::uint64_t v : a.timeline_) w.u64(v);
    for (const std::uint64_t v : a.blame_) w.u64(v);
    for (const std::uint64_t v : a.dead_) w.u64(v);
}

AttributionAccumulator CheckpointCodec::load_attribution(
    CheckpointReader& r) {
    AttributionAccumulator a;
    a.num_cores_ = static_cast<std::size_t>(r.u64());
    a.runs_ = r.u64();
    a.machine_cycles_ = r.u64();
    if (a.num_cores_ == 0) {
        if (a.runs_ != 0 || a.machine_cycles_ != 0) {
            corrupt("attribution runs without cores");
        }
        return AttributionAccumulator{};  // canonical empty state
    }
    if (a.num_cores_ > 1024) corrupt("implausible attribution core count");
    a.timeline_.resize(a.num_cores_ * kStallCauseCount);
    a.blame_.resize(a.num_cores_ * a.num_cores_);
    a.dead_.resize(a.num_cores_);
    for (std::uint64_t& v : a.timeline_) v = r.u64();
    for (std::uint64_t& v : a.blame_) v = r.u64();
    for (std::uint64_t& v : a.dead_) v = r.u64();
    // Closed accounting survives the trip: every core's timeline must
    // still sum to the accumulated machine cycles.
    for (CoreId c = 0; c < a.num_cores_; ++c) {
        if (a.core_total(c) != a.machine_cycles_) {
            corrupt("attribution timeline does not close");
        }
    }
    return a;
}

// -------------------------------------------------- campaign checkpoint

obs::CampaignInfo telemetry_info(const CheckpointMeta& meta) {
    obs::CampaignInfo info;
    info.scenario_fingerprint = meta.scenario_fingerprint;
    info.seed = meta.seed;
    info.total_runs = meta.total_runs;
    info.block_size = meta.block_size;
    info.shard_size = meta.shard_size;
    info.plan_shards = meta.plan_shards;
    info.first_run = meta.first_run;
    info.last_run = meta.last_run;
    info.slice_index = meta.slice_index;
    info.slice_count = meta.slice_count;
    return info;
}

std::uint64_t shard_plan_hash(std::uint64_t total_runs,
                              std::uint64_t shard_size,
                              std::uint64_t plan_shards) {
    Fnv1a hash;
    hash.u64(total_runs);
    hash.u64(shard_size);
    hash.u64(plan_shards);
    return hash.value();
}

namespace {

void encode_meta(CheckpointWriter& w, const CheckpointMeta& meta) {
    w.u64(meta.scenario_fingerprint);
    w.u64(meta.seed);
    w.u64(meta.total_runs);
    w.u64(meta.block_size);
    w.u64(meta.shard_size);
    w.u64(meta.plan_shards);
    w.u64(meta.shard_plan_hash);
    w.u64(meta.slice_index);
    w.u64(meta.slice_count);
    w.u64(meta.first_run);
    w.u64(meta.last_run);
    w.u64(meta.et_isolation);
    w.u64(meta.nr);
    w.u64(meta.ubd_analytic);
    w.u64(meta.exceedance.size());
    for (const double e : meta.exceedance) w.f64(e);
}

CheckpointMeta decode_meta(CheckpointReader& r) {
    CheckpointMeta meta;
    meta.scenario_fingerprint = r.u64();
    meta.seed = r.u64();
    meta.total_runs = r.u64();
    meta.block_size = r.u64();
    meta.shard_size = r.u64();
    meta.plan_shards = r.u64();
    meta.shard_plan_hash = r.u64();
    meta.slice_index = r.u64();
    meta.slice_count = r.u64();
    meta.first_run = r.u64();
    meta.last_run = r.u64();
    meta.et_isolation = r.u64();
    meta.nr = r.u64();
    meta.ubd_analytic = r.u64();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        meta.exceedance.push_back(r.f64());
    }
    if (meta.total_runs == 0 || meta.total_runs > kMaxCampaignRuns) {
        corrupt("run count " + std::to_string(meta.total_runs) +
                " outside [1, " + std::to_string(kMaxCampaignRuns) + "]");
    }
    // The plan is a pure function of the run count: a checkpoint whose
    // plan fields disagree with it was written under another plan (or
    // crafted), and its shards must never index plan-sized tables.
    const engine::ReducePlan plan =
        engine::ReducePlan::for_count(meta.total_runs);
    if (meta.shard_size != plan.shard_size ||
        meta.plan_shards != plan.shards() ||
        meta.shard_plan_hash != shard_plan_hash(meta.total_runs,
                                                meta.shard_size,
                                                meta.plan_shards)) {
        throw CheckpointError(
            "checkpoint was written under a different shard plan "
            "(engine version mismatch?) — re-run the campaign instead of "
            "merging across plans");
    }
    if (meta.first_run > meta.last_run || meta.last_run > meta.total_runs) {
        corrupt("run range outside the campaign");
    }
    return meta;
}

/// What the codec knows per checkpointable kind beyond engine/reduce.h:
/// how a shard loads, how many runs it folded, which metadata is valid
/// for it, and the kind (with its parameters) the metadata describes.
template <typename Kind>
struct Payload;

template <>
struct Payload<engine::PwcetKind> {
    static PwcetAccumulator load(CheckpointReader& r) {
        return CheckpointCodec::load_pwcet(r);
    }
    static std::uint64_t runs(const PwcetAccumulator& a) {
        return a.extremes().count();
    }
    static void check(const CheckpointMeta& meta) {
        if (meta.block_size == 0) corrupt("block size 0");
    }
    static void check(const PwcetAccumulator& shard,
                      const CheckpointMeta& meta) {
        if (shard.blocks().block_size() != meta.block_size) {
            corrupt("shard block size disagrees with the metadata");
        }
    }
    static engine::PwcetKind kind(const CheckpointMeta& meta) {
        return {static_cast<std::size_t>(meta.block_size), meta.exceedance};
    }
};

template <>
struct Payload<engine::WhiteboxKind> {
    static WhiteboxAccumulator load(CheckpointReader& r) {
        return CheckpointCodec::load_whitebox(r);
    }
    static std::uint64_t runs(const WhiteboxAccumulator& a) {
        return a.runs();
    }
    static void check(const CheckpointMeta& meta) {
        if (meta.block_size != 0 || !meta.exceedance.empty()) {
            corrupt("whitebox checkpoint carrying EVT parameters");
        }
    }
    static void check(const WhiteboxAccumulator&, const CheckpointMeta&) {}
    static engine::WhiteboxKind kind(const CheckpointMeta&) { return {}; }
};

}  // namespace

namespace {

/// Shared container prolog: magic + version + payload kind byte, with
/// the whole file (checksum, payload) still to be read by the caller.
void encode_header(CheckpointWriter& w, std::uint8_t kind) {
    for (const std::uint8_t b : kMagic) w.u8(b);
    w.u32(kFormatVersion);
    w.u8(kind);
}

/// Appends the trailer checksum over everything written so far.
std::vector<std::uint8_t> seal(const CheckpointWriter& w) {
    std::vector<std::uint8_t> bytes = w.bytes();
    const std::uint64_t checksum = fnv1a(bytes);
    CheckpointWriter trailer;
    trailer.u64(checksum);
    bytes.insert(bytes.end(), trailer.bytes().begin(),
                 trailer.bytes().end());
    return bytes;
}

/// Verifies magic, checksum, version and payload kind; returns a reader
/// positioned at the metadata.
CheckpointReader open_checkpoint(std::span<const std::uint8_t> bytes,
                                 std::uint8_t expected_kind) {
    if (bytes.size() < sizeof(kMagic) + 4 + 1 + 8) {
        corrupt("too short to hold a header");
    }
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
        if (bytes[i] != kMagic[i]) {
            throw CheckpointError("not a checkpoint (bad magic bytes)");
        }
    }
    // Verify the trailer checksum before trusting any field beyond the
    // magic: a flipped byte must fail here, not parse into plausible
    // statistics.
    const std::span<const std::uint8_t> body =
        bytes.subspan(0, bytes.size() - 8);
    CheckpointReader trailer(bytes.subspan(bytes.size() - 8));
    if (fnv1a(body) != trailer.u64()) {
        corrupt("checksum mismatch (truncated or corrupted file)");
    }

    CheckpointReader r(body.subspan(sizeof(kMagic)));
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion) {
        throw CheckpointError(
            "unsupported checkpoint format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(kFormatVersion) + ")");
    }
    const std::uint8_t kind = r.u8();
    if (kind != expected_kind) {
        throw CheckpointError(
            std::string("checkpoint holds a ") + payload_name(kind) +
            " campaign, not a " + payload_name(expected_kind) +
            " one — refusing to merge across campaign kinds");
    }
    return r;
}

}  // namespace

template <typename Kind>
std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint<Kind>& checkpoint) {
    CheckpointWriter w;
    encode_header(w, Kind::kPayload);
    encode_meta(w, checkpoint.meta);
    w.u64(checkpoint.first_shard);
    w.u64(checkpoint.shards.size());
    for (const auto& shard : checkpoint.shards) {
        CheckpointCodec::save(w, shard);
    }
    return seal(w);
}

template <typename Kind>
CampaignCheckpoint<Kind> decode_checkpoint(
    std::span<const std::uint8_t> bytes) {
    using P = Payload<Kind>;
    try {
        CheckpointReader r = open_checkpoint(bytes, Kind::kPayload);
        CampaignCheckpoint<Kind> checkpoint;
        checkpoint.meta = decode_meta(r);
        const CheckpointMeta& meta = checkpoint.meta;
        P::check(meta);
        checkpoint.first_shard = r.u64();
        const std::uint64_t n_shards = r.u64();
        // Overflow-proof range check: `first_shard + n_shards` could
        // wrap and slip a huge first_shard past the bound, and these
        // indices go on to address plan-sized vectors in merge/resume.
        if (checkpoint.first_shard > meta.plan_shards ||
            n_shards > meta.plan_shards - checkpoint.first_shard) {
            corrupt("shard range outside the plan");
        }
        const engine::ReducePlan plan =
            engine::ReducePlan::for_count(meta.total_runs);
        const auto first = static_cast<std::size_t>(checkpoint.first_shard);
        const engine::ReducePlan::ShardRange range{
            first, first + static_cast<std::size_t>(n_shards)};
        if (meta.last_run - meta.first_run != plan.runs(range) ||
            (range.size() > 0 && meta.first_run != plan.shard_begin(first))) {
            corrupt("run range disagrees with the shard range");
        }
        checkpoint.shards.reserve(range.size());
        for (std::size_t s = range.first; s < range.last; ++s) {
            auto shard = P::load(r);
            P::check(shard, meta);
            if (P::runs(shard) != plan.shard_end(s) - plan.shard_begin(s)) {
                corrupt("shard " + std::to_string(s) +
                        " does not hold its plan shard's runs");
            }
            checkpoint.shards.push_back(std::move(shard));
        }
        if (r.remaining() != 0) corrupt("trailing bytes after the payload");
        return checkpoint;
    } catch (const CheckpointError&) {
        throw;
    } catch (const std::exception& e) {
        // An accumulator invariant or allocation failing on hostile
        // bytes is still bad data, not an internal error.
        corrupt(e.what());
    }
}

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw CheckpointError(CheckpointError::Kind::kIo, path,
                              "could not open checkpoint file");
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad()) {
        throw CheckpointError(CheckpointError::Kind::kIo, path,
                              "could not read checkpoint file");
    }
    return bytes;
}

[[noreturn]] void io_error(int fd, const std::string& path,
                           const std::string& reason) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    throw CheckpointError(
        CheckpointError::Kind::kIo, path,
        err != 0 ? reason + " (" + std::strerror(err) + ")" : reason);
}

/// Every save is numbered process-wide so fault specs can target "the
/// Nth save" (ckpt-truncate:2) regardless of which campaign issues it.
std::uint64_t next_save_sequence() {
    static std::atomic<std::uint64_t> sequence{0};
    return sequence.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Crash-safe publication: write <path>.tmp in the same directory (a
// rename must not cross filesystems), fsync the data, rename over
// `path`, fsync the directory so the rename itself is durable. The
// final path only ever holds a complete old file or a complete new
// file; every injected or real failure before the rename leaves at
// worst a stale .tmp no loader reads. The fault hooks simulate a crash
// at each stage by throwing *after* producing exactly the on-disk
// state the crash would leave.
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t sequence = next_save_sequence();
    const std::string tmp = path + ".tmp";
    errno = 0;
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) io_error(-1, path, "could not create " + tmp);
    std::size_t limit = bytes.size();
    const bool torn =
        fault::should_fire(fault::Site::kCheckpointTruncate, sequence);
    if (torn) limit /= 2;  // the crash lands mid-payload
    std::size_t written = 0;
    while (written < limit) {
        const ::ssize_t n = ::write(fd, bytes.data() + written,
                                    limit - written);
        if (n < 0) {
            if (errno == EINTR) continue;
            io_error(fd, path, "could not write " + tmp);
        }
        written += static_cast<std::size_t>(n);
    }
    if (torn) {
        ::close(fd);
        errno = 0;
        io_error(-1, path,
                 "injected crash left a torn temp file " + tmp);
    }
    if (fault::should_fire(fault::Site::kCheckpointFsync, sequence)) {
        ::close(fd);
        errno = 0;
        io_error(-1, path, "injected fsync failure on " + tmp);
    }
    if (::fsync(fd) != 0) io_error(fd, path, "could not fsync " + tmp);
    if (::close(fd) != 0) io_error(-1, path, "could not close " + tmp);
    if (fault::should_fire(fault::Site::kCheckpointRename, sequence)) {
        errno = 0;
        io_error(-1, path,
                 "injected rename failure publishing " + tmp);
    }
    errno = 0;
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        io_error(-1, path, "could not rename " + tmp + " into place");
    }
    // Durability of the rename: fsync the containing directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    errno = 0;
    const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd < 0) io_error(-1, path, "could not open directory " + dir);
    if (::fsync(dirfd) != 0) {
        io_error(dirfd, path, "could not fsync directory " + dir);
    }
    ::close(dirfd);
}

}  // namespace

std::string quarantine_checkpoint(const std::string& path) {
    const std::string target = path + ".corrupt";
    errno = 0;
    if (std::rename(path.c_str(), target.c_str()) != 0) {
        io_error(-1, path, "could not quarantine to " + target);
    }
    obs::count(obs::kCheckpointsQuarantined);
    return target;
}

template <typename Kind>
void save_checkpoint(const std::string& path,
                     const CampaignCheckpoint<Kind>& checkpoint) {
    write_file(path, encode_checkpoint(checkpoint));
}

template <typename Kind>
CampaignCheckpoint<Kind> load_checkpoint(const std::string& path) {
    try {
        return decode_checkpoint<Kind>(read_file(path));
    } catch (const CheckpointError& e) {
        if (!e.path().empty()) throw;
        throw CheckpointError(e.kind(), path, e.reason());
    }
}

// ----------------------------------------------------------- merge

void require_same_campaign(const CheckpointMeta& meta,
                           const CheckpointMeta& reference,
                           const std::string& source,
                           const std::string& reference_name) {
    const auto mismatch = [&](const char* what) {
        throw CheckpointError(
            CheckpointError::Kind::kMismatch, source,
            std::string(what) + " differs from " + reference_name +
                " — these checkpoints are not slices of one campaign");
    };
    if (meta.scenario_fingerprint != reference.scenario_fingerprint) {
        mismatch("scenario fingerprint");
    }
    if (meta.seed != reference.seed) mismatch("campaign seed");
    if (meta.total_runs != reference.total_runs) mismatch("run count");
    if (meta.block_size != reference.block_size) mismatch("block size");
    // The plan fields individually, not just their hash: callers size
    // shard-coverage tables by plan_shards, so a checkpoint written
    // under a different plan must never get as far as indexing them —
    // even under a hash collision.
    if (meta.shard_plan_hash != reference.shard_plan_hash ||
        meta.shard_size != reference.shard_size ||
        meta.plan_shards != reference.plan_shards) {
        mismatch("shard plan");
    }
    if (meta.exceedance != reference.exceedance) {
        mismatch("exceedance list");
    }
    if (meta.et_isolation != reference.et_isolation ||
        meta.nr != reference.nr) {
        mismatch("isolation baseline");
    }
    if (meta.ubd_analytic != reference.ubd_analytic) {
        mismatch("analytic ubd");
    }
}

template <typename Kind>
MergedCampaign<Kind> merge_checkpoints(
    std::vector<CampaignCheckpoint<Kind>> checkpoints,
    const std::vector<std::string>& sources) {
    if (checkpoints.empty()) {
        throw CheckpointError("merge needs at least one checkpoint");
    }
    const auto source = [&](std::size_t i) {
        return i < sources.size() ? sources[i]
                                  : "checkpoint #" + std::to_string(i + 1);
    };

    const CheckpointMeta& reference = checkpoints.front().meta;
    for (std::size_t i = 1; i < checkpoints.size(); ++i) {
        require_same_campaign(checkpoints[i].meta, reference, source(i),
                              source(0));
    }

    // Coverage: every plan shard exactly once — a duplicate slice (the
    // same shard from two files) is as wrong as a missing one. The
    // table is plan-sized, which decode bounded via for_count.
    constexpr std::size_t kNobody = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> owner(
        static_cast<std::size_t>(reference.plan_shards), kNobody);
    std::vector<typename Kind::Accumulator> by_shard(owner.size());
    for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        CampaignCheckpoint<Kind>& checkpoint = checkpoints[i];
        for (std::size_t s = 0; s < checkpoint.shards.size(); ++s) {
            const std::size_t index =
                static_cast<std::size_t>(checkpoint.first_shard) + s;
            if (owner[index] != kNobody) {
                throw CheckpointError(
                    "duplicate slice: shard " + std::to_string(index) +
                    " appears in both " + source(owner[index]) + " and " +
                    source(i));
            }
            owner[index] = i;
            by_shard[index] = std::move(checkpoint.shards[s]);
        }
    }
    for (std::size_t index = 0; index < owner.size(); ++index) {
        if (owner[index] == kNobody) {
            throw CheckpointError(
                "incomplete campaign: shard " + std::to_string(index) +
                " of " + std::to_string(owner.size()) +
                " is covered by no checkpoint");
        }
    }

    // The monolithic merge sequence: left-fold in shard-index order
    // (which also puts a series back in run order), then finalize.
    try {
        return {reference,
                Payload<Kind>::kind(reference).finalize(
                    engine::merge_in_order(by_shard),
                    reference.et_isolation, reference.nr)};
    } catch (const std::exception& e) {
        throw CheckpointError("merge failed: " + std::string(e.what()));
    }
}

template <typename Kind>
MergedCampaign<Kind> merge_checkpoint_files(
    const std::vector<std::string>& paths) {
    RRB_REQUIRE(!paths.empty(), "merge needs at least one checkpoint file");
    std::vector<CampaignCheckpoint<Kind>> checkpoints;
    checkpoints.reserve(paths.size());
    for (const std::string& path : paths) {
        checkpoints.push_back(load_checkpoint<Kind>(path));
    }
    return merge_checkpoints(std::move(checkpoints), paths);
}

#define RRB_CHECKPOINT_KIND(Kind)                                          \
    template std::vector<std::uint8_t> encode_checkpoint(                  \
        const CampaignCheckpoint<Kind>&);                                  \
    template CampaignCheckpoint<Kind> decode_checkpoint<Kind>(             \
        std::span<const std::uint8_t>);                                    \
    template void save_checkpoint(const std::string&,                      \
                                  const CampaignCheckpoint<Kind>&);        \
    template CampaignCheckpoint<Kind> load_checkpoint<Kind>(               \
        const std::string&);                                               \
    template MergedCampaign<Kind> merge_checkpoints(                       \
        std::vector<CampaignCheckpoint<Kind>>,                             \
        const std::vector<std::string>&);                                  \
    template MergedCampaign<Kind> merge_checkpoint_files<Kind>(            \
        const std::vector<std::string>&);
RRB_CHECKPOINT_KIND(engine::PwcetKind)
RRB_CHECKPOINT_KIND(engine::WhiteboxKind)
#undef RRB_CHECKPOINT_KIND

}  // namespace rrb
