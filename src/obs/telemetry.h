// Telemetry: out-of-band observability for campaigns.
//
// A campaign's evidence is only as trustworthy as the record of what was
// actually measured. This module gives every layer — engine, session,
// CLI — one place to report *how* a campaign executed (runs completed,
// cycles simulated, events skipped, lease hits, per-shard wall time)
// without ever touching *what* it computed: every hook is strictly
// out-of-band, so campaign results are bit-identical with telemetry
// enabled, disabled, or compiled out (tests/test_telemetry.cpp asserts
// exactly that on CLI output).
//
// Design:
//
//   * Counters live in per-worker CounterBlocks. A worker thread bumps
//     its own cache-line-aligned block with relaxed atomics — no locks,
//     no sharing — and the registry sums the blocks on read. This is the
//     same discipline as the campaign shards: per-worker state,
//     merged by the reader, so the hot path never synchronizes.
//   * Deterministic counters (runs completed, cycles simulated, events
//     skipped) obey a merge law: the merged total is identical at every
//     --jobs value, because the work they count is. Timing counters
//     (wall-ns, busy-ns) are genuinely nondeterministic and carry the
//     schedule instead.
//   * Spans are hierarchical (campaign -> grid point -> shard) with
//     monotonic-clock timestamps. Spans are rare (per campaign / grid
//     point / shard, never per run), so a mutex-guarded record list is
//     fine where a per-run counter would not be.
//   * Disabled is the default and costs one relaxed atomic load per
//     hook. Compiling with RRB_NO_TELEMETRY removes even that (the
//     hooks become empty inline functions) — the reference point for
//     bench_hotpath's overhead measurement.
//
// The registry is a process-lifetime singleton: worker blocks are
// registered once per thread and never freed, so a cached thread-local
// block pointer can never dangle, whatever order pools and sessions are
// torn down in.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rrb::obs {

/// Counter identities. Sum-merged across worker blocks on read; the
/// comment says who bumps it and whether it is deterministic (equal at
/// every --jobs value) or a timing observation.
enum Counter : unsigned {
    kRunsCompleted = 0,  ///< campaign runs finished (deterministic)
    kCyclesSimulated,    ///< sum of run finish cycles (deterministic)
    kEventsSkipped,      ///< event-driven fast-forwards taken (determ.)
    kCyclesSkipped,      ///< cycles fast-forwarded over (deterministic)
    kLeaseHits,          ///< MachineLease found a cached machine
    kLeaseMisses,        ///< MachineLease constructed a machine
    kLeaseEvictions,     ///< cached machines destroyed by the LRU cap
    kJobsSubmitted,      ///< ThreadPool::submit calls
    kJobsExecuted,       ///< ThreadPool jobs run to completion
    kWorkerBusyNs,       ///< wall-ns workers spent inside jobs (timing)
    kShardsCompleted,    ///< reduce shards folded (deterministic)
    kShardWallNs,        ///< summed per-shard wall-ns (timing)
    kSchedItemsEnqueued, ///< scheduler work items queued (deterministic)
    kSchedDispatches,    ///< scheduler work items handed to a worker
    kSchedAffinityHits,  ///< dispatch matched the worker's hot lease
    kSchedSteals,        ///< dispatch crossed fingerprints (or first item)
    kReplayDecodes,      ///< micro-op scripts decoded (deterministic)
    kReplayRuns,         ///< campaign runs executed in replay mode
    kHeapAllocations,    ///< operator-new count (bench interposer)
    kSchedRetries,       ///< work-item attempts retried after a
                         ///< transient failure
    kSchedFailures,      ///< campaigns marked failed by the supervisor
    kSchedItemsSkipped,  ///< dispatched items skipped because their
                         ///< campaign had already failed
    kCheckpointsQuarantined,  ///< checkpoint files renamed *.corrupt
    kResumeShardsRerun,  ///< shards re-executed by resume to cover
                         ///< gaps (deterministic given coverage)
    kCounterCount
};

/// Stable snake_case name, used as the JSON key in run reports.
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// A merged point-in-time reading of every counter. Two snapshots
/// subtract into a delta, which is how readers scope "this campaign"
/// out of process-lifetime totals.
struct CounterSnapshot {
    std::array<std::uint64_t, kCounterCount> values{};

    [[nodiscard]] std::uint64_t operator[](Counter c) const noexcept {
        return values[static_cast<std::size_t>(c)];
    }

    /// Per-counter difference against an earlier snapshot, saturating
    /// at zero (counters only grow, but a reset between snapshots must
    /// not wrap into garbage).
    [[nodiscard]] CounterSnapshot delta_since(
        const CounterSnapshot& earlier) const noexcept {
        CounterSnapshot d;
        for (std::size_t i = 0; i < values.size(); ++i) {
            d.values[i] = values[i] >= earlier.values[i]
                              ? values[i] - earlier.values[i]
                              : 0;
        }
        return d;
    }
};

/// One completed (or still-open: end_ns == 0) span. Parent links make
/// the hierarchy: a campaign span owns grid-point spans owns shard
/// spans, across threads (the submitting thread captures the parent id
/// and hands it to the worker).
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    const char* name = "";     ///< static string, e.g. "session.pwcet"
    std::uint64_t index = 0;   ///< shard / grid-point index
    std::uint64_t items = 0;   ///< work items covered (runs)
    std::uint64_t begin_ns = 0;  ///< monotonic, relative to reset()
    std::uint64_t end_ns = 0;    ///< 0 while the span is open
};

namespace detail {

/// One worker thread's counters. Cache-line aligned so two workers'
/// blocks never share a line; bumped with relaxed atomics only by the
/// owning thread, loaded by readers.
struct alignas(64) CounterBlock {
    std::array<std::atomic<std::uint64_t>, kCounterCount> values{};
};

#if !defined(RRB_NO_TELEMETRY)
extern std::atomic<bool> g_enabled;
/// Registers (once) and returns the calling thread's block.
[[nodiscard]] CounterBlock* acquire_block();
[[nodiscard]] inline CounterBlock*& tls_block() noexcept {
    thread_local CounterBlock* block = nullptr;
    return block;
}
#endif

}  // namespace detail

/// True when telemetry collection is on. Hooks are no-ops otherwise.
[[nodiscard]] inline bool enabled() noexcept {
#if defined(RRB_NO_TELEMETRY)
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/// The hot-path hook: bump counter `c` by `n` on the calling thread's
/// block. One relaxed load (disabled) or one relaxed load + one relaxed
/// add (enabled); nothing when compiled out.
inline void count([[maybe_unused]] Counter c,
                  [[maybe_unused]] std::uint64_t n = 1) noexcept {
#if !defined(RRB_NO_TELEMETRY)
    if (!enabled()) return;
    detail::CounterBlock*& block = detail::tls_block();
    if (block == nullptr) block = detail::acquire_block();
    block->values[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
#endif
}

/// Process-lifetime singleton owning the worker blocks and the span
/// list. Reading merges; nothing the workers do ever locks.
class TelemetryRegistry {
public:
    [[nodiscard]] static TelemetryRegistry& instance();

    /// Turns collection on/off. Enabling also (re)bases the monotonic
    /// clock if it was never set. Disabling leaves recorded state
    /// readable.
    void enable();
    void disable();

    /// Sum of every worker block, per counter.
    [[nodiscard]] CounterSnapshot counters() const;

    /// Copy of the recorded spans, in open order.
    [[nodiscard]] std::vector<SpanRecord> spans() const;

    /// Zeroes every counter block, drops the spans and re-bases the
    /// monotonic clock. Call between campaigns when deltas are not
    /// enough (tests); not thread-safe against a running campaign.
    void reset();

    /// Monotonic nanoseconds since the last reset() (or first enable).
    [[nodiscard]] std::uint64_t now_ns() const;

    /// Worker blocks registered so far (introspection/tests).
    [[nodiscard]] std::size_t worker_blocks() const;

    // ------------------------------------------------------- spans
    /// Opens a span; returns its id (0 when telemetry is disabled —
    /// close_span(0) is a no-op, so RAII wrappers need no branching).
    [[nodiscard]] std::uint64_t open_span(const char* name,
                                          std::uint64_t parent,
                                          std::uint64_t index,
                                          std::uint64_t items);
    void close_span(std::uint64_t id);

private:
    TelemetryRegistry();
    struct Impl;
#if !defined(RRB_NO_TELEMETRY)
    friend detail::CounterBlock* detail::acquire_block();
#endif
    Impl* impl_;  ///< leaked on purpose: see module comment
};

/// Id of the innermost Span open on this thread (0 = none). Capture it
/// before submitting work to a pool to parent the worker's spans.
[[nodiscard]] std::uint64_t current_span() noexcept;

/// RAII span. Parent defaults to the calling thread's current_span();
/// the explicit-parent form crosses threads. No-op when telemetry is
/// disabled.
class Span {
public:
    explicit Span(const char* name, std::uint64_t index = 0,
                  std::uint64_t items = 0);
    Span(const char* name, std::uint64_t parent, std::uint64_t index,
         std::uint64_t items);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

private:
    std::uint64_t id_ = 0;
    std::uint64_t previous_ = 0;  ///< restored as current on close
};

}  // namespace rrb::obs
