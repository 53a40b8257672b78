// Deterministic fault injection: the testing twin of src/obs/.
//
// Long checkpointed campaigns die in ways unit tests never exercise —
// a disk fills mid-checkpoint, a worker throws on one shard of one
// campaign, an fsync fails under memory pressure. This module lets
// tests and CI *schedule* those failures deterministically, at named
// sites the production code declares, so the recovery machinery
// (crash-safe checkpoint writes, the supervised scheduler, resume
// quarantine) can be proven correct by differential test instead of
// trusted by inspection.
//
// Design, mirroring src/obs/telemetry.h exactly:
//
//   * Disarmed is the default and costs one relaxed atomic load per
//     hook (`should_fire` returns false without touching the
//     injector). Every site sits off the per-run hot path — saves,
//     shard boundaries, decode — so campaigns are bit-identical and
//     hot-path rate is unchanged whether the hooks exist or not
//     (tests/test_fault.cpp asserts the bit-identity the same way
//     tests/test_telemetry.cpp does for counters).
//   * Compiling with RRB_NO_FAULTS removes even the load: the hooks
//     become constant-false inline functions and the optimizer deletes
//     the failure branches.
//   * Armed evaluation is deliberately boring: a mutex-guarded rule
//     walk. Sites fire at most once per shard / save / campaign, never
//     per run, so correctness (and TSan cleanliness) beats lock-free
//     cleverness here.
//
// Faults are armed from a spec string — by tests through
// `FaultInjector::instance().arm(spec)`, or for whole-process smoke
// tests through the `RRB_FAULTS` environment variable, which the CLI
// reads once per `cli::run` (see ScopedEnvArm). Spec grammar, entries
// comma-separated:
//
//   spec    := entry ("," entry)*
//   entry   := "seed=" N            set the injector seed (rate mode)
//            | site ["@" KEY] [":" trigger]
//   trigger := "*"                  fire on every matching evaluation
//            | FIRST ["+" COUNT]    fire on matching evaluations
//                                   [FIRST, FIRST+COUNT), 1-based;
//                                   COUNT defaults to 1
//            | "~" RATE             fire when the seed-derived hash of
//                                   the evaluation index is 0 mod RATE
//
// No trigger means "*". "@KEY" restricts a rule to evaluations carrying
// that key; a rule without "@" matches every key. What the key means is
// the site's contract: the scheduler sites (shard-throw, transient-io)
// are keyed by campaign index in submission order within one scheduler
// batch — a single-campaign Session call (pwcet, whitebox, attribution,
// hwm, one checkpoint slice) is campaign 0, a batch or sweep numbers its
// scenarios / grid points, resume numbers its uncovered shard ranges in
// shard order — checkpoint sites by save sequence number,
// decode-overflow by decode sequence number.
//
// Examples:
//   RRB_FAULTS='shard-throw@1:1'        first work item of campaign 1
//                                       throws; campaigns 0, 2, ... run
//                                       to completion
//   RRB_FAULTS='transient-io@0:1+2'     campaign 0's first item fails
//                                       twice, then succeeds — exercises
//                                       the scheduler's retry budget
//   RRB_FAULTS='ckpt-truncate:1'        the next checkpoint save tears
//                                       its temp file and "crashes"
//   RRB_FAULTS='seed=9,decode-overflow:~3'
//                                       roughly every third decode
//                                       overflows, chosen by seed 9
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace rrb::fault {

/// Named injection sites. Each is declared by exactly one production
/// call site; the comment names the failure it simulates and the key
/// the site evaluates with.
enum class Site : unsigned {
    kCheckpointTruncate = 0,  ///< crash mid-write: torn temp file left
                              ///< behind (key: save sequence number)
    kCheckpointFsync,         ///< fsync of the temp file fails (key:
                              ///< save sequence number)
    kCheckpointRename,        ///< rename into place fails (key: save
                              ///< sequence number)
    kShardThrow,              ///< worker throws mid-campaign (key:
                              ///< campaign index in the scheduler)
    kDecodeOverflow,          ///< replay decode reports overflow and
                              ///< falls back to the interpreter (key:
                              ///< decode sequence number)
    kTransientIo,             ///< retryable transient failure, thrown
                              ///< as TransientError (key: campaign
                              ///< index in the scheduler)
    kSiteCount
};

/// Stable spec-grammar token for a site ("ckpt-truncate", ...).
[[nodiscard]] const char* site_name(Site s) noexcept;

/// The retryable failure class: the supervised scheduler retries a
/// work item that throws TransientError up to its bounded budget
/// before declaring the campaign failed. Anything else fails the
/// campaign on the first throw.
class TransientError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

#if !defined(RRB_NO_FAULTS)

namespace detail {
/// Process-wide armed flag; `should_fire`'s only cost while disarmed.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True when a fault spec is armed. One relaxed load.
[[nodiscard]] inline bool armed() noexcept {
    return detail::g_armed.load(std::memory_order_relaxed);
}

/// The process-wide injector. A leaked singleton like
/// obs::TelemetryRegistry: hooks deep in the engine may evaluate during
/// static teardown of whoever armed it.
class FaultInjector {
public:
    static FaultInjector& instance();

    /// Parses and arms `spec` (grammar above), replacing any armed
    /// rules and resetting all counters. Throws std::invalid_argument
    /// naming the offending entry on a malformed spec.
    void arm(const std::string& spec);

    /// Disarms every rule. Rules and their counters stay readable
    /// until the next arm().
    void disarm();

    /// Evaluates `site` with `key`: bumps the evaluation count of every
    /// matching rule and returns true when any rule fires. Called by
    /// the should_fire hook only while armed.
    [[nodiscard]] bool evaluate(Site site, std::uint64_t key) noexcept;

    /// Matching evaluations / fires so far, summed over `site`'s rules.
    [[nodiscard]] std::uint64_t evaluations(Site site) const;
    [[nodiscard]] std::uint64_t fired(Site site) const;

private:
    struct Rule {
        Site site = Site::kSiteCount;
        bool has_key = false;
        std::uint64_t key = 0;
        enum Mode { kAlways, kWindow, kRate } mode = kAlways;
        std::uint64_t first = 1;   ///< window: 1-based first firing eval
        std::uint64_t count = 1;   ///< window: number of firing evals
        std::uint64_t rate = 1;    ///< rate: fire when hash % rate == 0
        std::uint64_t evaluations = 0;
        std::uint64_t fired = 0;
    };

    FaultInjector() = default;

    mutable std::mutex mutex_;
    std::vector<Rule> rules_;
    std::uint64_t seed_ = 0;
};

/// The production hook: false after one relaxed load while disarmed;
/// otherwise asks the injector whether a rule fires for (site, key).
/// Never throws — the *call site* decides what failure to simulate.
[[nodiscard]] inline bool should_fire(Site site,
                                      std::uint64_t key = 0) noexcept {
    if (!armed()) return false;
    return FaultInjector::instance().evaluate(site, key);
}

#else  // RRB_NO_FAULTS: hooks compile to constant false.

[[nodiscard]] inline bool armed() noexcept { return false; }

[[nodiscard]] inline bool should_fire(Site /*site*/,
                                      std::uint64_t /*key*/ = 0) noexcept {
    return false;
}

#endif  // RRB_NO_FAULTS

/// RAII env arming for whole-process runs: arms from the RRB_FAULTS
/// environment variable when it is set and non-empty, and disarms on
/// destruction *only if this scope armed* — a test that armed the
/// injector programmatically before calling cli::run keeps its rules.
/// A malformed RRB_FAULTS throws std::invalid_argument out of the
/// constructor (the CLI maps it to a usage error, exit 1).
class ScopedEnvArm {
public:
    ScopedEnvArm();
    ~ScopedEnvArm();

    ScopedEnvArm(const ScopedEnvArm&) = delete;
    ScopedEnvArm& operator=(const ScopedEnvArm&) = delete;

private:
    bool armed_here_ = false;
};

}  // namespace rrb::fault
