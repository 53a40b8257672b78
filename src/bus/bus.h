// The shared on-chip bus: cores on one side, the L2 cache on the other
// (NGMP topology — "the bus serves as bridge between private on-core L1
// caches and the L2 cache").
//
// Timing protocol (single outstanding transaction, AHB-like):
//   * a request posted with ready cycle R may be granted at any cycle
//     g >= R when the bus is free and the arbiter selects it;
//   * the bus is then busy for `duration` cycles [g, g+duration) and can
//     grant again at g+duration, including to a request that becomes
//     ready exactly at g+duration (back-to-back, 100% utilization);
//   * per-request contention delay gamma = g - R; this is the quantity the
//     paper's ubd bounds.
//
// The bus does not know cache contents: the component that posts a request
// has already decided its `duration` (e.g. L2 hit = transfer + hit latency
// + handover). Completions are delivered to a single BusClient attached
// once, with the finished BusRequest — including its caller-defined `tag`
// correlation id — passed back. This fixed dispatch replaces the old
// per-request std::function callbacks: posting a request performs no
// allocation, which is what keeps the simulator's steady-state request
// path heap-free (see bench_hotpath).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bus/arbiter.h"
#include "machine/attribution.h"
#include "sim/contract.h"
#include "sim/trace.h"
#include "sim/types.h"
#include "stats/histogram.h"

namespace rrb {

enum class BusOp : std::uint8_t {
    kInstrFetch,    ///< IL1 miss fill
    kDataLoad,      ///< DL1 load miss (L2 hit keeps the bus busy end-to-end)
    kDataStore,     ///< write-through store drain
    kMissRequest,   ///< address phase of an L2 miss (split transaction)
    kFillResponse,  ///< data return of an L2 miss
};

const char* to_string(BusOp op) noexcept;

struct BusRequest {
    CoreId core = 0;
    BusOp op = BusOp::kDataLoad;
    Addr addr = 0;
    Cycle ready = 0;     ///< first cycle eligible for arbitration
    Cycle duration = 1;  ///< bus occupancy once granted
    std::uint64_t tag = 0;  ///< caller-defined correlation id
};

/// Fixed completion sink: the transaction for `request` finished; the bus
/// is free again at cycle `completion` (= grant + duration). One client
/// serves every request — callers route on request.op / request.core /
/// request.tag, so the per-request state is a POD token, not a closure.
class BusClient {
public:
    virtual ~BusClient() = default;
    virtual void bus_complete(const BusRequest& request, Cycle completion) = 0;
};

/// Per-core performance monitoring counters, mirroring the NGMP's bus
/// utilization counters (0x17 per-core / 0x18 total in the LEON4 manual).
struct BusCoreCounters {
    std::uint64_t requests = 0;
    std::uint64_t busy_cycles = 0;     ///< cycles this core held the bus
    std::uint64_t wait_cycles = 0;     ///< sum of per-request gamma
    std::uint64_t max_wait = 0;        ///< max per-request gamma
    Histogram gamma;                   ///< per-request contention delay
    Histogram ready_contenders;        ///< #other cores with a request
                                       ///  pending/in-service at post time

    /// Zeroes the counters in place, keeping histogram storage.
    void reset() noexcept {
        requests = 0;
        busy_cycles = 0;
        wait_cycles = 0;
        max_wait = 0;
        gamma.clear();
        ready_contenders.clear();
    }
};

class Bus {
public:
    Bus(CoreId num_cores, std::unique_ptr<Arbiter> arbiter);

    /// Attaches the completion sink all requests report to.
    void attach_client(BusClient* client) noexcept { client_ = client; }

    /// Posts a request. Precondition: the core has no pending request (one
    /// outstanding transaction per requester) and request.ready >= the
    /// current cycle.
    void post(const BusRequest& request);

    /// True when `core` has a request waiting or in service.
    [[nodiscard]] bool busy(CoreId core) const;

    /// Phase 1 of a cycle: completes a transaction whose service ends at
    /// `now` and notifies the client. Call before cores execute. Inline
    /// early-out: this runs every stepped cycle, and most cycles nothing
    /// completes.
    void complete_phase(Cycle now) {
        if (!has_active_ || busy_until_ != now) return;
        complete_now(now);
    }

    /// Phase 2 of a cycle: arbitration among requests with ready <= now.
    /// Call after cores executed (so a request posted at `now` can be
    /// granted at `now`). Inline early-out, same rationale as
    /// complete_phase.
    void arbitrate_phase(Cycle now) {
        if (has_active_) {
            RRB_ENSURE(busy_until_ > now);
            return;
        }
        if (pending_count_ == 0) return;
        arbitrate_pending(now);
    }

    /// Earliest future cycle at which the bus can change state on its
    /// own: the active transaction's completion, or the first cycle a
    /// pending request becomes eligible. Returns `now` when something
    /// could happen this cycle under a non-work-conserving arbiter
    /// (pending but ungranted — slot timing decides), and kNoCycle when
    /// the bus is provably inert until new requests arrive. Inline fast
    /// paths: the skipper asks every stepped cycle, and the bus is
    /// usually either in service or empty.
    [[nodiscard]] Cycle next_event_cycle(Cycle now) const {
        if (has_active_) return busy_until_;
        if (pending_count_ == 0) return kNoCycle;
        return next_pending_cycle(now);
    }

    /// Power-on restore without reallocation: pending/active requests
    /// dropped, counters zeroed, arbiter rotation reset. The attached
    /// client and tracer are kept.
    void reset();

    [[nodiscard]] CoreId num_cores() const noexcept {
        return static_cast<CoreId>(ports_.size());
    }
    [[nodiscard]] const Arbiter& arbiter() const noexcept { return *arbiter_; }

    /// PMC access.
    [[nodiscard]] const BusCoreCounters& counters(CoreId core) const;
    [[nodiscard]] std::uint64_t total_busy_cycles() const noexcept {
        return total_busy_cycles_;
    }
    /// Bus utilization over [0, elapsed): fraction of cycles the bus was
    /// occupied. This is the confidence check of Section 4.3. An in-flight
    /// transaction counts only its cycles before `elapsed`, so the value
    /// never exceeds 1 (total_busy_cycles() charges it whole at grant).
    [[nodiscard]] double utilization(Cycle elapsed) const;

    void reset_counters();

    /// Optional tracer for timeline benches / golden tests.
    void attach_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

    /// Arms (non-null) or disarms (null) cycle attribution. While armed,
    /// every grant/completion splits the waiters' elapsed time into the
    /// blame matrix (who held the bus) and dead slots (nobody did), and
    /// mirrors demand requests onto their core's cause timeline.
    void attach_attribution(CycleAttribution* attribution) noexcept {
        attr_ = attribution;
    }

    /// Settles attribution up to `limit` for the in-service transaction
    /// and every waiter still pending — the cut-off path of the closed
    /// accounting invariant (a campaign run can end mid-transaction).
    void flush_attribution(Cycle limit);

private:
    struct Port {
        BusRequest pending;
        bool has_pending = false;
    };

    /// Performs the grant bookkeeping for `winner` at `now`.
    void grant(CoreId winner, Cycle now);

    /// Out-of-line halves of the phase methods: a transaction really
    /// completes / pending requests really arbitrate / the earliest
    /// pending request's eligibility is computed.
    void complete_now(Cycle now);
    void arbitrate_pending(Cycle now);
    [[nodiscard]] Cycle next_pending_cycle(Cycle now) const;

    /// Attribution for a transaction finishing at `now`: service interval
    /// to the owner, waiters' elapsed time blamed on the owner.
    void account_completion(const BusRequest& finished, Cycle now);

    std::unique_ptr<Arbiter> arbiter_;
    /// Non-null when arbiter_ is the round-robin policy: the paper's
    /// target arbiter and the campaign default. Arbitration then runs a
    /// monomorphized scan over the ports in rotation order — no
    /// candidate table, no virtual dispatch (RoundRobinArbiter is final,
    /// so calls through this pointer devirtualize) — and next_event_cycle
    /// skips the virtual next_grant_cycle (work-conserving: the bound is
    /// the ready cycle itself). Purely an execution-speed monomorphization;
    /// the generic path computes identical grants.
    RoundRobinArbiter* rr_ = nullptr;
    std::vector<Port> ports_;
    std::vector<BusCoreCounters> counters_;
    std::vector<ArbCandidate> candidates_;  ///< reused arbitration buffer

    BusRequest active_;
    bool has_active_ = false;
    std::uint64_t pending_count_ = 0;  ///< ports with has_pending set
    Cycle busy_until_ = 0;  ///< bus free again at this cycle
    std::uint64_t total_busy_cycles_ = 0;
    BusClient* client_ = nullptr;
    Tracer* tracer_ = nullptr;
    CycleAttribution* attr_ = nullptr;
};

}  // namespace rrb
