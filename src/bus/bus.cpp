#include "bus/bus.h"

#include <algorithm>

#include "sim/contract.h"

namespace rrb {

const char* to_string(BusOp op) noexcept {
    switch (op) {
        case BusOp::kInstrFetch: return "ifetch";
        case BusOp::kDataLoad: return "load";
        case BusOp::kDataStore: return "store";
        case BusOp::kMissRequest: return "miss-req";
        case BusOp::kFillResponse: return "fill";
    }
    return "?";
}

Bus::Bus(CoreId num_cores, std::unique_ptr<Arbiter> arbiter)
    : arbiter_(std::move(arbiter)),
      ports_(num_cores),
      counters_(num_cores),
      candidates_(num_cores) {
    RRB_REQUIRE(num_cores >= 1, "need at least one core");
    RRB_REQUIRE(arbiter_ != nullptr, "arbiter required");
    rr_ = dynamic_cast<RoundRobinArbiter*>(arbiter_.get());
}

void Bus::post(const BusRequest& request) {
    RRB_REQUIRE(request.core < ports_.size(), "core id out of range");
    RRB_REQUIRE(request.duration >= 1, "zero-length transaction");
    Port& port = ports_[request.core];
    RRB_ENSURE(!port.has_pending);  // one outstanding per requester
    RRB_ENSURE(!(has_active_ && active_.core == request.core));

    // Confidence metric for Figure 6(a): how many *other* requesters have
    // a transaction pending or in flight the moment this request is born.
    // The poster itself can be neither (one outstanding per requester),
    // so the maintained pending count plus the in-service transaction is
    // exactly the old every-port scan.
    const std::uint64_t others = pending_count_ + (has_active_ ? 1 : 0);
    BusCoreCounters& ctr = counters_[request.core];
    ctr.ready_contenders.add(others);
    ++ctr.requests;

    port.pending = request;
    port.has_pending = true;
    ++pending_count_;
    if (attr_ != nullptr) {
        // The wait clock for this request starts at its ready cycle;
        // completions/grants advance the cursor as the wait is blamed.
        attr_->bus_cursor(request.core) = request.ready;
    }
    if (tracer_ && tracer_->enabled()) {
        tracer_->record(request.ready, TraceKind::kRequestReady, request.core,
                        request.addr);
    }
}

bool Bus::busy(CoreId core) const {
    RRB_REQUIRE(core < ports_.size(), "core id out of range");
    return ports_[core].has_pending ||
           (has_active_ && active_.core == core);
}

void Bus::complete_now(Cycle now) {
    const BusRequest finished = active_;
    has_active_ = false;
    if (tracer_ && tracer_->enabled()) {
        tracer_->record(now - 1, TraceKind::kBusRelease, finished.core,
                        finished.addr);
    }
    // Settle attribution before the client dispatch: the completion can
    // post new requests / issue queued ones, mutating the ports.
    if (attr_ != nullptr) account_completion(finished, now);
    if (client_ != nullptr) client_->bus_complete(finished, now);
}

void Bus::account_completion(const BusRequest& finished, Cycle now) {
    CycleAttribution& attr = *attr_;
    const Cycle granted_at = attr.active_grant();
    // Owner: the service interval [grant, now). Store drains are
    // background traffic — nobody's timeline carries their service.
    if (finished.op != BusOp::kDataStore) {
        attr.charge(finished.core, StallCause::kBusService, now);
    }
    // Waiters: [cursor, now) decomposes into the pre-grant gap (nobody
    // held the bus — TDMA slot timing; zero under work-conserving
    // arbiters) and the in-service window blamed on the owner. The
    // victim's own timeline gets the same split via the deferred
    // mirror, settled in one go at its grant.
    for (CoreId v = 0; v < ports_.size(); ++v) {
        const Port& port = ports_[v];
        if (!port.has_pending) continue;
        std::uint64_t* slot = attr.wait_slot(v);
        const Cycle cursor = slot[CycleAttribution::kSlotCursor];
        if (cursor >= now) continue;
        // Branchless body on the victim's packed slot — one cache line
        // per waiter (dead is zero under work-conserving arbiters and the
        // demand mask folds the store-drain case, so adding the masked
        // zeros beats four data-dependent branches).
        const Cycle blame_start = cursor > granted_at ? cursor : granted_at;
        const std::uint64_t dead = blame_start - cursor;
        const std::uint64_t blamed = now - blame_start;
        const std::uint64_t demand_mask =
            port.pending.op != BusOp::kDataStore ? ~std::uint64_t{0} : 0;
        slot[CycleAttribution::kSlotCursor] = now;
        slot[CycleAttribution::kSlotDead] += dead;
        slot[CycleAttribution::kSlotWaitAcc] += blamed & demand_mask;
        slot[CycleAttribution::kSlotDeadAcc] += dead & demand_mask;
        slot[CycleAttribution::kSlotBlame + finished.core] += blamed;
    }
}

void Bus::arbitrate_pending(Cycle now) {
    if (rr_ != nullptr) {
        // Monomorphized round-robin: scan the ports directly in rotation
        // order and grant the first eligible one. Identical outcome to
        // the generic candidate-table path below — RR's pick() is the
        // same scan, and its grants_alone() is unconditionally true — at
        // a fraction of the cost (no table build, no virtual pick).
        const CoreId n = static_cast<CoreId>(ports_.size());
        const CoreId head = rr_->highest_priority();
        for (CoreId i = 0; i < n; ++i) {
            CoreId c = head + i;
            if (c >= n) c -= n;
            const Port& port = ports_[c];
            if (port.has_pending && port.pending.ready <= now) {
                grant(c, now);
                return;
            }
        }
        return;
    }

    if (pending_count_ == 1) {
        // Sole contender: every policy either grants it or leaves the
        // bus idle (TDMA slot timing) — no candidate table needed.
        for (CoreId c = 0; c < ports_.size(); ++c) {
            const Port& port = ports_[c];
            if (!port.has_pending) continue;
            if (port.pending.ready <= now &&
                arbiter_->grants_alone(c, port.pending.duration, now)) {
                grant(c, now);
            }
            return;
        }
    }

    bool any = false;
    for (CoreId c = 0; c < ports_.size(); ++c) {
        const Port& port = ports_[c];
        if (port.has_pending && port.pending.ready <= now) {
            candidates_[c] = {true, port.pending.duration};
            any = true;
        } else {
            candidates_[c] = {};
        }
    }
    if (!any) return;

    const std::optional<CoreId> winner = arbiter_->pick(candidates_, now);
    if (!winner) return;  // e.g. TDMA slot owner not ready
    grant(*winner, now);
}

void Bus::grant(CoreId winner, Cycle now) {
    Port& port = ports_[winner];
    RRB_ENSURE(port.has_pending);
    active_ = port.pending;
    has_active_ = true;
    port.has_pending = false;
    --pending_count_;

    if (rr_ != nullptr) {
        rr_->granted(winner, now);  // final class: devirtualized
    } else {
        arbiter_->granted(winner, now);
    }
    busy_until_ = now + active_.duration;
    total_busy_cycles_ += active_.duration;

    BusCoreCounters& ctr = counters_[winner];
    const std::uint64_t gamma = now - active_.ready;
    ctr.busy_cycles += active_.duration;
    ctr.wait_cycles += gamma;
    ctr.max_wait = std::max(ctr.max_wait, gamma);
    ctr.gamma.add(gamma);

    if (tracer_ && tracer_->enabled()) {
        tracer_->record(now, TraceKind::kBusGrant, winner, gamma);
    }

    if (attr_ != nullptr) {
        CycleAttribution& attr = *attr_;
        Cycle& cursor = attr.bus_cursor(winner);
        const bool demand = active_.op != BusOp::kDataStore;
        if (cursor < now) {
            // Wait left unaccounted at grant time happened while nobody
            // held the bus — a dead slot (TDMA; zero for RR/WRR/fixed).
            const std::uint64_t dead = now - cursor;
            attr.dead_slot(winner, dead);
            if (demand) attr.defer_dead(winner, dead);
            cursor = now;
        }
        if (demand) {
            // The winner's lookup tail up to its ready cycle is compute;
            // then one settle folds the whole deferred wait mirror and
            // pins the service start.
            attr.charge(winner, StallCause::kCompute, active_.ready);
            attr.settle_wait(winner, now);
        }
        attr.active_grant() = now;
    }
}

void Bus::flush_attribution(Cycle limit) {
    if (attr_ == nullptr) return;
    CycleAttribution& attr = *attr_;
    if (has_active_ && active_.op != BusOp::kDataStore) {
        // In-service at the cut-off: the owner has held the bus since the
        // grant; clamp the service interval to the horizon.
        attr.charge(active_.core, StallCause::kBusService, limit);
    }
    const Cycle granted_at = attr.active_grant();
    for (CoreId v = 0; v < ports_.size(); ++v) {
        const Port& port = ports_[v];
        if (!port.has_pending) continue;
        const bool demand = port.pending.op != BusOp::kDataStore;
        Cycle& cursor = attr.bus_cursor(v);
        if (cursor < limit) {
            const Cycle blame_start =
                has_active_ ? std::max(cursor, granted_at) : limit;
            const std::uint64_t dead = blame_start - cursor;
            const std::uint64_t blamed = limit - blame_start;
            if (dead > 0) attr.dead_slot(v, dead);
            if (blamed > 0) attr.blame(v, active_.core, blamed);
            if (demand) {
                attr.defer_wait(v, blamed);
                if (dead > 0) attr.defer_dead(v, dead);
            }
            cursor = limit;
        }
        if (demand) {
            // Lookup tail up to the wait start (or the horizon, for a
            // request whose ready cycle lies beyond it), then settle the
            // deferred wait mirror at the horizon.
            attr.charge(v, StallCause::kCompute,
                        std::min(port.pending.ready, limit));
            attr.settle_wait(v, limit);
        }
    }
}

Cycle Bus::next_pending_cycle(Cycle now) const {
    Cycle next = kNoCycle;
    for (CoreId c = 0; c < ports_.size(); ++c) {
        const Port& port = ports_[c];
        if (!port.has_pending) continue;
        // Earliest cycle this request could win arbitration. For every
        // work-conserving policy that is simply its ready cycle (or now,
        // when already ready); TDMA's override adds the slot wait, so
        // the skipper can fast-forward straight to the owned slot
        // instead of stepping cycle by cycle until the arbiter grants.
        // Exactness: the per-core bound is the minimum winnable cycle,
        // so no pick() between now and the minimum could grant anyone.
        const Cycle earliest = std::max(port.pending.ready, now);
        next = std::min(next, rr_ != nullptr
                                  ? earliest  // RR inherits the default
                                  : arbiter_->next_grant_cycle(
                                        c, port.pending.duration, earliest));
    }
    return next;
}

void Bus::reset() {
    for (Port& port : ports_) port.has_pending = false;
    pending_count_ = 0;
    has_active_ = false;
    busy_until_ = 0;
    arbiter_->reset();
    reset_counters();
}

const BusCoreCounters& Bus::counters(CoreId core) const {
    RRB_REQUIRE(core < counters_.size(), "core id out of range");
    return counters_[core];
}

double Bus::utilization(Cycle elapsed) const {
    RRB_REQUIRE(elapsed > 0, "elapsed must be positive");
    // grant() charges a transaction's whole duration up front; the part
    // of the in-flight one at or past `elapsed` has not happened yet.
    std::uint64_t busy = total_busy_cycles_;
    if (has_active_ && busy_until_ > elapsed) {
        busy -= std::min<Cycle>(busy_until_ - elapsed, active_.duration);
    }
    return static_cast<double>(busy) / static_cast<double>(elapsed);
}

void Bus::reset_counters() {
    for (BusCoreCounters& c : counters_) c.reset();
    total_busy_cycles_ = 0;
}

}  // namespace rrb
