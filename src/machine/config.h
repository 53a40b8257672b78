// Multicore system configuration with the paper's two evaluation setups.
#pragma once

#include <cstdint>
#include <vector>

#include "bus/arbiter.h"
#include "cache/cache.h"
#include "cpu/core.h"
#include "dram/dram.h"
#include "sim/types.h"

namespace rrb {

/// Platform limits on outside input (command-line flags, batch specs),
/// enforced by MachineConfig::validate. A scaled platform gives each core
/// a 64 KiB L2 way, so kMaxCores bounds one machine's L2 at 4 MiB; with
/// lbus capped too, Equation 1's (Nc - 1) * lbus stays below 2^22 and
/// every `now + duration` cycle sum stays far from 2^64.
inline constexpr CoreId kMaxCores = 64;
/// Longest bus occupancy of one L2 load hit, in cycles (the paper's lbus).
inline constexpr Cycle kMaxLbus = 65'536;

struct MachineConfig {
    CoreId num_cores = 4;
    CoreConfig core;

    CacheGeometry l2_geometry{256 * 1024, 4, 32};
    ReplacementPolicy l2_replacement = ReplacementPolicy::kLru;
    WritePolicy l2_write_policy = WritePolicy::kWriteBack;
    AllocPolicy l2_alloc_policy = AllocPolicy::kWriteAllocate;

    ArbiterKind arbiter = ArbiterKind::kRoundRobin;
    Cycle tdma_slot_cycles = 16;
    /// Weighted-RR only: one weight per core (empty = all ones).
    std::vector<std::uint32_t> wrr_weights;

    /// Bus timing. A load that hits in L2 occupies the bus for
    /// bus_transfer_cycles + l2_hit_cycles (the NGMP numbers: 3 + 6 = 9,
    /// "6 cycles corresponding to the L2 hit latency and 3 cycles for bus
    /// transfer and arbitration handover").
    Cycle bus_transfer_cycles = 3;
    Cycle l2_hit_cycles = 6;
    /// Bus occupancy of a write-through store (address + data into L2).
    Cycle store_service_cycles = 9;
    /// Split-transaction phases of an L2 miss.
    Cycle miss_request_cycles = 3;
    Cycle fill_response_cycles = 3;

    DramConfig dram;

    void validate() const;

    /// Bus occupancy of one L2 load hit — the paper's lbus.
    [[nodiscard]] Cycle load_hit_service() const noexcept {
        return bus_transfer_cycles + l2_hit_cycles;
    }

    /// Re-times the bus so one L2 load hit occupies `lbus` cycles
    /// (transfer 1 + hit lbus-1; stores and the split-transaction
    /// phases follow). The single timing model behind `scaled()` and
    /// Session sweep lbus axes — the two must never diverge. TDMA
    /// slots grow to fit when needed.
    void retime_bus(Cycle lbus);
    /// Equation 1: ubd = (Nc - 1) * lbus.
    [[nodiscard]] Cycle ubd_analytic() const noexcept {
        return (num_cores - 1) * load_hit_service();
    }

    /// Content hash over every timing-relevant field. Two configs with
    /// equal fingerprints build behaviorally identical Machines; the
    /// per-worker machine cache (engine::MachineLease) keys on it, and
    /// Scenario::fingerprint folds it in.
    [[nodiscard]] std::uint64_t fingerprint() const;

    /// The paper's reference NGMP model: 4 cores, DL1 latency 1 (so the
    /// rsk injection time delta_rsk = 1), lbus = 9, ubd = 27.
    [[nodiscard]] static MachineConfig ngmp_ref();
    /// The paper's variant: IL1/DL1 latency 4 instead of 1, which shifts
    /// every bus-access injection time by 3 cycles (delta_rsk = 4).
    [[nodiscard]] static MachineConfig ngmp_var();
    /// The didactic setup of Figures 2/3/5: lbus = 2, ubd = 6.
    [[nodiscard]] static MachineConfig textbook();
    /// ngmp_ref re-shaped to `cores` requesters and a bus occupancy of
    /// `lbus` cycles per L2 load hit; the L2 keeps one 64KB way per core.
    /// Used by the sensitivity sweeps (Ablation C).
    [[nodiscard]] static MachineConfig scaled(CoreId cores, Cycle lbus);
    /// An 8-core platform in the spirit of the Freescale P4080 that
    /// motivates the paper (the avionics COTS part whose contention was
    /// characterized by measurements in [Nowotsch et al.]): more
    /// requesters, a longer shared-cache access, bigger L1s and a deeper
    /// store queue. The exact P4080 interconnect is proprietary; this
    /// config only claims "an aggressive 8-core RR platform".
    [[nodiscard]] static MachineConfig p4080_like();
};

}  // namespace rrb
