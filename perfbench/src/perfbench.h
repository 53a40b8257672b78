// perfbench: campaign-throughput benchmark for rrb.
//
// One process runs one workload (see NOTES.md for why each exists and
// how it is sized). The library only ever receives generated Scenarios;
// the workload seed lives here. Every timing is taken from outside the
// library, around calls into its public API, with spans kept in memory
// (SpanLog) and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed the committed reference digests were recorded at.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// One benchmark span: a timed call into the library, recorded by the
/// benchmark around that call. Kept in memory; written as JSON at exit.
struct SpanRecord {
    std::string name;
    std::uint64_t parent = 0;  ///< index + 1 of the enclosing span, 0 = root
    std::uint64_t items = 0;   ///< operations the span covers (runs, txns...)
    double begin_s = 0.0;      ///< relative to the log's epoch
    double end_s = 0.0;
};

class SpanLog {
public:
    /// Opens a span under the innermost open one; returns its handle.
    std::uint64_t open(std::string name, std::uint64_t items = 0);
    /// Closes the span `handle` (as returned by open); returns its
    /// duration in seconds.
    double close(std::uint64_t handle);
    /// Per-item durations (seconds / items) of every span named `name`.
    [[nodiscard]] std::vector<double> per_item(const std::string& name) const;
    void write_json(const std::string& path) const;

private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<SpanRecord> records_;
    std::vector<std::uint64_t> open_;  ///< stack of open span handles
};

/// RAII span on a SpanLog.
class Timed {
public:
    Timed(SpanLog& log, std::string name, std::uint64_t items = 0)
        : log_(log), handle_(log.open(std::move(name), items)) {}
    ~Timed() { stop(); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    /// Closes the span now (the destructor then does nothing); returns
    /// its duration in seconds.
    double stop() {
        if (seconds_ < 0.0) seconds_ = log_.close(handle_);
        return seconds_;
    }

private:
    SpanLog& log_;
    std::uint64_t handle_;
    double seconds_ = -1.0;
};

/// CPU time on the critical path of the work done between construction
/// and stop(): the calling thread's CPU time plus that of the busiest
/// other thread of the process (a pool worker). A thread waiting for a
/// vCPU, in the guest's run queue or stolen by the hypervisor, runs no
/// CPU time, so co-tenant processes that take vCPUs away do not count;
/// work done, and work left unbalanced between workers, does. Time
/// blocked on I/O does not count either, so I/O is timed in wall time.
class CpuPath {
public:
    CpuPath();
    /// Critical-path CPU seconds since construction.
    [[nodiscard]] double stop() const;

private:
    std::map<long, double> others_start_;  ///< CPU seconds by thread id
    double self_start_;
};

/// One timed unit of a workload: a campaign (or, for batch-grid, one
/// whole batch with its checkpoint round trip).
struct Unit {
    /// Time the unit's rate is read from: its critical-path CPU time
    /// (CpuPath), plus, for batch-grid, the wall time of its checkpoint
    /// I/O.
    double seconds = 0.0;
    double wall_seconds = 0.0;  ///< wall time of the timed part
    std::uint64_t runs = 0;    ///< campaign runs completed
    /// Exact outputs ("key value" lines, doubles as bit patterns),
    /// compared against the reference or the first unit as soon as the
    /// unit ends, then dropped.
    std::vector<std::string> digest;
    /// Invariant violations found in this unit's outputs.
    std::vector<std::string> problems;
};

/// Run-count bounds one scenario's campaign observed, for the
/// interpreter cross-check (low/high water marks).
struct Bounds {
    std::uint64_t lwm = 0;
    std::uint64_t hwm = 0;
    bool known = false;
};

class Workload {
public:
    virtual ~Workload() = default;
    [[nodiscard]] virtual const char* name() const = 0;
    /// Worker budget of the workload's Session.
    [[nodiscard]] virtual std::size_t jobs() const = 0;
    /// Cold set-up: a fresh Session, the scenarios built and validated,
    /// and (except for batch-grid) a warm-up campaign that builds the
    /// pool, decodes scripts and builds leases. Every call starts from
    /// cold caches.
    virtual void setup() = 0;
    /// True when every unit needs a set-up of its own (its unit uses up
    /// the set-up's session so that it starts cold).
    [[nodiscard]] virtual bool setup_per_unit() const { return false; }
    /// One timed unit on the set-up session.
    virtual Unit run_unit(SpanLog& spans) = 0;
    /// The scenarios whose runs the correctness checks and the layer
    /// probes sample.
    [[nodiscard]] virtual const std::vector<rrb::Scenario>& scenarios()
        const = 0;
    /// Per-scenario bounds from the last unit (parallel to scenarios()).
    [[nodiscard]] virtual std::vector<Bounds> bounds() const = 0;
    /// True when campaign runs execute with the attribution profiler
    /// armed (and therefore on the interpreter).
    [[nodiscard]] virtual bool armed() const { return false; }
    /// The pWCET checkpoints the workload's units wrote, for the stats
    /// layer probes; none for the workloads that write none.
    [[nodiscard]] virtual std::vector<std::string> checkpoint_paths() const {
        return {};
    }
};

/// Builds workload `name` from the benchmark seed. `scratch_dir` holds
/// checkpoint files. Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed,
    const std::string& scratch_dir);

/// Post-timing invariant checks at any seed: sampled runs re-executed
/// through the interpreter must finish on the same cycle as replay (and
/// as the armed profiler, for attribution) and lie within the
/// campaign's water marks. Returns the violations found.
[[nodiscard]] std::vector<std::string> check_interpreter(
    const Workload& workload, std::size_t samples_per_scenario);

/// A named metric value with its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Inputs the layer probes need from the end-to-end phases of a traced
/// run.
struct TracedPhase {
    double untraced_runs_per_s = 0.0;
    double traced_runs_per_s = 0.0;
    double traced_wall_s = 0.0;  ///< summed wall time of the traced units
    std::uint64_t traced_units = 0;
    /// Scripts decoded by one cold set-up and the unit that follows it.
    std::uint64_t cold_decodes = 0;
    std::string probe_dir;  ///< where the checkpoint-save probe writes
};

/// Per-layer metrics of the traced run: reads the library's telemetry
/// counters and spans for the traced phase, then drives each layer in
/// isolation with the workload's MachineConfigs. Appends to `out`.
void measure_layers(Workload& workload, const TracedPhase& phase,
                    SpanLog& spans, std::vector<Metric>& out);

/// FNV-1a 64 over bytes (digests of checkpoint bytes).
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data,
                                    std::size_t size);

/// Exact text form of a double: its IEEE-754 bit pattern in hex.
[[nodiscard]] std::string bits(double value);

[[nodiscard]] double median(std::vector<double> values);

/// The q-quantile (0..1) of `values`, linearly interpolated; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
