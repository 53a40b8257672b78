// The four workloads. Sizing and the reason each exists are in
// NOTES.md; the numbers here are the ones it quotes.
#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/campaign.h"
#include "core/session.h"
#include "engine/machine_lease.h"
#include "kernels/autobench.h"
#include "machine/machine.h"
#include "perfbench.h"
#include "replay/script_cache.h"
#include "stats/checkpoint.h"

namespace perfbench {

namespace {

using rrb::OpKind;
using rrb::Scenario;

// Campaign sizes. A timed unit lasts about 25 ms (about 100 ms for a
// batch) on the reference host (see NOTES.md), so a run collects
// hundreds of units; runs_per_s is read at the fast end of their
// distribution (main.cpp), and co-tenant slowdowns come in bursts that
// only short units see past.
constexpr std::size_t kLoadRuns = 1'000;
constexpr std::size_t kStoreRuns = 250;
constexpr std::size_t kAttributionRuns = 250;
constexpr std::size_t kGridRuns = 100;  ///< per batch-grid scenario
/// Warm-up campaign of a jobs-1 set-up: enough runs to decode every
/// script and fill every lease, small enough that set-up stays a
/// one-off cost.
constexpr std::size_t kWarmRuns = 100;

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Campaign seed `k` of a workload, derived from the benchmark seed.
std::uint64_t campaign_seed(std::uint64_t bench_seed, std::uint64_t k) {
    return splitmix64(bench_seed * 0x100 + k) >> 1;
}

/// The `rrbtool pwcet` scenario (cacheb scua, rsk contenders) on
/// `config` with `access` contenders.
Scenario campaign_scenario(const rrb::MachineConfig& config, OpKind access,
                           std::size_t runs, std::uint64_t seed) {
    return Scenario::on(config)
        .scua(rrb::make_autobench(rrb::Autobench::kCacheb, 0x0100'0000,
                                  /*iterations=*/40, /*seed=*/9))
        .rsk_contenders(access)
        .runs(runs)
        .seed(seed);
}

std::string line(const char* key, std::uint64_t value) {
    return std::string(key) + " " + std::to_string(value);
}

std::string line(const char* key, const std::string& value) {
    return std::string(key) + " " + value;
}

void pwcet_digest(const rrb::PwcetCampaignResult& r,
                  std::vector<std::string>& out) {
    out.push_back(line("runs", r.runs));
    out.push_back(line("et_isolation", r.et_isolation));
    out.push_back(line("nr", r.nr));
    out.push_back(line("hwm", r.high_water_mark));
    out.push_back(line("lwm", r.low_water_mark));
    out.push_back(line("mean", bits(r.mean)));
    out.push_back(line("stddev", bits(r.stddev)));
    out.push_back(line("blocks", r.blocks));
    out.push_back(line("live_values", r.live_values));
    out.push_back(line("gumbel.mu", bits(r.fit.mu)));
    out.push_back(line("gumbel.beta", bits(r.fit.beta)));
    for (const rrb::PwcetQuantile& q : r.quantiles) {
        out.push_back("pwcet@" + bits(q.exceedance) + " " + bits(q.pwcet));
    }
}

/// Fresh process-wide cache state for a cold set-up: the calling
/// thread's leased machines (and their scripts) are dropped; pool
/// workers start cold because every set-up builds a new Session.
void drop_caches() { rrb::engine::MachineLease::drop_thread_cache(); }

// ------------------------------------------------------------- pwcet

class PwcetWorkload final : public Workload {
public:
    PwcetWorkload(const char* name, OpKind access, std::size_t runs,
                  std::uint64_t seed)
        : name_(name),
          scenarios_{campaign_scenario(rrb::MachineConfig::ngmp_ref(),
                                       access, runs,
                                       campaign_seed(seed, 0))} {}

    const char* name() const override { return name_; }
    std::size_t jobs() const override { return 1; }

    void setup() override {
        session_.reset();
        drop_caches();
        scenarios_[0].validate();
        session_ = std::make_unique<rrb::Session>();
        session_->jobs(jobs());
        Scenario warm = scenarios_[0];
        warm.runs(kWarmRuns);
        (void)session_->pwcet(warm, spec_);
    }

    Unit run_unit(SpanLog& spans) override {
        Unit u;
        const std::size_t runs = scenarios_[0].run_protocol().runs;
        Timed span(spans, "session.pwcet", runs);
        const CpuPath cpu;
        const rrb::PwcetCampaignResult r =
            session_->pwcet(scenarios_[0], spec_);
        u.seconds = cpu.stop();
        u.wall_seconds = span.stop();
        u.runs = r.runs;
        pwcet_digest(r, u.digest);
        if (r.runs != runs) u.problems.push_back("campaign ran short");
        if (!r.fit.valid()) u.problems.push_back("degenerate Gumbel fit");
        bounds_ = {{r.low_water_mark, r.high_water_mark, true}};
        return u;
    }

    const std::vector<Scenario>& scenarios() const override {
        return scenarios_;
    }
    std::vector<Bounds> bounds() const override { return bounds_; }

private:
    const char* name_;
    std::vector<Scenario> scenarios_;
    rrb::PwcetSpec spec_;
    std::unique_ptr<rrb::Session> session_;
    std::vector<Bounds> bounds_;
};

// ------------------------------------------------------- attribution

class AttributionWorkload final : public Workload {
public:
    explicit AttributionWorkload(std::uint64_t seed)
        : scenarios_{campaign_scenario(rrb::MachineConfig::ngmp_ref(),
                                       OpKind::kLoad, kAttributionRuns,
                                       campaign_seed(seed, 0))} {}

    const char* name() const override { return "attribution"; }
    std::size_t jobs() const override { return 1; }
    bool armed() const override { return true; }

    void setup() override {
        session_.reset();
        drop_caches();
        scenarios_[0].validate();
        session_ = std::make_unique<rrb::Session>();
        session_->jobs(jobs());
        Scenario warm = scenarios_[0];
        warm.runs(kWarmRuns);
        (void)session_->attribution(warm);
    }

    Unit run_unit(SpanLog& spans) override {
        Unit u;
        const std::size_t runs = scenarios_[0].run_protocol().runs;
        Timed span(spans, "session.attribution", runs);
        const CpuPath cpu;
        const rrb::engine::AttributionCampaignResult r =
            session_->attribution(scenarios_[0]);
        u.seconds = cpu.stop();
        u.wall_seconds = span.stop();
        const rrb::AttributionAccumulator& acc = r.attribution;
        u.runs = acc.runs();
        if (u.runs != runs) u.problems.push_back("campaign ran short");
        u.digest.push_back(line("runs", acc.runs()));
        u.digest.push_back(line("et_isolation", r.et_isolation));
        u.digest.push_back(line("nr", r.nr));
        u.digest.push_back(line("machine_cycles", acc.machine_cycles()));
        const auto cores = static_cast<rrb::CoreId>(acc.num_cores());
        for (rrb::CoreId c = 0; c < cores; ++c) {
            // Closed accounting: every core's cause column sums to the
            // machine cycles.
            if (acc.core_total(c) != acc.machine_cycles()) {
                u.problems.push_back("core" + std::to_string(c) +
                                     " cause column does not sum to "
                                     "machine cycles");
            }
            std::string timeline = "timeline.core" + std::to_string(c);
            for (std::size_t k = 0; k < rrb::kStallCauseCount; ++k) {
                timeline += ' ';
                timeline += std::to_string(
                    acc.timeline(c, static_cast<rrb::StallCause>(k)));
            }
            u.digest.push_back(timeline);
            std::string blame = "blame.core" + std::to_string(c);
            for (rrb::CoreId w = 0; w < cores; ++w) {
                blame += ' ';
                blame += std::to_string(acc.blamed(c, w));
            }
            blame += ' ';
            blame += std::to_string(acc.dead_slot_cycles(c));
            u.digest.push_back(blame);
        }
        return u;
    }

    const std::vector<Scenario>& scenarios() const override {
        return scenarios_;
    }
    std::vector<Bounds> bounds() const override { return {Bounds{}}; }

private:
    std::vector<Scenario> scenarios_;
    std::unique_ptr<rrb::Session> session_;
};

// -------------------------------------------------------- batch-grid

bool same_result(const rrb::PwcetCampaignResult& a,
                 const rrb::PwcetCampaignResult& b) {
    std::vector<std::string> da;
    std::vector<std::string> db;
    pwcet_digest(a, da);
    pwcet_digest(b, db);
    return da == db;
}

class BatchGridWorkload final : public Workload {
public:
    BatchGridWorkload(std::uint64_t seed, std::string scratch_dir)
        : seed_(seed), scratch_dir_(std::move(scratch_dir)) {}

    const char* name() const override { return "batch-grid"; }
    std::size_t jobs() const override { return 2; }
    bool setup_per_unit() const override { return true; }

    /// Builds and validates the 24 scenarios and a fresh Session for
    /// the next unit. No campaign runs here: the unit's batch builds the
    /// pool, decodes the scripts and builds the leases, as every
    /// `rrbtool batch` invocation does (NOTES.md).
    void setup() override {
        session_.reset();
        std::filesystem::create_directories(scratch_dir_);
        items_.clear();
        scenarios_.clear();
        // cores x lbus x contender access x seeds: 24 heterogeneous
        // campaigns, six distinct machine configurations.
        for (const rrb::CoreId cores : {2, 4, 8}) {
            for (const rrb::Cycle lbus : {5, 9}) {
                for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
                    for (std::uint64_t k = 0; k < 2; ++k) {
                        char name[32];
                        std::snprintf(
                            name, sizeof(name), "c%u-l%llu-%s-s%llu",
                            static_cast<unsigned>(cores),
                            static_cast<unsigned long long>(lbus),
                            access == OpKind::kLoad ? "load" : "store",
                            static_cast<unsigned long long>(k));
                        rrb::BatchItem item{
                            name,
                            campaign_scenario(
                                rrb::MachineConfig::scaled(cores, lbus),
                                access, kGridRuns,
                                campaign_seed(seed_, k)),
                            rrb::PwcetSpec{}};
                        item.scenario.validate();
                        scenarios_.push_back(item.scenario);
                        items_.push_back(std::move(item));
                    }
                }
            }
        }
        session_ = std::make_unique<rrb::Session>();
        session_->jobs(jobs());
    }

    /// One batch on the set-up's session, which it uses up, then every
    /// scenario's checkpoint saved and merged back. The batch counts in
    /// critical-path CPU time (CpuPath), the checkpoint round trip in
    /// wall time, fsync included.
    Unit run_unit(SpanLog& spans) override {
        if (session_ == nullptr) {
            throw std::logic_error("batch-grid unit without a set-up");
        }
        const std::unique_ptr<rrb::Session> session = std::move(session_);
        drop_caches();
        Unit u;
        std::uint64_t total = 0;
        for (const Scenario& s : scenarios_) total += s.run_protocol().runs;

        rrb::BatchResult result;
        std::vector<rrb::MergedPwcetCampaign> merged;
        merged.reserve(items_.size());
        Timed unit_span(spans, "batch.unit", total);
        double batch_cpu = 0.0;
        {
            const Timed span(spans, "session.batch", total);
            const CpuPath cpu;
            result = session->batch(items_);
            batch_cpu = cpu.stop();
        }
        Timed round_trip(spans, "checkpoint.round_trip",
                         result.points.size());
        for (const rrb::BatchPointResult& point : result.points) {
            if (!point.ok) continue;
            const std::string path = checkpoint_path(point.name);
            {
                const Timed span(spans, "save_pwcet_checkpoint", 1);
                rrb::save_pwcet_checkpoint(path, point.checkpoint);
            }
            const Timed span(spans, "session.merge", 1);
            merged.push_back(session->merge({path}));
        }
        u.seconds = batch_cpu + round_trip.stop();
        u.wall_seconds = unit_span.stop();

        bounds_.clear();
        std::size_t m = 0;
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            const rrb::BatchPointResult& point = result.points[i];
            if (!point.ok) {
                u.problems.push_back(point.name + " failed: " + point.error);
                bounds_.push_back({});
                continue;
            }
            const rrb::PwcetCampaignResult& r = point.result;
            u.runs += r.runs;
            bounds_.push_back({r.low_water_mark, r.high_water_mark, true});
            const std::vector<std::uint8_t> bytes =
                rrb::encode_pwcet_checkpoint(point.checkpoint);
            std::vector<std::string> d;
            pwcet_digest(r, d);
            std::string row = point.name;
            for (const std::string& field : d) {
                row += ' ';
                row += field.substr(field.find(' ') + 1);
            }
            char fnv[40];
            std::snprintf(fnv, sizeof(fnv), " ckpt %016" PRIx64 " %zu",
                          fnv1a64(bytes.data(), bytes.size()), bytes.size());
            u.digest.push_back(row + fnv);

            const rrb::MergedPwcetCampaign& back = merged[m++];
            if (!same_result(back.result, r) ||
                back.meta.scenario_fingerprint !=
                    items_[i].scenario.fingerprint()) {
                u.problems.push_back(point.name +
                                     ": merged checkpoint differs from "
                                     "the in-memory batch result");
            }
        }
        if (u.runs != total) u.problems.push_back("batch ran short");
        return u;
    }

    const std::vector<Scenario>& scenarios() const override {
        return scenarios_;
    }
    std::vector<Bounds> bounds() const override { return bounds_; }

    std::vector<std::string> checkpoint_paths() const override {
        std::vector<std::string> paths;
        for (const rrb::BatchItem& item : items_) {
            const std::string path = checkpoint_path(item.name);
            if (std::filesystem::exists(path)) paths.push_back(path);
        }
        return paths;
    }

private:
    std::string checkpoint_path(const std::string& name) const {
        return scratch_dir_ + "/" + name + ".ckpt";
    }

    std::uint64_t seed_;
    std::string scratch_dir_;
    std::vector<rrb::BatchItem> items_;
    std::vector<Scenario> scenarios_;
    std::unique_ptr<rrb::Session> session_;
    std::vector<Bounds> bounds_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch_dir) {
    if (name == "pwcet-load") {
        return std::make_unique<PwcetWorkload>("pwcet-load", OpKind::kLoad,
                                               kLoadRuns, seed);
    }
    if (name == "pwcet-store") {
        return std::make_unique<PwcetWorkload>("pwcet-store", OpKind::kStore,
                                               kStoreRuns, seed);
    }
    if (name == "batch-grid") {
        return std::make_unique<BatchGridWorkload>(seed, scratch_dir);
    }
    if (name == "attribution") {
        return std::make_unique<AttributionWorkload>(seed);
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::string> check_interpreter(const Workload& workload,
                                           std::size_t samples) {
    std::vector<std::string> problems;
    const std::vector<Scenario>& scenarios = workload.scenarios();
    const std::vector<Bounds> bounds = workload.bounds();
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const Scenario& scenario = scenarios[s];
        const rrb::MachineConfig& config = scenario.config();
        const rrb::Program& scua = scenario.scua_program();
        const std::vector<rrb::Program> contenders =
            scenario.contender_programs();
        const rrb::HwmCampaignOptions& protocol = scenario.run_protocol();
        rrb::Machine replayed(config);
        rrb::Machine interpreted(config);
        rrb::replay::ScriptCache scripts;
        std::uint64_t loaded_replay = 0;
        std::uint64_t loaded_interp = 0;
        const std::size_t n = std::min<std::size_t>(samples, protocol.runs);
        for (std::size_t k = 0; k < n; ++k) {
            // Spread the sample over the whole campaign.
            const std::uint64_t run = k * protocol.runs / n;
            const rrb::Cycle fast = rrb::detail::execute_campaign_run(
                replayed, loaded_replay, scua, contenders, protocol, run,
                &scripts);
            const rrb::Cycle slow = rrb::detail::execute_campaign_run(
                interpreted, loaded_interp, scua, contenders, protocol, run,
                nullptr);
            std::string where = workload.name();
            where += " scenario " + std::to_string(s) + " run " +
                     std::to_string(run);
            if (fast != slow) {
                problems.push_back(where + ": replay finished at " +
                                   std::to_string(fast) +
                                   ", interpreter at " +
                                   std::to_string(slow));
            }
            if (workload.armed()) {
                rrb::AttributionAccumulator acc;
                const rrb::Cycle armed = rrb::detail::hwm_campaign_attribute(
                    config, scua, contenders, protocol, run, acc);
                if (armed != slow) {
                    problems.push_back(where + ": armed run finished at " +
                                       std::to_string(armed) +
                                       ", interpreter at " +
                                       std::to_string(slow));
                }
            }
            if (s < bounds.size() && bounds[s].known &&
                (slow < bounds[s].lwm || slow > bounds[s].hwm)) {
                problems.push_back(where +
                                   ": finish cycle outside the campaign's "
                                   "water marks");
            }
        }
    }
    return problems;
}

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string bits(double value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                  std::bit_cast<std::uint64_t>(value));
    return buf;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench
