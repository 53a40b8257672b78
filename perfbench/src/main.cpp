// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE --scratch DIR [--commit ID]
//             [--record-reference]
//
// Phases: timed units of the workload for S seconds, with cold set-ups
// spread evenly over the same span, or one before every unit on a
// workload that needs it (the fastest is setup_s), then the correctness
// checks. Units and set-ups are timed in critical-path CPU time
// (CpuPath), so vCPUs taken by other processes do not count.
// With --trace 1 the timed units alternate between untraced and traced
// (the library's telemetry on), so both halves see the same host
// conditions; the isolated layer probes follow, and the per-layer
// metrics are printed instead of the end-to-end ones.
//
// stdout: one record line (host facts plus every metric and the unit
// timings), then, last, the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit 0 when the run completed (correct or not); 1 on bad usage.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "perfbench.h"

namespace perfbench {

// ------------------------------------------------------------ SpanLog

std::uint64_t SpanLog::open(std::string name, std::uint64_t items) {
    SpanRecord r;
    r.name = std::move(name);
    r.parent = open_.empty() ? 0 : open_.back();
    r.items = items;
    r.begin_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
    records_.push_back(std::move(r));
    open_.push_back(records_.size());
    return records_.size();
}

double SpanLog::close(std::uint64_t handle) {
    SpanRecord& r = records_[handle - 1];
    r.end_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
    if (!open_.empty() && open_.back() == handle) open_.pop_back();
    return r.end_s - r.begin_s;
}

namespace {

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds run so far by each thread of this process other than the
/// caller, by thread id (first field of /proc/self/task/<tid>/schedstat).
std::map<long, double> other_threads_cpu_seconds() {
    std::map<long, double> out;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return out;
    const long self = gettid();
    while (const dirent* e = readdir(dir)) {
        const long tid = std::strtol(e->d_name, nullptr, 10);
        if (tid <= 0 || tid == self) continue;
        std::ifstream in("/proc/self/task/" + std::string(e->d_name) +
                         "/schedstat");
        double ns = 0.0;
        if (in >> ns) out[tid] = 1e-9 * ns;
    }
    closedir(dir);
    return out;
}

}  // namespace

// The calling thread's clock is read last on the way in and first on
// the way out, so the /proc reads stay outside its interval.
CpuPath::CpuPath()
    : others_start_(other_threads_cpu_seconds()),
      self_start_(thread_cpu_seconds()) {}

double CpuPath::stop() const {
    const double self = thread_cpu_seconds() - self_start_;
    // A thread that started inside the interval (a new pool's worker)
    // ran all its CPU time there.
    double busiest = 0.0;
    for (const auto& [tid, cpu] : other_threads_cpu_seconds()) {
        const auto it = others_start_.find(tid);
        busiest = std::max(
            busiest, cpu - (it == others_start_.end() ? 0.0 : it->second));
    }
    return self + busiest;
}

std::vector<double> SpanLog::per_item(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& r : records_) {
        if (r.name == name && r.end_s > 0.0 && r.items > 0) {
            out.push_back((r.end_s - r.begin_s) /
                          static_cast<double>(r.items));
        }
    }
    return out;
}

void SpanLog::write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const SpanRecord& r = records_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"id\": %zu, \"parent\": %llu, \"name\": \"%s\", "
                      "\"items\": %llu, \"begin_s\": %.9f, \"end_s\": %.9f}",
                      i + 1, static_cast<unsigned long long>(r.parent),
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.items), r.begin_s,
                      r.end_s);
        out << "  " << buf << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

namespace {

// Cold set-ups per run of a workload whose units share a set-up;
// setup_s is the fastest, for the reason runs_per_s is the fastest
// unit's rate (see runs_per_s).
constexpr std::size_t kSetups = 25;
// Interpreter re-runs per scenario in the post-timing check.
constexpr std::size_t kInterpreterSamples = 48;
constexpr std::size_t kInterpreterSamplesGrid = 8;

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string scratch = ".";
    std::string commit = "unknown";
    bool record_reference = false;
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record-reference") {
            a.record_reference = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            a.trace = value == "1";
        } else if (flag == "--reference") {
            a.reference = value;
        } else if (flag == "--scratch") {
            a.scratch = value;
        } else if (flag == "--commit") {
            a.commit = value;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0;
}

/// The reference digest lines of `workload` ("<workload> <line>" rows).
std::vector<std::string> load_reference(const std::string& path,
                                        const std::string& workload) {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string text;
    const std::string prefix = workload + " ";
    while (std::getline(in, text)) {
        if (text.rfind(prefix, 0) == 0) lines.push_back(text.substr(prefix.size()));
    }
    return lines;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (c == '\n' ? ' ' : c);
    }
    return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        // %.17g keeps every digit of the measured value.
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
            << "\": {\"value\": " << value << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    }
    out << "}";
    return out.str();
}

std::string host_name() {
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
    return buf;
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries the parent's peak across exec,
/// so it would report the launcher's memory.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

/// The timed units of a run, with pass/fail and trace bookkeeping.
struct Phase {
    std::vector<double> setups;  ///< seconds per cold set-up
    std::vector<Unit> units;   ///< digests already compared and dropped
    std::vector<bool> failed;  ///< threw
    std::vector<bool> traced;  ///< ran with the library's telemetry on
    std::vector<bool> matched;  ///< digest equal to `expected`
};

/// Runs units for `seconds` (at least three), with kSetups cold set-ups
/// spread evenly over that span: set-up k runs once k/kSetups of the
/// span has passed, so set-ups and units sample the same host
/// conditions instead of the set-ups bunching into one burst of
/// co-tenant load. The first set-up precedes the first unit; each unit
/// runs on the session of the latest set-up. A workload that needs a
/// set-up per unit gets one before every unit. With `alternate_trace`,
/// every second unit runs with the library's telemetry enabled. Each
/// unit's digest is compared with `expected` right away and dropped,
/// so the process's memory does not grow with the unit count; when
/// `expected` is empty and `adopt_first` is set, the first unit's
/// digest becomes the expectation.
Phase timed_phase(Workload& w, double seconds, bool alternate_trace,
                  std::vector<std::string>& expected, bool adopt_first,
                  SpanLog& spans) {
    rrb::obs::TelemetryRegistry& telemetry =
        rrb::obs::TelemetryRegistry::instance();
    Phase p;
    const bool per_unit = w.setup_per_unit();
    const Clock::time_point start = Clock::now();
    while (p.units.size() < 3 || seconds_since(start) < seconds ||
           (!per_unit && p.setups.size() < kSetups)) {
        if (per_unit ||
            (p.setups.size() < kSetups &&
             seconds_since(start) >=
                 seconds * static_cast<double>(p.setups.size()) / kSetups)) {
            const Timed span(spans, "setup");
            const CpuPath cpu;
            w.setup();
            p.setups.push_back(cpu.stop());
        }
        const bool traced = alternate_trace && p.units.size() % 2 == 1;
        if (traced) telemetry.enable();
        Unit u;
        bool threw = false;
        try {
            u = w.run_unit(spans);
        } catch (const std::exception& e) {
            threw = true;
            u.problems.push_back(std::string("threw: ") + e.what());
        }
        telemetry.disable();
        if (expected.empty() && adopt_first && !threw) expected = u.digest;
        p.matched.push_back(!threw && !expected.empty() &&
                            u.digest == expected);
        std::vector<std::string>().swap(u.digest);
        p.units.push_back(std::move(u));
        p.failed.push_back(threw);
        p.traced.push_back(traced);
    }
    return p;
}

/// Campaign runs per second of a phase: by default the rate of its
/// fastest unit (q = 1; the record line adds the median, q = 0.5). On a
/// shared host, co-tenant load only ever slows a unit down, in bursts
/// that come and go; the best of many short units measures the program,
/// their median measures the neighbours (NOTES.md, "Host noise"). The
/// CPU time of a unit's critical path already leaves out the time its
/// threads waited for a vCPU; the best unit also sees past the bursts
/// that slow the vCPU itself.
double runs_per_s(const Phase& p, bool traced = false, double q = 1.0) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < p.units.size(); ++i) {
        const Unit& u = p.units[i];
        if (!p.failed[i] && p.traced[i] == traced && u.seconds > 0.0) {
            rates.push_back(static_cast<double>(u.runs) / u.seconds);
        }
    }
    return quantile(rates, q);
}

int run(const Args& args) {
    std::filesystem::create_directories(args.scratch);
    std::unique_ptr<Workload> w =
        make_workload(args.workload, args.seed, args.scratch);
    SpanLog spans;
    rrb::obs::TelemetryRegistry& telemetry =
        rrb::obs::TelemetryRegistry::instance();

    // ------------------------------------------------------ timed phase
    TracedPhase traced;
    traced.probe_dir = args.scratch;
    if (args.trace) {
        // Scripts decoded by one cold set-up and the unit after it,
        // counted by the library (kept out of the timed phase).
        telemetry.reset();
        telemetry.enable();
        w->setup();
        (void)w->run_unit(spans);
        traced.cold_decodes = telemetry.counters()[rrb::obs::kReplayDecodes];
        telemetry.disable();
        telemetry.reset();
    }
    // Outputs expected of every unit: the reference digest at the
    // reference seed, else whatever the first unit produced.
    const bool at_default = args.seed == kDefaultSeed;
    const bool adopt_first = !at_default || args.record_reference;
    std::vector<std::string> expected;
    if (!adopt_first) {
        expected = load_reference(args.reference, args.workload);
        if (expected.empty()) {
            std::cerr << "perfbench: no reference digest for "
                      << args.workload << " in '" << args.reference
                      << "'\n";
        }
    }
    const Phase phase = timed_phase(*w, args.seconds, args.trace, expected,
                                    adopt_first, spans);
    if (args.trace) {
        traced.untraced_runs_per_s = runs_per_s(phase, false);
        traced.traced_runs_per_s = runs_per_s(phase, true);
        for (std::size_t i = 0; i < phase.units.size(); ++i) {
            if (!phase.traced[i]) continue;
            traced.traced_wall_s += phase.units[i].wall_seconds;
            ++traced.traced_units;
        }
    }

    // ------------------------------------------------- correctness
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::vector<std::string> problems;
    for (std::size_t i = 0; i < phase.units.size(); ++i) {
        const Unit& u = phase.units[i];
        ++attempted;
        const bool pass = phase.matched[i] && u.problems.empty();
        for (const std::string& problem : u.problems) {
            problems.push_back(problem);
        }
        if (!phase.matched[i] && !phase.failed[i]) {
            problems.push_back("unit digest differs from the " +
                               std::string(at_default ? "reference"
                                                      : "first unit"));
        }
        if (pass) ++ok;
    }
    std::vector<std::string> invariant;
    try {
        invariant = check_interpreter(
            *w, args.workload == "batch-grid" ? kInterpreterSamplesGrid
                                              : kInterpreterSamples);
    } catch (const std::exception& e) {
        invariant.push_back(std::string("interpreter check threw: ") +
                            e.what());
    }
    if (!invariant.empty()) {
        // Every unit produced the same outputs (digest-checked), so a
        // broken invariant fails them all.
        ok = 0;
        problems.insert(problems.end(), invariant.begin(), invariant.end());
    }
    std::map<std::string, int> distinct;
    for (const std::string& problem : problems) ++distinct[problem];
    for (const auto& [problem, times] : distinct) {
        std::cerr << "perfbench: check failed (" << times
                  << "x): " << problem << "\n";
    }

    if (args.record_reference) {
        for (const std::string& l : expected) {
            std::cout << args.workload << " " << l << "\n";
        }
        return problems.empty() ? 0 : 1;
    }

    // ---------------------------------------------------------- metrics
    std::vector<Metric> metrics;
    const double ok_frac =
        static_cast<double>(ok) / static_cast<double>(attempted);
    if (!args.trace) {
        metrics.push_back({"runs_per_s", runs_per_s(phase), "1/s"});
        metrics.push_back({"setup_s", quantile(phase.setups, 0.0), "s"});
        metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
        metrics.push_back({"ok_frac", ok_frac, "frac"});
    } else {
        measure_layers(*w, traced, spans, metrics);
    }

    const std::string span_path = args.scratch + "/spans-" + args.workload +
                                  "-seed" + std::to_string(args.seed) +
                                  (args.trace ? "-traced" : "") + ".json";
    spans.write_json(span_path);

    // Record line: the run's identity and host facts beside every metric.
    std::ostringstream unit_s;
    double best_wall_rate = 0.0;  // lower than runs_per_s when vCPUs were taken
    for (const Unit& u : phase.units) {
        if (u.wall_seconds > 0.0) {
            best_wall_rate = std::max(
                best_wall_rate, static_cast<double>(u.runs) / u.wall_seconds);
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6f",
                      unit_s.tellp() == 0 ? "" : ", ", u.seconds);
        unit_s << buf;
    }
    std::cout << "{\"perfbench_record\": {\"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"host\": \"" << json_escape(host_name())
              << "\", \"cores\": " << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"commit\": \"" << json_escape(args.commit)
              << "\", \"jobs\": " << w->jobs()
              << ", \"median_runs_per_s\": " << runs_per_s(phase, false, 0.5)
              << ", \"best_wall_runs_per_s\": " << best_wall_rate
              << ", \"setup_s\": [";
    for (std::size_t i = 0; i < phase.setups.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.6f", i == 0 ? "" : ", ",
                      phase.setups[i]);
        std::cout << buf;
    }
    std::cout << "], \"unit_s\": [" << unit_s.str()
              << "], \"metrics\": " << metrics_json(metrics) << "}}\n";

    std::cout << "{\"correct\": " << (ok == attempted ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << (attempted - ok)
              << ", \"metrics\": " << metrics_json(metrics) << "}"
              << std::endl;
    return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 --reference FILE --scratch DIR "
                     "[--commit ID] [--record-reference]\n";
        return 1;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
