// perfbench: the repository benchmark. One process runs one named workload
// against the dcolor library through its public API and prints every
// metric by name with its unit, then one JSON result line:
//
//   perfbench --workload big_job|fleet|serve --seed N --seconds S
//             --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (every name in kLayerMetrics; a layer the workload bypasses reads 0).
// Temporary files go under --workdir (default: the current directory).
// perfbench/run.py builds this binary and forwards its arguments.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.h"
#include "sim/network.h"
#include "util/rss.h"

namespace perfbench {

namespace {

struct Catalogued {
  const char* name;
  const char* unit;
};

// End-to-end metrics every untraced run prints (BENCHMARK.json
// "end_to_end" lists the same names and units).
constexpr Catalogued kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_ms.p50", "ms"},
    {"throughput_per_s", "1/s"},
    {"rss_mib", "MiB"},
};

// Per-layer metrics every traced run prints (BENCHMARK.json "per_layer").
constexpr Catalogued kLayerMetrics[] = {
    // big_job: direct-call replay of the 1M job.
    {"graph.generate_ms", "ms"},
    {"core.instance_build_ms", "ms"},
    {"core.solve_ms.t1", "ms"},
    {"core.solve_ms.t2", "ms"},
    {"core.solve_speedup_t2", "x"},
    {"check.validate_ms", "ms"},
    {"sim.batch_overhead_ms", "ms"},
    {"sim.rounds", "count"},
    {"sim.executed_rounds", "count"},
    {"sim.messages", "count"},
    {"sim.bits", "bits"},
    {"core.palette_bytes", "bytes"},
    // fleet: batch report, single-thread replay, storage.
    {"sched.steals", "count"},
    {"sched.peak_queue_depth", "count"},
    {"sched.busy_frac", "ratio"},
    {"batch.scratch_reused_frac", "ratio"},
    {"batch.report_ms", "ms"},
    {"storage.load_ms", "ms"},
    {"storage.save_ms", "ms"},
    {"storage.snapshot_built", "count"},
    {"storage.snapshot_loaded", "count"},
    {"storage.snapshot_reused", "count"},
    // serve: the edit script replayed in-process, directly, and as JSON.
    {"serve.latency_ms.p90", "ms"},
    {"serve.edit_ms.p99", "ms"},
    {"serve.query_us.p50", "us"},
    {"serve.handle_edit_us.p50", "us"},
    {"serve.transport_us", "us"},
    {"serve.json_parse_us", "us"},
    {"serve.json_dump_us", "us"},
    {"core.mutate_us.p50", "us"},
    {"core.recolor_us.p50", "us"},
    {"recolor.colors_changed", "count"},
    {"recolor.dirty_nodes", "count"},
    {"recolor.fallbacks", "count"},
    // every workload
    {"trace.overhead_frac", "ratio"},
    {"check.failed_frac", "ratio"},
    {"env.calib_ms.before", "ms"},
    {"env.calib_ms.after", "ms"},
    {"env.nproc", "count"},
    {"env.loadavg_1m", "load"},
    {"env.steal_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload big_job|fleet|serve --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    usage(flag + " expects a non-negative integer, got '" + v + "'");
  }
  return x;
}

/// Machine-wide CPU jiffies from /proc/stat: {stolen by the hypervisor,
/// all states}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0;
  double total = 0;
  for (int field = 0; field < 8; ++field) {  // user .. steal
    double v = 0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

double calibration_ms() {
  // A full-period LCG walk over 8M slots (Hull–Dobell: odd increment,
  // multiplier ≡ 1 mod 4), stored as a table so each step is a dependent
  // load from a random cache line.
  constexpr std::uint32_t kSlots = 1u << 23;
  constexpr std::uint32_t kSteps = 1u << 21;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    next[i] = (i * 2654435761u + 12345u) & (kSlots - 1);
  }
  const auto t0 = Clock::now();
  std::uint32_t p = 0;
  for (std::uint32_t s = 0; s < kSteps; ++s) p = next[p];
  const double ms = ms_since(t0);
  // Using the walk's end keeps it from being optimized away.
  if (p >= kSlots) throw std::logic_error("calibration walk left its table");
  return ms;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return static_cast<double>(dcolor::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void reset_peak_rss() {
  // Free heap the allocator still holds would otherwise count toward the
  // next peak by an amount that depends on which thread freed it.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

TempDir::TempDir(const std::string& parent, const std::string& stem) {
  std::random_device rd;
  for (int attempt = 0;; ++attempt) {
    const std::filesystem::path p =
        std::filesystem::path(parent) /
        (stem + "-" + std::to_string(rd()) + std::to_string(attempt));
    std::error_code ec;
    if (std::filesystem::create_directories(p, ec)) {
      path_ = p.string();
      return;
    }
    if (attempt > 16) {
      throw std::runtime_error("cannot create a temp dir under " + parent);
    }
  }
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seconds || !have_trace) {
    usage("--workload, --seconds and --trace are required");
  }
  void (*workload)(const Args&, Outcome&) = nullptr;
  if (args.workload == "big_job") workload = run_big_job;
  if (args.workload == "fleet") workload = run_fleet;
  if (args.workload == "serve") workload = run_serve;
  if (workload == nullptr) usage("unknown workload '" + args.workload + "'");

  // At most two threads of library work besides the client thread: the
  // setup path (generators, builders) follows this default too.
  dcolor::Network::set_default_num_threads(2);

  Outcome out;
  const double load = load_average_1m();
  const auto [steal0, total0] = cpu_jiffies();
  const double calib_before = calibration_ms();
  try {
    workload(args, out);
  } catch (const std::exception& e) {
    out.check(false, std::string("workload aborted: ") + e.what());
    if (out.attempted == 0) out.attempted = 1;
  }
  const double calib_after = calibration_ms();

  const std::int64_t attempted = std::max<std::int64_t>(1, out.attempted);
  out.add("check.failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(attempted),
          "ratio");
  out.add("env.calib_ms.before", calib_before, "ms");
  out.add("env.calib_ms.after", calib_after, "ms");
  out.add("env.nproc", std::thread::hardware_concurrency(), "count");
  out.add("env.loadavg_1m", load, "load");
  const auto [steal1, total1] = cpu_jiffies();
  out.add("env.steal_frac",
          total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0,
          "ratio");

  std::map<std::string, Metric> by_name;
  for (const Metric& m : out.metrics) {
    const auto named = [&](const Catalogued& c) { return m.name == c.name; };
    if (std::none_of(std::begin(kEndToEnd), std::end(kEndToEnd), named) &&
        std::none_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     named)) {
      std::cerr << "perfbench: metric " << m.name << " is not catalogued\n";
      return 3;
    }
    by_name[m.name] = m;
  }

  // Everything measured, for the log; then the selected set as JSON.
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& e : out.errors) {
    std::cout << "  FAILED: " << e << "\n";
  }

  std::string metrics_json;
  auto emit = [&](const Catalogued& c) {
    double value = 0;
    const auto it = by_name.find(c.name);
    if (it != by_name.end()) {
      if (it->second.unit != c.unit) {
        std::cerr << "perfbench: metric " << c.name << " has unit "
                  << it->second.unit << ", catalogue says " << c.unit << "\n";
        std::exit(3);
      }
      value = it->second.value;
    } else if (!args.trace && out.failed == 0) {
      // A run that failed reports correct: false with what it has.
      std::cerr << "perfbench: end-to-end metric " << c.name
                << " was not measured\n";
      std::exit(3);
    }
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += json_string(c.name) + ": {\"value\": " +
                    json_number(value) + ", \"unit\": " + json_string(c.unit) +
                    "}";
  };
  if (args.trace) {
    for (const Catalogued& c : kLayerMetrics) emit(c);
  } else {
    for (const Catalogued& c : kEndToEnd) emit(c);
  }
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {"
            << metrics_json << "}}" << std::endl;
  return 0;
}
