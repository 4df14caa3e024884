// Shared plumbing of the perfbench program: arguments, timing, sample
// statistics, the metric sink each workload fills, and the noise sentinel.
//
// A workload measures end-to-end numbers with the library's tracing off
// (Args::trace == false) or, in a separate traced run, times the same
// calls layer by layer (Args::trace == true). Either way it fills one
// Outcome; main.cpp prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< timed phase length (a floor of work still runs)
  bool trace = false;   ///< false: end-to-end metrics; true: per-layer
  std::string workdir = ".";  ///< parent of every temporary file
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `attempted` counts timed operations plus the
/// set-up pass; a failed output check anywhere counts in `failed`.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records an output check; a false `ok` is one failed operation.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

inline double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Fixed memory-latency-bound calibration loop (pointer chase over a
/// 32 MiB table, independent of the workload and its seed), in ms.
double calibration_ms();

/// Peak resident set of this process since the last reset_peak_rss()
/// (or process start), MiB — the kernel's VmHWM.
double peak_rss_mib();

/// Returns free heap to the kernel and restarts its peak-RSS tracking
/// from the current RSS, so the next peak_rss_mib() covers only what
/// runs in between.
void reset_peak_rss();

/// A fresh private directory under `parent` (created), removed by the
/// destructor with everything in it.
class TempDir {
 public:
  explicit TempDir(const std::string& parent, const std::string& stem);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

// Workloads. Each returns normally with failures recorded in the Outcome;
// an exception escaping one is reported as a failed run by main().
void run_big_job(const Args& args, Outcome& out);
void run_fleet(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out);

}  // namespace perfbench
