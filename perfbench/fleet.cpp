// fleet: a 96-job mixed batch per timed iteration — 8 solvers ×
// {gnp, regular, geometric} × n = 16384 × 4 seeds — through run_batch with
// two workers, the auto big-job threshold, per-job streaming (on_result)
// plus the JSON report, over a file-backed snapshot cache. The set-up
// batch builds and saves the cache; every timed batch mmaps it. Level-1
// scheduling, scratch-arena reuse, snapshot loading and report
// serialization dominate; generators and builders are bypassed, and every
// job is pinned to one simulator thread.
//
// The traced run alternates untraced and traced batches (library tracer
// and stats registry installed on the calling thread), replays every job
// on one worker, and times snapshot load and save directly.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <regex>

#include "bench.h"
#include "obs/stats.h"
#include "sim/batch_runner.h"
#include "sim/trace.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace {

constexpr int kThreads = 2;
constexpr std::size_t kMinIterations = 4;
constexpr int kSetupReps = 3;

std::vector<dcolor::BatchJob> make_jobs(std::uint64_t seed) {
  const char* solvers[] = {"two_sweep",      "fast_two_sweep",
                           "congest_oldc",   "deg_plus_one",
                           "slack1_arbdefective", "linial",
                           "greedy",         "luby"};
  const char* generators[] = {"gnp", "regular", "geometric"};
  std::vector<dcolor::BatchJob> jobs;
  for (const char* solver : solvers) {
    for (const char* generator : generators) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        dcolor::BatchJob job;
        job.solver = solver;
        job.generator = generator;
        job.n = 16384;
        job.seed = seed * 4 + k;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

/// The report with every nondeterministic "t" block removed.
std::string strip_timing(const std::string& report_json) {
  static const std::regex t_block(R"(, "t": \{[^}]*\})");
  return std::regex_replace(report_json, t_block, "");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Batch {
  dcolor::BatchReport report;
  std::string json;        ///< to_json()
  double wall_ms = 0;      ///< run_batch + streaming + to_json
  double report_ms = 0;    ///< to_json alone
};

/// One batch: streamed per-job lines plus the final report, all checked.
Batch run_fleet_batch(const std::vector<dcolor::BatchJob>& jobs,
                      const std::string& cache_dir, int threads,
                      Outcome& out) {
  dcolor::BatchOptions options;
  options.threads = threads;
  options.snapshot_dir = cache_dir;
  std::string stream;
  std::size_t streamed = 0;
  bool in_order = true;
  options.on_result = [&](std::size_t index, const dcolor::BatchJobResult& r) {
    in_order = in_order && index == streamed;
    ++streamed;
    stream += dcolor::batch_stream_line(index, r);
    stream += '\n';
  };
  Batch b;
  const auto t0 = Clock::now();
  b.report = dcolor::run_batch(jobs, options);
  const auto t1 = Clock::now();
  b.json = b.report.to_json();
  b.report_ms = ms_since(t1);
  b.wall_ms = ms_since(t0);
  ++out.attempted;
  out.check(streamed == jobs.size() && in_order,
            "fleet: streamed job lines missing or out of order");
  out.check(b.report.jobs.size() == jobs.size() &&
                b.report.jobs_valid == static_cast<std::int64_t>(jobs.size()) &&
                b.report.jobs_failed == 0,
            "fleet: a job failed or produced an invalid coloring");
  return b;
}

/// Loads every snapshot in `cache_dir` (timed), verifies its payload, and
/// re-saves it under `resave_dir` (timed), which must reproduce the file
/// byte for byte. Returns {load ms, save ms}.
std::pair<double, double> replay_storage(const std::string& cache_dir,
                                         const std::string& resave_dir,
                                         Outcome& out) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
    files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  double load_ms = 0;
  double save_ms = 0;
  for (const auto& file : files) {
    auto t0 = Clock::now();
    const dcolor::InstanceSnapshot snap =
        dcolor::InstanceSnapshot::load(file.string());
    load_ms += ms_since(t0);
    ++out.attempted;
    snap.verify_payload();
    const std::string copy = resave_dir + "/" + file.filename().string();
    t0 = Clock::now();
    if (!snap.has_instance()) {
      dcolor::save_graph_snapshot(copy, snap.graph());
    } else if (snap.info().has_orientation) {
      dcolor::save_instance_snapshot(copy, snap.instance());
    } else {
      dcolor::save_instance_snapshot(copy, snap.list_instance());
    }
    save_ms += ms_since(t0);
    out.check(read_file(copy) == read_file(file.string()),
              "fleet: re-saved snapshot differs from " +
                  file.filename().string());
  }
  return {load_ms, save_ms};
}

}  // namespace

void run_fleet(const Args& args, Outcome& out) {
  const std::vector<dcolor::BatchJob> jobs = make_jobs(args.seed);

  // Set-up: cold batches, each building and saving a fresh cache; the
  // last cache serves the timed phase.
  std::vector<double> setup_ms;
  std::unique_ptr<TempDir> cache;
  Batch first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cache = std::make_unique<TempDir>(args.workdir, "fleet-cache");
    first = run_fleet_batch(jobs, cache->path(), kThreads, out);
    setup_ms.push_back(first.wall_ms);
  }

  std::vector<double> latency_ms;
  std::vector<double> report_ms;
  std::vector<double> traced_ms;
  std::vector<double> steals;
  std::vector<double> peak_queue;
  std::vector<double> reused_frac;
  std::vector<double> rss_mib;
  std::string reference;  // the first timed batch, "t" blocks stripped
  std::int64_t loaded = 0;
  std::int64_t reused = 0;
  const auto start = Clock::now();
  while (latency_ms.size() < kMinIterations ||
         seconds_since(start) < args.seconds) {
    // Traced runs alternate: every other batch runs with the library's
    // tracer and stats registry installed on this thread.
    const bool traced = args.trace && latency_ms.size() % 2 == 1;
    dcolor::Tracer tracer;
    dcolor::StatsRegistry stats;
    if (traced) {
      tracer.install();
      stats.install();
    }
    reset_peak_rss();
    const Batch b = run_fleet_batch(jobs, cache->path(), kThreads, out);
    rss_mib.push_back(peak_rss_mib());
    if (traced) {
      stats.uninstall();
      tracer.finish();
      traced_ms.push_back(b.wall_ms);
    }
    latency_ms.push_back(b.wall_ms);
    report_ms.push_back(b.report_ms);
    steals.push_back(static_cast<double>(b.report.sched.steals));
    peak_queue.push_back(static_cast<double>(b.report.sched.peak_queue_depth));
    reused_frac.push_back(static_cast<double>(b.report.scratch_reused) /
                          static_cast<double>(jobs.size()));
    const std::string stripped = strip_timing(b.json);
    if (reference.empty()) {
      reference = stripped;
      loaded = b.report.snapshot_loaded;
      reused = b.report.snapshot_reused;
      out.check(b.report.jobs == first.report.jobs,
                "fleet: cached batch results differ from the set-up batch");
    }
    out.check(stripped == reference,
              "fleet: report differs from the first timed batch");
  }
  const double timed_s = seconds_since(start);

  out.add("setup_s", median(setup_ms) / 1e3, "s");
  out.add("latency_ms.p50", median(latency_ms), "ms");
  out.add("throughput_per_s", static_cast<double>(latency_ms.size()) / timed_s,
          "1/s");
  out.add("rss_mib", median(rss_mib), "MiB");
  if (!args.trace) return;

  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < latency_ms.size(); i += 2) {
    untraced_ms.push_back(latency_ms[i]);
  }
  const double untraced_p50 = median(untraced_ms);
  out.add("trace.overhead_frac",
          (median(traced_ms) - untraced_p50) / untraced_p50, "ratio");
  out.add("sched.steals", median(steals), "count");
  out.add("sched.peak_queue_depth", median(peak_queue), "count");
  out.add("batch.scratch_reused_frac", median(reused_frac), "ratio");
  out.add("batch.report_ms", median(report_ms), "ms");
  out.add("storage.snapshot_built",
          static_cast<double>(first.report.snapshot_built), "count");
  out.add("storage.snapshot_loaded", static_cast<double>(loaded), "count");
  out.add("storage.snapshot_reused", static_cast<double>(reused), "count");

  // Every job once more, on a single worker: the summed job time against
  // the two-worker makespan is the scheduler's busy fraction.
  const Batch serial = run_fleet_batch(jobs, cache->path(), 1, out);
  out.check(strip_timing(serial.json) == reference,
            "fleet: one-worker report differs from the two-worker one");
  double busy_ms = 0;
  for (const dcolor::BatchJobResult& r : serial.report.jobs) {
    busy_ms += static_cast<double>(r.t.wall_ns) / 1e6;
  }
  out.add("sched.busy_frac", busy_ms / (median(latency_ms) * kThreads),
          "ratio");

  const TempDir resave(args.workdir, "fleet-resave");
  const auto [load_ms, save_ms] =
      replay_storage(cache->path(), resave.path(), out);
  out.add("storage.load_ms", load_ms, "ms");
  out.add("storage.save_ms", save_ms, "ms");
}

}  // namespace perfbench
