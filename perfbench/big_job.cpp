// big_job: the ROADMAP's headline 1M-node run. Every timed iteration is
// one `fast_two_sweep` job on a gnp graph (n = 1M, average degree 6,
// vector engine) through run_batch with two workers and big-job
// threshold 0, with the same seed every iteration. Generation, instance
// and palette build, Fast-Two-Sweep and its Two-Sweep rounds do nearly
// all the work; storage and serve do none.
//
// The traced run replays the job as direct library calls (generator,
// instance builder, registry solve at one and two threads, validation)
// and takes the exact work counters from the batch report.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "core/instance.h"
#include "core/run_context.h"
#include "core/solver_registry.h"
#include "graph/generators.h"
#include "obs/stats.h"
#include "sim/batch_runner.h"
#include "sim/network.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr dcolor::NodeId kNodes = 1000000;
constexpr int kDegree = 6;
constexpr int kThreads = 2;
constexpr std::size_t kMinIterations = 3;

dcolor::BatchJob make_job(std::uint64_t seed) {
  dcolor::BatchJob job;
  job.solver = "fast_two_sweep";
  job.generator = "gnp";
  job.n = kNodes;
  job.degree = kDegree;
  job.seed = seed;
  job.sim_engine = dcolor::EngineKind::kVector;
  return job;
}

/// One run_batch call; returns its wall time in ms and checks the job.
double run_job(const dcolor::BatchJob& job, std::uint64_t expect_hash,
               dcolor::BatchReport& report, Outcome& out) {
  dcolor::BatchOptions options;
  options.threads = kThreads;
  options.big_job_threshold = 0;
  const auto t0 = Clock::now();
  report = dcolor::run_batch({job}, options);
  const double ms = ms_since(t0);
  ++out.attempted;
  const bool ran = report.jobs.size() == 1 && report.jobs[0].error.empty();
  out.check(ran && report.jobs[0].valid, "big_job: job invalid or failed");
  out.check(!ran || expect_hash == 0 ||
                report.jobs[0].color_hash == expect_hash,
            "big_job: color_hash differs from the set-up job's");
  return ms;
}

/// A premise-by-construction OLDC instance in the batch runner's style:
/// Λ = 6 colors from a space of 12, uniform defect with Λ(d+1) above the
/// Eq. (2) and Eq. (7) thresholds for the default p and ε.
dcolor::OldcInstance build_instance(const dcolor::Graph& g,
                                    const dcolor::SolverParams& params,
                                    std::uint64_t seed) {
  constexpr int kListSize = 6;
  constexpr std::int64_t kColorSpace = 12;
  dcolor::Orientation orientation = dcolor::Orientation::by_id(g);
  const double beta = orientation.beta();
  const auto p = static_cast<double>(params.p);
  const double eq2 = std::max(p * p, static_cast<double>(kListSize)) * beta / p;
  const double eq7 =
      (1.0 + params.eps) * std::max(p, kListSize / p) * beta;
  const int defect =
      static_cast<int>(std::floor(std::max(eq2, eq7) / kListSize)) + 1;
  dcolor::Rng rng = dcolor::Rng::stream(seed, 2);
  return dcolor::random_uniform_oldc(g, std::move(orientation), kColorSpace,
                                     kListSize, defect, rng);
}

/// Registry solve at `threads` simulator/setup threads; ms.
double solve_at(int threads, const dcolor::Solver& solver,
                const dcolor::SolveRequest& req, std::uint64_t seed,
                dcolor::Tracer* tracer, dcolor::StatsRegistry* stats,
                dcolor::SolveResult& res) {
  dcolor::Network::set_default_num_threads(threads);
  dcolor::RunContext ctx;
  ctx.num_threads = threads;
  ctx.engine = dcolor::EngineKind::kVector;
  ctx.seed = seed;
  ctx.tracer = tracer;
  ctx.stats = stats;
  const auto t0 = Clock::now();
  {
    dcolor::RunScope scope(ctx);
    res = solver.solve(req, ctx);
  }
  const double ms = ms_since(t0);
  dcolor::Network::set_default_num_threads(kThreads);
  return ms;
}

void replay_layers(const Args& args, double batch_p50_ms,
                   const dcolor::BatchJobResult& job_result, Outcome& out) {
  auto t0 = Clock::now();
  dcolor::Rng graph_rng = dcolor::Rng::stream(args.seed, 1);
  const dcolor::Graph g =
      dcolor::gnp_avg_degree(kNodes, static_cast<double>(kDegree), graph_rng);
  const double generate_ms = ms_since(t0);

  const dcolor::Solver& solver =
      dcolor::SolverRegistry::get().require("fast_two_sweep");
  dcolor::SolveRequest req;
  t0 = Clock::now();
  const dcolor::OldcInstance inst = build_instance(g, req.params, args.seed);
  const double build_ms = ms_since(t0);
  req.oldc = &inst;
  ++out.attempted;
  out.check(solver.premise_holds(req), "big_job replay: premise fails");

  dcolor::SolveResult res;
  const double solve_t2 =
      solve_at(kThreads, solver, req, args.seed, nullptr, nullptr, res);
  t0 = Clock::now();
  const bool valid = dcolor::validate_solve(req, solver.capabilities(), res);
  const double validate_ms = ms_since(t0);
  out.check(valid, "big_job replay: invalid coloring at two threads");
  const std::vector<dcolor::Color> colors_t2 = std::move(res.colors);

  dcolor::Tracer tracer;
  dcolor::StatsRegistry stats;
  const double solve_t2_traced =
      solve_at(kThreads, solver, req, args.seed, &tracer, &stats, res);
  tracer.finish();
  out.check(res.colors == colors_t2, "big_job replay: traced solve differs");

  const double solve_t1 =
      solve_at(1, solver, req, args.seed, nullptr, nullptr, res);
  out.check(res.colors == colors_t2,
            "big_job replay: one-thread solve differs from two-thread");

  out.add("graph.generate_ms", generate_ms, "ms");
  out.add("core.instance_build_ms", build_ms, "ms");
  out.add("core.solve_ms.t1", solve_t1, "ms");
  out.add("core.solve_ms.t2", solve_t2, "ms");
  out.add("core.solve_speedup_t2", solve_t1 / solve_t2, "x");
  out.add("check.validate_ms", validate_ms, "ms");
  out.add("sim.batch_overhead_ms",
          batch_p50_ms - (generate_ms + build_ms + solve_t2 + validate_ms),
          "ms");
  out.add("trace.overhead_frac", (solve_t2_traced - solve_t2) / solve_t2,
          "ratio");
  out.add("sim.rounds", job_result.metrics.rounds, "count");
  out.add("sim.executed_rounds", job_result.metrics.executed_rounds, "count");
  out.add("sim.messages", job_result.metrics.total_messages, "count");
  out.add("sim.bits", job_result.metrics.total_message_bits, "bits");
  out.add("core.palette_bytes", job_result.palette_bytes, "bytes");
}

}  // namespace

void run_big_job(const Args& args, Outcome& out) {
  const dcolor::BatchJob job = make_job(args.seed);
  dcolor::BatchReport first;
  const double setup_ms = run_job(job, 0, first, out);
  const bool first_ok = out.failed == 0;
  const std::uint64_t hash = first_ok ? first.jobs[0].color_hash : 0;

  std::vector<double> latency_ms;
  std::vector<double> rss_mib;
  dcolor::BatchReport report;
  const auto start = Clock::now();
  while (latency_ms.size() < kMinIterations ||
         seconds_since(start) < args.seconds) {
    reset_peak_rss();
    latency_ms.push_back(run_job(job, hash, report, out));
    rss_mib.push_back(peak_rss_mib());
  }
  const double timed_s = seconds_since(start);

  out.add("setup_s", setup_ms / 1e3, "s");
  out.add("latency_ms.p50", median(latency_ms), "ms");
  out.add("throughput_per_s", static_cast<double>(latency_ms.size()) / timed_s,
          "1/s");
  out.add("rss_mib", median(rss_mib), "MiB");

  if (args.trace && first_ok) {
    replay_layers(args, median(latency_ms), first.jobs[0], out);
  }
}

}  // namespace perfbench
