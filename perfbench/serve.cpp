// serve: an in-process Server (two workers) on loopback with one warm
// 64k-node gnp session (average degree 8) and one closed-loop client
// connection running a seeded, stationary edit script. Each cycle
//   * queries 64 random nodes (a read),
//   * adds an edge between two of them that share a color, or between a
//     random pair if none do (a write),
//   * recolors (a repair),
//   * removes the oldest added edge once 256 are outstanding, so the edge
//     count stays flat.
// One timed operation is the edit: add_edge + recolor (+ remove_edge).
// The first 256 cycles are an untimed warm-up that fills the removal
// queue. serve/json, dispatch, DynamicInstance mutation and core/recolor
// on tiny dirty regions do the work; the 1M-scale paths are bypassed.
//
// The whole process runs pinned to the CPU it starts on. An edit passes
// through the client, connection and worker threads; on a virtual
// machine a wake-up on another CPU costs an inter-processor interrupt
// whose price follows the host's load, which moved the edit p50 by a
// quarter from run to run. On one CPU each hand-off is a plain context
// switch.
//
// The traced run replays the recorded script three ways: in-process via
// Server::handle, directly on a DynamicInstance, and through
// JsonValue::parse/dump on the recorded lines.
#include <sched.h>

#include <deque>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/instance.h"
#include "core/run_context.h"
#include "core/solver_registry.h"
#include "graph/generators.h"
#include "obs/stats.h"
#include "serve/client.h"
#include "serve/dynamic_instance.h"
#include "serve/json.h"
#include "serve/server.h"
#include "storage/snapshot.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using dcolor::serve::JsonValue;

constexpr dcolor::NodeId kNodes = 65536;
constexpr int kDegree = 8;
constexpr int kHeadroom = 2;  // the server's default list slack
constexpr int kQueryNodes = 64;
constexpr std::size_t kOutstanding = 256;
constexpr std::size_t kWarmupEdits = kOutstanding;
constexpr std::size_t kReplayEdits = 1000;  // timed edits replayed (floor)
constexpr int kSetupReps = 3;
const char* const kSession = "bench";

struct Edge {
  dcolor::NodeId u = 0;
  dcolor::NodeId v = 0;
};

/// One edit of the script as the client issued it.
struct Edit {
  Edge added;
  bool applied = false;        ///< add_edge changed the topology
  bool removes = false;        ///< the oldest outstanding edge went too
  Edge removed;
  std::vector<std::string> lines;  ///< request/response lines, in order
  std::string recolor_response;
};

JsonValue request(const char* op) {
  JsonValue r = JsonValue::object();
  r.set("op", op).set("session", kSession);
  return r;
}

JsonValue mutate_request(const char* kind, Edge e) {
  JsonValue r = request("mutate");
  r.set("kind", kind)
      .set("u", static_cast<std::int64_t>(e.u))
      .set("v", static_cast<std::int64_t>(e.v));
  return r;
}

/// A running daemon and one client connection to it.
struct Daemon {
  std::unique_ptr<dcolor::serve::Server> server;
  std::thread acceptor;
  std::unique_ptr<dcolor::serve::Client> client;

  Daemon() {
    dcolor::serve::ServerOptions options;
    options.workers = 2;
    server = std::make_unique<dcolor::serve::Server>(options);
    acceptor = std::thread([s = server.get()] { s->run(); });
    client = std::make_unique<dcolor::serve::Client>(server->port());
  }
  ~Daemon() {
    client.reset();
    server->shutdown();
    acceptor.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends one request line, returns the parsed response; a response
  /// without "ok": true is a failure.
  JsonValue call(const std::string& line, Outcome& out,
                 std::string* raw = nullptr) {
    std::string response = client->call_line(line);
    JsonValue parsed = JsonValue::parse(response);
    out.check(parsed.get_bool("ok", false),
              "serve: request failed: " + line.substr(0, 80) + " -> " +
                  response.substr(0, 160));
    if (raw != nullptr) *raw = std::move(response);
    return parsed;
  }
};

/// The session's graph, generated from the workload seed before timing
/// and handed to the daemon as a graph snapshot file. Returns its edges.
std::vector<std::pair<dcolor::NodeId, dcolor::NodeId>> make_graph(
    std::uint64_t seed, const std::string& path) {
  dcolor::Rng rng = dcolor::Rng::stream(seed, 1);
  const dcolor::Graph g =
      dcolor::gnp_avg_degree(kNodes, static_cast<double>(kDegree), rng);
  dcolor::save_graph_snapshot(path, g);
  return g.edge_list();
}

/// The client's side of the script: picks the next edge to add from the
/// colors of 64 random nodes.
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(dcolor::Rng::stream(seed, 7)) {}

  std::string query_line() {
    nodes_.clear();
    JsonValue r = request("query");
    JsonValue list = JsonValue::array();
    for (int i = 0; i < kQueryNodes; ++i) {
      nodes_.push_back(static_cast<dcolor::NodeId>(rng_.below(kNodes)));
      list.push_back(static_cast<std::int64_t>(nodes_.back()));
    }
    r.set("nodes", std::move(list));
    return r.dump();
  }

  /// Two queried nodes sharing a color, else a random distinct pair.
  Edge pick(const JsonValue& response) {
    const auto& colors = response.require("colors").as_array("colors");
    for (std::size_t i = 0; i < colors.size(); ++i) {
      for (std::size_t j = i + 1; j < colors.size(); ++j) {
        if (nodes_[i] != nodes_[j] &&
            colors[i].as_int("color") == colors[j].as_int("color")) {
          return {nodes_[i], nodes_[j]};
        }
      }
    }
    const dcolor::NodeId u = nodes_[0];
    dcolor::NodeId v = nodes_[1];
    if (v == u) v = (u + 1) % kNodes;
    return {u, v};
  }

 private:
  dcolor::Rng rng_;
  std::vector<dcolor::NodeId> nodes_;
};

/// Initial coloring of a DynamicInstance the way the daemon's `solve`
/// computes it (deg_plus_one on the materialized graph).
void solve_initial(dcolor::serve::DynamicInstance& inst, std::uint64_t seed,
                   Outcome& out) {
  const dcolor::Graph g = inst.materialize();
  dcolor::ListDefectiveInstance ldi;
  ldi.graph = &g;
  ldi.lists = inst.lists().borrow();
  ldi.color_space = inst.color_space();
  dcolor::SolveRequest req;
  req.list_defective = &ldi;
  const dcolor::Solver& solver =
      dcolor::SolverRegistry::get().require("deg_plus_one");
  dcolor::RunContext ctx;
  ctx.num_threads = 1;
  ctx.seed = seed;
  dcolor::SolveResult res;
  {
    dcolor::RunScope scope(ctx);
    res = solver.solve(req, ctx);
  }
  ++out.attempted;
  out.check(dcolor::validate_solve(req, solver.capabilities(), res),
            "serve replay: initial solve invalid");
  inst.set_colors(std::move(res.colors));
}

/// The script applied straight to a DynamicInstance, optionally with the
/// library's tracer and stats registry installed for every recolor.
/// Timings and counts cover the edits after the warm-up.
class DirectReplica {
 public:
  DirectReplica(
      const std::vector<std::pair<dcolor::NodeId, dcolor::NodeId>>& edges,
      std::uint64_t seed, bool traced, Outcome& out)
      : inst_(kNodes, edges, kHeadroom, seed), seed_(seed), traced_(traced) {
    solve_initial(inst_, seed_ + ++requests_, out);
  }

  void apply(const Edit& e, bool timed, Outcome& out) {
    auto t0 = Clock::now();
    const bool applied = inst_.add_edge(e.added.u, e.added.v);
    if (timed) mutate_us.push_back(us_since(t0));
    out.check(applied == e.applied, "serve replay: add_edge disagrees");
    dcolor::RunContext ctx;
    ctx.num_threads = 1;
    ctx.seed = seed_ + ++requests_;
    if (traced_) {
      ctx.tracer = &tracer_;
      ctx.stats = &stats_;
    }
    t0 = Clock::now();
    dcolor::RecolorResult res;
    bool fell_back = false;
    {
      dcolor::RunScope scope(ctx);
      try {
        res = inst_.recolor(ctx);
      } catch (const std::exception&) {
        fell_back = true;  // the daemon would re-solve from scratch
      }
    }
    if (fell_back) solve_initial(inst_, seed_ + ++requests_, out);
    if (timed) {
      recolor_us.push_back(us_since(t0));
      colors_changed += res.colors_changed;
      dirty_nodes += res.dirty_nodes;
      fallbacks += (fell_back || res.used_greedy_fallback) ? 1 : 0;
    }
    if (e.removes) inst_.remove_edge(e.removed.u, e.removed.v);
  }

  bool valid() const { return inst_.validate(); }

  std::vector<double> mutate_us;
  std::vector<double> recolor_us;
  std::int64_t colors_changed = 0;
  std::int64_t dirty_nodes = 0;
  std::int64_t fallbacks = 0;

 private:
  dcolor::serve::DynamicInstance inst_;
  std::uint64_t seed_;
  bool traced_;
  std::uint64_t requests_ = 0;
  dcolor::Tracer tracer_;
  dcolor::StatsRegistry stats_;
};

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // threads made later inherit it
}

}  // namespace

void run_serve(const Args& args, Outcome& out) {
  pin_to_current_cpu();
  const TempDir dir(args.workdir, "serve");
  const std::string graph_path = dir.path() + "/graph.snap";
  const auto edges = make_graph(args.seed, graph_path);
  JsonValue create = request("create");
  create.set("path", graph_path)
      .set("seed", static_cast<std::int64_t>(args.seed));
  const std::string create_line = create.dump();
  const std::string solve_line = request("solve").dump();
  const std::string recolor_line = request("recolor").dump();

  // Set-up, as the client sees it: daemon start, create, first solve.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>();
    daemon->call(create_line, out);
    daemon->call(solve_line, out);
    setup_s.push_back(seconds_since(t0));
    ++out.attempted;
  }

  // The client mirrors every mutation on a local copy of the instance;
  // the daemon's final coloring must validate against it. Only the first
  // timed edits are kept for the traced replays, so client memory stays
  // flat however many edits a run completes.
  dcolor::serve::DynamicInstance mirror(kNodes, edges, kHeadroom, args.seed);
  Script script(args.seed);
  std::vector<Edit> recorded;
  std::deque<Edge> outstanding;
  std::vector<double> edit_ms;
  std::vector<double> query_us;
  edit_ms.reserve(1 << 20);
  query_us.reserve(1 << 20);
  Clock::time_point start;
  for (std::size_t i = 0;; ++i) {
    if (i == kWarmupEdits) {
      reset_peak_rss();
      start = Clock::now();
    }
    if (i >= kWarmupEdits + kReplayEdits &&
        seconds_since(start) >= args.seconds) {
      break;
    }
    const bool timed = i >= kWarmupEdits;
    auto t0 = Clock::now();
    const JsonValue colors = daemon->call(script.query_line(), out);
    if (timed) query_us.push_back(us_since(t0));

    Edit e;
    e.added = script.pick(colors);
    const std::string add_line = mutate_request("add_edge", e.added).dump();
    std::string add_response;
    std::string remove_line;
    std::string remove_response;
    t0 = Clock::now();
    e.applied = daemon->call(add_line, out, &add_response)
                    .get_bool("applied", false);
    daemon->call(recolor_line, out, &e.recolor_response);
    if (e.applied) outstanding.push_back(e.added);
    if (outstanding.size() > kOutstanding) {
      e.removes = true;
      e.removed = outstanding.front();
      outstanding.pop_front();
      remove_line = mutate_request("remove_edge", e.removed).dump();
      out.check(daemon->call(remove_line, out, &remove_response)
                    .get_bool("applied", false),
                "serve: remove_edge of an outstanding edge not applied");
    }
    if (timed) edit_ms.push_back(ms_since(t0));
    ++out.attempted;
    out.check(mirror.add_edge(e.added.u, e.added.v) == e.applied,
              "serve: add_edge applied differently on the daemon");
    if (e.removes) mirror.remove_edge(e.removed.u, e.removed.v);
    if (i < kWarmupEdits + kReplayEdits) {
      if (timed) {
        e.lines = {add_line, add_response, recolor_line, e.recolor_response};
        if (e.removes) {
          e.lines.push_back(remove_line);
          e.lines.push_back(remove_response);
        }
      }
      recorded.push_back(std::move(e));
    }
  }
  const double timed_s = seconds_since(start);
  const double rss_mib = peak_rss_mib();

  // Output checks: the daemon's own verdict, then its final coloring
  // against the client's mirror of the instance.
  const JsonValue info = daemon->call(request("info").dump(), out);
  out.check(info.get_int("violations", -1) == 0 &&
                info.get_bool("colored", false) &&
                info.get_int("dirty", -1) == 0,
            "serve: info reports violations, no coloring, or dirty nodes");
  const JsonValue all = daemon->call(request("query").dump(), out);
  daemon.reset();
  std::vector<dcolor::Color> final_colors;
  for (const JsonValue& c : all.require("colors").as_array("colors")) {
    final_colors.push_back(static_cast<dcolor::Color>(c.as_int("color")));
  }
  ++out.attempted;
  out.check(final_colors.size() == static_cast<std::size_t>(kNodes),
            "serve: final query returned the wrong number of colors");
  if (final_colors.size() == static_cast<std::size_t>(kNodes)) {
    mirror.set_colors(std::move(final_colors));
    out.check(mirror.validate(), "serve: final coloring violates a list");
  }

  out.add("setup_s", median(setup_s), "s");
  out.add("latency_ms.p50", median(edit_ms), "ms");
  out.add("throughput_per_s", static_cast<double>(edit_ms.size()) / timed_s,
          "1/s");
  out.add("rss_mib", rss_mib, "MiB");
  if (!args.trace) return;

  out.add("serve.latency_ms.p90", quantile(edit_ms, 0.9), "ms");
  out.add("serve.edit_ms.p99", quantile(edit_ms, 0.99), "ms");
  out.add("serve.query_us.p50", median(query_us), "us");
  // In-process: the same requests through Server::handle, no socket.
  std::vector<double> handle_us;
  {
    dcolor::serve::ServerOptions options;
    options.workers = 2;
    dcolor::serve::Server server(options);
    auto call = [&](const JsonValue& req) {
      const JsonValue resp = server.handle(req);
      out.check(resp.get_bool("ok", false), "serve replay: handle failed");
      return resp;
    };
    call(create);
    call(request("solve"));
    for (std::size_t i = 0; i < recorded.size(); ++i) {
      const Edit& e = recorded[i];
      const JsonValue add = mutate_request("add_edge", e.added);
      const JsonValue recolor = request("recolor");
      const JsonValue remove = mutate_request("remove_edge", e.removed);
      const auto t0 = Clock::now();
      call(add);
      const JsonValue repaired = call(recolor);
      if (e.removes) call(remove);
      if (i >= kWarmupEdits) handle_us.push_back(us_since(t0));
      const JsonValue tcp = JsonValue::parse(e.recolor_response);
      out.check(repaired.get_int("colors_changed", -1) ==
                        tcp.get_int("colors_changed", -2) &&
                    repaired.get_string("fallback", "?") ==
                        tcp.get_string("fallback", "!"),
                "serve replay: in-process recolor differs from the TCP one");
    }
  }
  out.add("serve.handle_edit_us.p50", median(handle_us), "us");
  out.add("serve.transport_us", median(edit_ms) * 1e3 - median(handle_us),
          "us");

  // The JSON layer alone, on the recorded lines of each timed edit.
  std::vector<double> parse_us;
  std::vector<double> dump_us;
  std::size_t dumped_bytes = 0;
  for (std::size_t i = kWarmupEdits; i < recorded.size(); ++i) {
    std::vector<JsonValue> parsed;
    auto t0 = Clock::now();
    for (const std::string& line : recorded[i].lines) {
      parsed.push_back(JsonValue::parse(line));
    }
    parse_us.push_back(us_since(t0));
    t0 = Clock::now();
    for (const JsonValue& v : parsed) dumped_bytes += v.dump().size();
    dump_us.push_back(us_since(t0));
  }
  out.check(dumped_bytes > 0, "serve replay: nothing dumped");
  out.add("serve.json_parse_us", median(parse_us), "us");
  out.add("serve.json_dump_us", median(dump_us), "us");

  // Directly on a DynamicInstance: an untraced and a traced replica in
  // lockstep, taking turns to go first, so both see the same conditions.
  DirectReplica direct(edges, args.seed, false, out);
  DirectReplica traced(edges, args.seed, true, out);
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const bool timed = i >= kWarmupEdits;
    DirectReplica& first = i % 2 == 0 ? direct : traced;
    DirectReplica& second = i % 2 == 0 ? traced : direct;
    first.apply(recorded[i], timed, out);
    second.apply(recorded[i], timed, out);
  }
  out.attempted += 2;
  out.check(direct.valid() && traced.valid(),
            "serve replay: final direct coloring invalid");
  out.check(traced.colors_changed == direct.colors_changed,
            "serve replay: traced recolor differs from the untraced one");
  const double recolor_p50 = median(direct.recolor_us);
  out.add("core.mutate_us.p50", median(direct.mutate_us), "us");
  out.add("core.recolor_us.p50", recolor_p50, "us");
  out.add("trace.overhead_frac",
          (median(traced.recolor_us) - recolor_p50) / recolor_p50, "ratio");
  out.add("recolor.colors_changed", static_cast<double>(direct.colors_changed),
          "count");
  out.add("recolor.dirty_nodes", static_cast<double>(direct.dirty_nodes),
          "count");
  out.add("recolor.fallbacks", static_cast<double>(direct.fallbacks), "count");
}

}  // namespace perfbench
