// Repository benchmark: one workload per invocation, measured from
// outside the library through its public calls.
//
//   perfbench --workload traverse|serve-batch|serve-open --seed N
//             --seconds S --trace 0|1 [--tiny] [--trace-dir DIR]
//             [--git-sha SHA] [--source-sha SHA]
//
// Every workload runs the same pipeline on its own graph: set-up
// (graph + QueryService), single-source traversals, closed-loop
// serving, and open-loop serving. What differs per workload
// is the graph and which phase receives the --seconds budget (see
// kWorkloads and README.md). --trace 0 prints the end-to-end metrics;
// --trace 1 attaches vgpu::Tracer, steps the traversal facade by hand
// and prints the per-layer metrics plus the tracing overhead. Every
// answer is checked against a reference; any mismatch exits 1 before
// a result line is printed. The last stdout line is the result JSON.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "baselines/cpu_reference.hpp"
#include "core/problem.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "primitives/bfs.hpp"
#include "primitives/common.hpp"
#include "primitives/multi_source.hpp"
#include "primitives/sssp.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/trace.hpp"

namespace {

using namespace mgg;

/// Dataset and partitioner seeds are fixed: the graph is the dataset and
/// the partition is system configuration. --seed draws the traversal
/// sources, the queries and the arrival times.
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::uint64_t kConfigSeed = 1;
constexpr int kGpus = 4;
constexpr const char* kServeDataset = "soc-orkut";
constexpr int kHostThreads = 4;
constexpr int kLanes = 2;
constexpr int kBatchWidth = 64;
/// Bounded admission, above every rung's query count: overload shows
/// as backlog and tail latency rather than as refused queries.
constexpr std::size_t kAdmissionCapacity = 256;
constexpr int kTracedSources = 6;
constexpr int kMsReps = 3;
constexpr int kRounds = 6;
/// Offered rates of the max_qps_slo probes after the bisection, as
/// multiples of the running estimate.
constexpr std::array<double, 5> kRefineFactors = {0.8, 1.25, 0.9, 1.1, 1.0};
constexpr int kBisectProbes = 3;
/// The closed-loop and open-loop capacity runs serve successive windows
/// of a query list this many times their size, so their medians span
/// more batch compositions than one window's.
constexpr std::size_t kQueryWindows = 4;

enum class GraphKind { kRmat, kSocial };

/// One workload. Shares are fractions of --seconds; a phase with share
/// 0 runs only its minimum size.
struct WorkloadSpec {
  const char* name;
  GraphKind graph;
  int setup_reps;
  double traversal_share;       ///< single-source traversal loop
  std::size_t min_sources;
  double closed_share;          ///< repeated closed-loop runs
  std::size_t closed_queries;
  bool sssp_queries;            ///< query mix includes SSSP distances
  /// Open loop is the workload's serve pass: the untraced run also runs
  /// the low rung, and serve_modeled_ms and the serve.* layer metrics
  /// come from it.
  bool open_primary;
  double low_qps;               ///< open-loop rung for open_p50/p95_ms
  std::size_t low_queries;
  double overload_share;        ///< repeated open-loop runs for open_qps
  double overload_qps;          ///< offered rate, far above capacity
  std::size_t overload_queries;
  double search_lo_qps;         ///< max_qps_slo search range (traced run)
  double search_hi_qps;
  std::size_t probe_queries;
  double slo_ms;                ///< p95 latency limit for max_qps_slo
};

// traverse: the large rmat graph; single-source traversal gets the
// budget. serve-batch: closed-loop throughput gets the budget.
// serve-open: open-loop serving gets the budget. Queries on the rmat
// graph are BFS kinds only: a one-query SSSP batch there costs ~4x a
// BFS one, which makes its latency distribution bimodal and its p50
// unstable. One query on the rmat graph costs ~10x one on the serve
// graph, hence its lower rates, smaller open-loop runs and higher
// latency limit.
//
// open_qps offers arrivals several times faster than the service drains
// them, so its figure is the service's open-loop capacity: the backlog
// is served one query per batch. max_qps_slo (where the p95 crosses the
// latency limit) is a per-layer metric: it tracks CPU availability more
// strongly than the per-call latencies do, and one probe's p95 swings by
// 2x or more between Poisson draws near the knee.
const std::vector<WorkloadSpec> kWorkloads = {
    {"traverse", GraphKind::kRmat, 3, 0.55, 24, 0.15, 128, false, false, 10,
     100, 0.3, 200, 40, 8, 128, 60, 500.0},
    {"serve-batch", GraphKind::kSocial, 9, 0.0, 96, 0.6, 1024, true, false,
     40, 200, 0.4, 1000, 125, 50, 400, 200, 200.0},
    {"serve-open", GraphKind::kSocial, 9, 0.0, 96, 0.25, 1024, true, true, 40,
     200, 0.75, 1000, 125, 50, 400, 200, 200.0},
};

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", what.c_str());
  std::exit(1);
}

void require(bool ok, const std::string& what) {
  if (!ok) die(what);
}

double median(std::vector<double> v) {
  require(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

core::Config config_for(int gpus) {
  core::Config cfg;
  cfg.num_gpus = gpus;
  cfg.host_threads = kHostThreads;
  cfg.seed = kConfigSeed;
  return cfg;
}

serve::ServeOptions serve_options(vgpu::Tracer* tracer) {
  serve::ServeOptions opts;
  opts.config = config_for(kGpus);
  opts.batch_width = kBatchWidth;
  opts.num_lanes = kLanes;
  opts.admission_capacity = kAdmissionCapacity;
  opts.tracer = tracer;
  return opts;
}

// ---------------------------------------------------------------------
// Set-up: graph + QueryService
// ---------------------------------------------------------------------

struct GraphBuild {
  graph::Graph g;
  double generate_s = 0;  ///< generator + edge weights
  double clean_s = 0;     ///< self-loop removal, symmetrize, dedup
  double csr_s = 0;
  std::size_t generated_edges = 0;
};

/// The rmat graph (GTgraph parameters, edge factor 16), or the registry's
/// soc-orkut analog built step by step with graph::build_dataset's seeds,
/// so each cleaning stage can be timed.
GraphBuild build_graph(GraphKind kind, bool tiny) {
  GraphBuild out;
  util::WallTimer timer;
  graph::GraphCoo coo;
  std::uint64_t seed = kGraphSeed;
  if (kind == GraphKind::kRmat) {
    coo = graph::make_rmat(tiny ? 10 : 17, 16, graph::RmatParams::gtgraph(),
                           seed);
  } else {
    const auto& spec = graph::find_dataset(kServeDataset);
    seed = util::splitmix64(kGraphSeed ^
                            std::hash<std::string>{}(kServeDataset));
    coo = graph::make_social(static_cast<VertexT>(tiny ? 400 : spec.p0),
                             static_cast<int>(tiny ? 8 : spec.p1), seed);
  }
  graph::assign_random_weights(coo, 0, 64, seed ^ 0xA5A5ULL);
  out.generated_edges = coo.num_edges();
  out.generate_s = timer.seconds();
  timer.restart();
  coo.to_undirected_clean();
  out.clean_s = timer.seconds();
  timer.restart();
  out.g = graph::Graph::from_coo(coo);
  out.csr_s = timer.seconds();
  return out;
}

struct Setup {
  GraphBuild graph;
  std::unique_ptr<serve::QueryService> service;
  double seconds = 0;
};

Setup set_up(GraphKind kind, bool tiny, vgpu::Tracer* serve_tracer) {
  util::WallTimer timer;
  Setup s;
  s.graph = build_graph(kind, tiny);
  s.service = std::make_unique<serve::QueryService>(
      s.graph.g, serve_options(serve_tracer));
  s.seconds = timer.seconds();
  return s;
}

// ---------------------------------------------------------------------
// References and answer checks
// ---------------------------------------------------------------------

/// Seeded distinct traversal sources with at least one edge (rmat
/// leaves many isolated vertices, whose one-step BFS would make the
/// per-call median bimodal).
std::vector<VertexT> pick_sources(const graph::Graph& g, std::size_t n,
                                  std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedULL);
  std::set<VertexT> seen;
  std::vector<VertexT> out;
  std::size_t tries = 0;
  while (out.size() < n && tries++ < 64 * n + 1024) {
    const auto v = static_cast<VertexT>(rng.next_below(g.num_vertices));
    if (g.degree(v) > 0 && seen.insert(v).second) out.push_back(v);
  }
  require(!out.empty(), "graph has no vertex with an edge");
  return out;
}

/// serve::generate_queries, with every endpoint mapped onto a vertex that
/// has an edge. rmat leaves ~40% of its vertices isolated; a query from
/// one is answered in one step, so the share of such queries in a small
/// batch would dominate how much work the batch does.
std::vector<serve::Query> connected_queries(const graph::Graph& g,
                                            std::size_t n, std::uint64_t seed,
                                            bool sssp) {
  std::vector<VertexT> live;
  for (VertexT v = 0; v < g.num_vertices; ++v) {
    if (g.degree(v) > 0) live.push_back(v);
  }
  require(!live.empty(), "graph has no vertex with an edge");
  auto queries = serve::generate_queries(g, n, seed, sssp);
  for (auto& q : queries) {
    q.src = live[q.src % live.size()];
    q.dst = live[q.dst % live.size()];
  }
  return queries;
}

struct QueryReference {
  std::uint64_t id;  ///< serve::Query::id, echoed in its result
  serve::QueryResult expect;
};

/// Reference answers for `sample` queries spread evenly over the list,
/// each from its own individual prim::run_bfs / prim::run_sssp call (the
/// calls being checked against the CPU baselines first).
std::vector<QueryReference> reference_answers(
    const graph::Graph& g, std::span<const serve::Query> queries,
    std::size_t sample, vgpu::Machine& machine) {
  const auto cfg = config_for(kGpus);
  std::vector<QueryReference> refs;
  const std::size_t n = std::min(sample, queries.size());
  for (std::size_t k = 0; k < n; ++k) {
    const serve::Query& q = queries[k * queries.size() / n];
    serve::QueryResult r;
    if (q.kind == serve::QueryKind::kSsspDist) {
      const auto run = prim::run_sssp(g, q.src, machine, cfg);
      require(run.dist == baselines::cpu_sssp(g, q.src),
              "run_sssp differs from cpu_sssp (reference query)");
      r.dist = run.dist[q.dst];
      r.reachable = std::isfinite(r.dist);
    } else {
      const auto run = prim::run_bfs(g, q.src, machine, cfg);
      require(run.labels == baselines::cpu_bfs(g, q.src),
              "run_bfs differs from cpu_bfs (reference query)");
      r.depth = run.labels[q.dst];
      r.reachable = r.depth != kInvalidVertex;
    }
    refs.push_back({q.id, r});
  }
  return refs;
}

struct PassTotals {
  std::uint64_t queries = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< failed + timed out
  std::uint64_t batches = 0;
  std::uint64_t bfs_batches = 0;
  std::uint64_t sssp_batches = 0;
  std::uint64_t requeues = 0;
  double modeled_wh_ms = 0;
  double drain_s = 0;
  std::vector<std::uint64_t> lane_batches;
  std::vector<double> batch_fill;  ///< distinct sources / width, per batch

  void add(const serve::ServeStats& s, std::span<const serve::Query> queries,
           std::span<const serve::QueryResult> results, double last_arrival) {
    this->queries += s.queries;
    shed += s.shed;
    failed += s.failed + s.timed_out;
    batches += s.batches;
    bfs_batches += s.bfs_batches;
    sssp_batches += s.sssp_batches;
    requeues += s.requeues;
    modeled_wh_ms += (s.modeled_compute_s + s.modeled_comm_s) * 1e3;
    drain_s += s.wall_s - last_arrival;
    lane_batches.resize(std::max(lane_batches.size(), s.lanes.size()));
    for (std::size_t l = 0; l < s.lanes.size(); ++l) {
      lane_batches[l] += s.lanes[l].batches;
    }
    std::map<std::uint64_t, std::set<VertexT>> sources;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status == Status::kOk) {
        sources[results[i].batch].insert(queries[i].src);
      }
    }
    for (const auto& [batch, srcs] : sources) {
      batch_fill.push_back(static_cast<double>(srcs.size()) / kBatchWidth);
    }
  }
};

/// Accounting identity plus the sampled answers; any violation exits.
void check_serve_run(const serve::ServeStats& s,
                     std::span<const serve::QueryResult> results,
                     std::size_t submitted,
                     const std::vector<QueryReference>& refs,
                     const std::string& label) {
  require(results.size() == submitted && s.queries == submitted,
          label + ": result count != submitted queries");
  require(s.answered + s.timed_out + s.shed + s.failed == s.queries,
          label + ": answered + timed_out + shed + failed != queries");
  for (const serve::QueryResult& got : results) {
    if (got.status != Status::kOk) continue;
    const auto ref = std::find_if(refs.begin(), refs.end(), [&](const auto& r) {
      return r.id == got.id;
    });
    if (ref == refs.end()) continue;
    const bool same =
        got.reachable == ref->expect.reachable &&
        (got.kind == serve::QueryKind::kSsspDist
             ? got.dist == ref->expect.dist ||
                   (std::isinf(got.dist) && std::isinf(ref->expect.dist))
             : got.depth == ref->expect.depth);
    require(same, label + ": answer to query " + std::to_string(got.id) +
                      " differs from its individual run");
  }
}

// ---------------------------------------------------------------------
// Phases. The untraced run interleaves traversal and closed-loop
// samples in kRounds rounds, so a burst of host contention lands on a
// share of every metric's samples instead of on all samples of one
// metric (calls on the serve graph take ~10 ms, so one window would be
// well under a second). The open-loop capacity runs are spread over the
// rounds the same way; the open-loop low rung runs once, in the middle.
// ---------------------------------------------------------------------

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct TraversalSamples {
  std::size_t next = 0;  ///< next index into the source list
  std::vector<double> bfs_ms, bfs1_ms, sssp_ms, bfs_modeled_ms,
      sssp_modeled_ms;
};

/// Single-source traversals through the public facades, each source at
/// 4 vGPUs (BFS, SSSP) and 1 vGPU (BFS), every result checked against
/// the CPU baseline. Runs at least `min_sources` more sources, then
/// until `budget_s`.
void traversal_phase(const graph::Graph& g,
                     const std::vector<VertexT>& sources,
                     std::size_t min_sources, double budget_s,
                     vgpu::Machine& m4, vgpu::Machine& m1,
                     TraversalSamples& out, Counts& counts) {
  const auto cfg4 = config_for(kGpus);
  const auto cfg1 = config_for(1);
  util::WallTimer budget;
  for (std::size_t done = 0; out.next < sources.size(); ++done) {
    if (done >= min_sources && budget.seconds() >= budget_s) break;
    const VertexT src = sources[out.next++];
    const auto want_depth = baselines::cpu_bfs(g, src);
    const auto want_dist = baselines::cpu_sssp(g, src);
    const auto timed = [&](auto&& call, std::vector<double>& ms) {
      ++counts.attempted;
      util::WallTimer t;
      try {
        auto r = call();
        ms.push_back(t.milliseconds());
        return std::optional<decltype(r)>(std::move(r));
      } catch (const Error& e) {
        std::fprintf(stderr, "perfbench: traversal from %u threw: %s\n",
                     static_cast<unsigned>(src), e.what());
        ++counts.failed;
        return std::optional<decltype(call())>();
      }
    };
    if (auto r = timed([&] { return prim::run_bfs(g, src, m4, cfg4); },
                       out.bfs_ms)) {
      require(r->labels == want_depth,
              "run_bfs (4 vGPUs) differs from cpu_bfs");
      out.bfs_modeled_ms.push_back(r->stats.modeled_total_s() * 1e3);
    }
    if (auto r = timed([&] { return prim::run_sssp(g, src, m4, cfg4); },
                       out.sssp_ms)) {
      require(r->dist == want_dist,
              "run_sssp (4 vGPUs) differs from cpu_sssp");
      out.sssp_modeled_ms.push_back(r->stats.modeled_total_s() * 1e3);
    }
    if (auto r = timed([&] { return prim::run_bfs(g, src, m1, cfg1); },
                       out.bfs1_ms)) {
      require(r->labels == want_depth,
              "run_bfs (1 vGPU) differs from cpu_bfs");
    }
  }
}

/// The k-th window of `n` queries of `pool`, wrapping.
std::span<const serve::Query> window(std::span<const serve::Query> pool,
                                     std::size_t n, std::size_t k) {
  return pool.subspan(k * n % (pool.size() - n + 1), n);
}

/// Closed loop: every query admitted at t = 0 through QueryService::run.
/// Runs at least once, then while the phase's time `spent_s` (summed
/// over rounds) is below `until_s`; appends each run's QPS. Run k serves
/// window k of `n` queries of `pool`. The first run ever recorded fills
/// `first` (its modeled sums are a pure function of the queries).
void closed_phase(serve::QueryService& service,
                  std::span<const serve::Query> pool, std::size_t n,
                  const std::vector<QueryReference>& refs, double& spent_s,
                  double until_s, std::vector<double>& qps, PassTotals& first,
                  Counts& counts) {
  while (qps.empty() || spent_s < until_s) {
    util::WallTimer t;
    const auto queries = window(pool, n, qps.size());
    const auto results = service.run(queries);
    const auto& s = service.stats();
    check_serve_run(s, results, queries.size(), refs, "closed loop");
    counts.attempted += s.queries;
    counts.failed += s.failed + s.timed_out;
    if (qps.empty()) first.add(s, queries, results, 0.0);
    qps.push_back(static_cast<double>(s.queries) / s.wall_s);
    spent_s += t.seconds();
  }
}

struct Rung {
  double qps = 0;
  std::size_t answered = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  std::size_t beyond_p95 = 0;  ///< samples above the p95 rank
  double wall_s = 0;           ///< QueryService::run_open_loop wall time
  double drain_s = 0;          ///< wall time minus the last arrival
  bool meets_slo = false;
  PassTotals totals;

  /// How far the rung is past the latency limit: the larger of its p95
  /// and its end-of-run backlog, over the limit (<= 1 within it).
  double excess(double slo_ms) const {
    return std::max({p95_ms, drain_s * 1e3, 1e-3}) / slo_ms;
  }
};

/// Open loop: Poisson arrivals at `rate` QPS through
/// QueryService::run_open_loop, over all of `queries`. The rung meets the
/// latency limit when its p95 is within it, nothing was shed or failed,
/// and the run finished within the limit after its last arrival (no
/// growing backlog). Latency counts from admission, which the service
/// stamps when its dispatcher admits the query at the scheduled arrival.
Rung open_rung(serve::QueryService& service,
               std::span<const serve::Query> queries,
               const std::vector<QueryReference>& refs, double rate,
               double slo_ms, std::uint64_t seed, Counts& counts) {
  const auto arrivals =
      serve::generate_poisson_arrivals(queries.size(), rate, seed);
  const auto results = service.run_open_loop(queries, arrivals);
  const auto& s = service.stats();
  check_serve_run(s, results, queries.size(), refs,
                  "open loop @" + std::to_string(rate) + " QPS");
  counts.attempted += s.queries;
  counts.failed += s.failed + s.timed_out;

  std::vector<double> lat;
  for (const auto& r : results) {
    if (r.status == Status::kOk) lat.push_back(r.latency_ms);
  }
  std::sort(lat.begin(), lat.end());
  Rung rung;
  rung.qps = rate;
  rung.answered = lat.size();
  rung.wall_s = s.wall_s;
  rung.drain_s = s.wall_s - arrivals.back();
  rung.totals.add(s, queries, results, arrivals.back());
  if (!lat.empty()) {
    rung.p50_ms = serve::percentile(lat, 0.50);
    rung.p95_ms = serve::percentile(lat, 0.95);
    rung.beyond_p95 = static_cast<std::size_t>(
        lat.end() - std::upper_bound(lat.begin(), lat.end(), rung.p95_ms));
  }
  rung.meets_slo = !lat.empty() && rung.excess(slo_ms) <= 1.0 &&
                   rung.totals.shed == 0 && rung.totals.failed == 0;
  return rung;
}

/// max_qps_slo from probes: the least-squares line of log(excess) against
/// log(rate) over the probes near the limit (excess within a factor of 4
/// of it), solved for excess 1, so no single probe's p95 decides it.
/// Returns `fallback` while fewer than three such probes or no rising
/// line exist.
double fit_slo(const std::vector<Rung>& probes, double slo_ms,
               double fallback) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Rung& r : probes) {
    const double y = std::log(r.excess(slo_ms));
    if (std::abs(y) > std::log(4.0)) continue;
    const double x = std::log(r.qps);
    n += 1;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = n * sxx - sx * sx;
  if (n < 3 || den <= 0) return fallback;
  const double slope = (n * sxy - sx * sy) / den;
  if (slope <= 0) return fallback;
  const double intercept = (sy - slope * sx) / n;
  return std::exp(-intercept / slope);
}

/// max_qps_slo: bisects the offered rate in log space over [lo, hi]
/// with kBisectProbes probes, then probes once per kRefineFactors entry
/// around the running fit (clamped to [lo, hi]) and returns the fit over
/// all of them. Probe k draws its arrivals from seed + k.
double search_slo(serve::QueryService& service,
                  std::span<const serve::Query> queries,
                  const std::vector<QueryReference>& refs, const double lo,
                  const double hi, double slo_ms, std::uint64_t seed,
                  std::vector<Rung>& probes, Counts& counts) {
  const auto probe = [&](double rate) {
    probes.push_back(open_rung(service, queries, refs, rate, slo_ms,
                               seed + probes.size(), counts));
    return probes.back().meets_slo;
  };
  double pass = lo, fail = hi;
  for (int k = 0; k < kBisectProbes; ++k) {
    const double rate = std::sqrt(pass * fail);
    (probe(rate) ? pass : fail) = rate;
  }
  const double first = std::sqrt(pass * fail);
  for (const double f : kRefineFactors) {
    probe(std::clamp(fit_slo(probes, slo_ms, first) * f, lo, hi));
  }
  return fit_slo(probes, slo_ms, first);
}

/// Open-loop capacity: Poisson arrivals offered at `rate`, several times
/// what the service drains, so a backlog forms at once and is served one
/// query per batch (the dispatcher flushes whenever it is ahead of the
/// next arrival). Runs like closed_phase; appends answered queries /
/// run_open_loop wall time of each run. Run k serves window k of `n`
/// queries of `pool` and draws its arrivals from seed + k.
void overload_phase(serve::QueryService& service,
                    std::span<const serve::Query> pool, std::size_t n,
                    const std::vector<QueryReference>& refs, double rate,
                    double slo_ms, double& spent_s, double until_s,
                    std::uint64_t seed, std::vector<double>& qps,
                    Counts& counts) {
  while (qps.empty() || spent_s < until_s) {
    util::WallTimer t;
    const Rung r = open_rung(service, window(pool, n, qps.size()), refs,
                             rate, slo_ms, seed + qps.size(), counts);
    qps.push_back(static_cast<double>(r.answered) / r.wall_s);
    spent_s += t.seconds();
  }
}

// ---------------------------------------------------------------------
// Traced layer decomposition (--trace 1)
// ---------------------------------------------------------------------

bool same_counters(const vgpu::RunStats& a, const vgpu::RunStats& b) {
  return a.iterations == b.iterations && a.total_edges == b.total_edges &&
         a.total_vertices == b.total_vertices &&
         a.total_comm_items == b.total_comm_items &&
         a.total_comm_bytes == b.total_comm_bytes &&
         a.total_launches == b.total_launches &&
         a.modeled_total_s() == b.modeled_total_s();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

void add_metric(Metrics& m, const std::string& name, double value,
                const char* unit) {
  m.push_back({name, value, unit});
}

/// The traversal facade's steps by hand (partition -> Problem::init ->
/// Enactor::reset -> enact -> gather) plus traced-vs-untraced facade
/// runs on `g`, and multi-source enactments on the serve graph `sg`;
/// appends the partition, core, vgpu and primitives layers.
void traced_traversal_layers(const graph::Graph& g, const graph::Graph& sg,
                             const std::vector<VertexT>& sources,
                             std::uint64_t seed, vgpu::Machine& m4,
                             const std::string& chrome_path,
                             Metrics& metrics, Counts& counts) {
  const auto cfg = config_for(kGpus);

  std::vector<double> partition_ms;
  std::shared_ptr<const part::PartitionedGraph> pg;
  for (int i = 0; i < kMsReps; ++i) {
    util::WallTimer t;
    pg = core::ProblemBase::partition(g, cfg);
    partition_ms.push_back(t.milliseconds());
  }
  double border = 0;
  for (int i = 0; i < pg->num_parts(); ++i) {
    border += static_cast<double>(pg->border_total(i));
  }

  std::vector<double> init_ms, reset_ms, enact_ms, gather_ms, iters, edges,
      comm_items, comm_bytes, launches;
  for (const VertexT src : sources) {
    ++counts.attempted;
    util::WallTimer t;
    prim::BfsProblem problem;
    problem.init(pg, m4, cfg);
    init_ms.push_back(t.milliseconds());
    prim::BfsEnactor enactor(problem);
    t.restart();
    enactor.reset(src);
    reset_ms.push_back(t.milliseconds());
    t.restart();
    const vgpu::RunStats stats = enactor.enact();
    enact_ms.push_back(t.milliseconds());
    t.restart();
    const auto labels = prim::gather_vertex_values<VertexT>(
        problem.partitioned(),
        [&](int gpu, VertexT lv) { return problem.data(gpu).labels[lv]; });
    gather_ms.push_back(t.milliseconds());
    require(labels == baselines::cpu_bfs(g, src),
            "hand-stepped BFS differs from cpu_bfs");
    iters.push_back(static_cast<double>(stats.iterations));
    edges.push_back(static_cast<double>(stats.total_edges));
    comm_items.push_back(static_cast<double>(stats.total_comm_items));
    comm_bytes.push_back(static_cast<double>(stats.total_comm_bytes));
    launches.push_back(static_cast<double>(stats.total_launches));
  }

  // Traced vs untraced facade calls, alternating per source: identical
  // results and counters, and the wall-time difference is the overhead.
  vgpu::Tracer tracer;
  std::vector<double> plain_ms, traced_ms;
  double modeled_sum_s = 0, hidden_sum_s = 0;
  for (const VertexT src : sources) {
    counts.attempted += 4;
    util::WallTimer t;
    const auto bfs_plain = prim::run_bfs(g, src, m4, cfg);
    const auto sssp_plain = prim::run_sssp(g, src, m4, cfg);
    plain_ms.push_back(t.milliseconds());
    m4.set_tracer(&tracer);
    t.restart();
    const auto bfs_traced = prim::run_bfs(g, src, m4, cfg);
    const auto sssp_traced = prim::run_sssp(g, src, m4, cfg);
    traced_ms.push_back(t.milliseconds());
    m4.set_tracer(nullptr);
    require(bfs_plain.labels == bfs_traced.labels &&
                sssp_plain.dist == sssp_traced.dist,
            "tracing changed a traversal result");
    require(same_counters(bfs_plain.stats, bfs_traced.stats) &&
                same_counters(sssp_plain.stats, sssp_traced.stats),
            "tracing changed a modeled counter");
    modeled_sum_s += bfs_traced.stats.modeled_total_s() +
                     sssp_traced.stats.modeled_total_s();
    hidden_sum_s += bfs_traced.stats.modeled_overlap_hidden_s +
                    sssp_traced.stats.modeled_overlap_hidden_s;
  }
  double compute_s = 0, exposed_s = 0, sync_s = 0, total_s = 0;
  for (const auto& a : tracer.attribution()) {
    compute_s += a.compute_s;
    exposed_s += a.exposed_comm_s;
    sync_s += a.sync_s;
    total_s += a.total_s;
  }
  require(std::abs(total_s - modeled_sum_s) <=
              1e-9 * std::max(1.0, modeled_sum_s),
          "trace attribution does not sum to the modeled total");
  if (!chrome_path.empty()) tracer.write_chrome_trace(chrome_path);

  // Multi-source enactments on the serve graph, where batches run: a
  // full 64-slot batch and a one-slot batch, enact wall time from
  // RunStats; slot results checked against the CPU.
  const auto ms_sources =
      pick_sources(sg, prim::kMaxBatchWidth, seed ^ 0x64ULL);
  const std::span<const VertexT> one(ms_sources.data(), 1);
  std::vector<double> msbfs64, mssssp64, mssssp1;
  const std::size_t nv = sg.num_vertices;
  const std::size_t last = ms_sources.size() - 1;
  for (int i = 0; i < kMsReps; ++i) {
    counts.attempted += 3;
    const auto b = prim::run_msbfs(sg, ms_sources, m4, cfg);
    msbfs64.push_back(b.stats.wall_s * 1e3);
    const auto s = prim::run_msssp(sg, ms_sources, m4, cfg);
    mssssp64.push_back(s.stats.wall_s * 1e3);
    const auto s1 = prim::run_msssp(sg, one, m4, cfg);
    mssssp1.push_back(s1.stats.wall_s * 1e3);
    if (i == 0) {
      const auto bfs_last = b.slot(static_cast<int>(last), nv);
      const auto want_last = baselines::cpu_bfs(sg, ms_sources[last]);
      require(std::equal(bfs_last.begin(), bfs_last.end(), want_last.begin()),
              "run_msbfs slot differs from cpu_bfs");
      const auto want0 = baselines::cpu_sssp(sg, ms_sources[0]);
      const auto d0 = s.slot(0, nv);
      const auto d1 = s1.slot(0, nv);
      require(std::equal(d0.begin(), d0.end(), want0.begin()) &&
                  std::equal(d1.begin(), d1.end(), want0.begin()),
              "run_msssp slot differs from cpu_sssp");
    }
  }

  const double calls = static_cast<double>(sources.size());
  add_metric(metrics, "partition.build_ms", median(partition_ms), "ms");
  add_metric(metrics, "partition.border_frac", border / g.num_vertices,
             "ratio");
  add_metric(metrics, "core.init_ms", median(init_ms), "ms");
  add_metric(metrics, "core.reset_ms", median(reset_ms), "ms");
  add_metric(metrics, "core.enact_ms", median(enact_ms), "ms");
  add_metric(metrics, "core.iterations", median(iters), "count");
  add_metric(metrics, "core.edges", median(edges), "count");
  add_metric(metrics, "core.comm_items", median(comm_items), "count");
  add_metric(metrics, "core.comm_bytes", median(comm_bytes), "bytes");
  add_metric(metrics, "core.launches", median(launches), "count");
  add_metric(metrics, "vgpu.modeled_compute_ms", compute_s / calls * 1e3, "ms");
  add_metric(metrics, "vgpu.modeled_exposed_comm_ms",
             exposed_s / calls * 1e3, "ms");
  add_metric(metrics, "vgpu.modeled_sync_ms", sync_s / calls * 1e3, "ms");
  add_metric(metrics, "vgpu.modeled_hidden_ms", hidden_sum_s / calls * 1e3,
             "ms");
  add_metric(metrics, "vgpu.trace_dropped",
             static_cast<double>(tracer.dropped_spans()), "count");
  add_metric(metrics, "primitives.gather_ms", median(gather_ms), "ms");
  add_metric(metrics, "primitives.msbfs64_ms", median(msbfs64), "ms");
  add_metric(metrics, "primitives.mssssp64_ms", median(mssssp64), "ms");
  add_metric(metrics, "primitives.mssssp1_ms", median(mssssp1), "ms");
  add_metric(metrics, "trace.overhead_frac",
             median(traced_ms) / median(plain_ms) - 1.0, "fraction");
}

void serve_layers(const PassTotals& t, Metrics& metrics) {
  double lane_max = 0, lane_sum = 0;
  for (const auto b : t.lane_batches) {
    lane_max = std::max(lane_max, static_cast<double>(b));
    lane_sum += static_cast<double>(b);
  }
  const double lane_mean =
      t.lane_batches.empty() ? 0 : lane_sum / t.lane_batches.size();
  const double queries = std::max<double>(1, static_cast<double>(t.queries));
  add_metric(metrics, "serve.batches", static_cast<double>(t.batches), "count");
  add_metric(metrics, "serve.bfs_batches", static_cast<double>(t.bfs_batches),
             "count");
  add_metric(metrics, "serve.sssp_batches",
             static_cast<double>(t.sssp_batches), "count");
  add_metric(metrics, "serve.batch_fill",
             t.batch_fill.empty() ? 0 : util::mean(t.batch_fill), "fraction");
  add_metric(metrics, "serve.lane_imbalance",
             lane_mean > 0 ? lane_max / lane_mean : 0, "ratio");
  add_metric(metrics, "serve.requeues", static_cast<double>(t.requeues),
             "count");
  add_metric(metrics, "serve.drain_s", t.drain_s, "s");
  add_metric(metrics, "serve.shed_frac", static_cast<double>(t.shed) / queries,
             "fraction");
  add_metric(metrics, "serve.failed_frac",
             static_cast<double>(t.failed) / queries, "fraction");
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir;
  std::string git_sha;
  std::string source_sha;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    require(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        require(val == "0" || val == "1", "--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--trace-dir") {
        a.trace_dir = val;
      } else if (key == "--git-sha") {
        a.git_sha = val;
      } else if (key == "--source-sha") {
        a.source_sha = val;
      } else {
        die("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      die("bad value for " + key + ": " + val);
    }
  }
  require(have_workload, "--workload is required");
  require(a.seconds > 0 && a.seconds <= 600, "--seconds must be in (0, 600]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  require(spec != nullptr, "unknown workload " + args.workload);

  try {
    Counts counts;
    const std::uint64_t seed = args.seed;
    vgpu::Tracer serve_tracer;

    // Set-up, repeated; the last repetition's graph and service are
    // used. The traced run builds once, with a tracer on lane 0.
    std::vector<double> setup_s;
    Setup setup;
    for (int i = 0; i < (args.trace ? 1 : spec->setup_reps); ++i) {
      setup = Setup{};
      setup = set_up(spec->graph, args.tiny,
                     args.trace ? &serve_tracer : nullptr);
      setup_s.push_back(setup.seconds);
    }
    const graph::Graph& g = setup.graph.g;
    serve::QueryService& service = *setup.service;

    auto m4 = vgpu::Machine::create("k40", kGpus);
    auto m1 = vgpu::Machine::create("k40", 1);

    const std::size_t closed_n = args.tiny ? 32 : spec->closed_queries;
    const std::size_t low_n = args.tiny ? 9 : spec->low_queries;
    const std::size_t overload_n = args.tiny ? 9 : spec->overload_queries;
    const std::size_t probe_n = args.tiny ? 9 : spec->probe_queries;
    // Below the admission bound, an open-loop run never sheds.
    require(std::max({low_n, overload_n, probe_n}) < kAdmissionCapacity,
            "open-loop runs must fit the admission bound");
    const std::size_t pool_n = std::max(
        {kQueryWindows * std::max(closed_n, overload_n), low_n, probe_n});
    const auto queries =
        connected_queries(g, pool_n, seed, spec->sssp_queries);
    const auto closed_qs = std::span(queries).first(closed_n);
    const auto low_qs = std::span(queries).first(low_n);
    const auto probe_qs = std::span(queries).first(probe_n);
    const auto refs = reference_answers(g, queries, args.tiny ? 8 : 16, m4);
    const std::size_t min_sources = args.tiny ? 3 : spec->min_sources;
    const auto sources = pick_sources(
        g, args.trace ? kTracedSources
                      : std::max<std::size_t>(min_sources, 4096),
        seed);
    // Arrival seeds of the open-loop runs after the low rung.
    const std::uint64_t open_seed = util::splitmix64(seed);

    Metrics metrics;
    std::vector<std::pair<std::string, double>> samples;
    std::optional<Rung> low;
    std::vector<Rung> probes;  // max_qps_slo search (traced run)
    std::vector<double> open_qps_samples;

    if (!args.trace) {
      TraversalSamples trav;
      std::vector<double> qps, open_qps;
      PassTotals closed_totals;
      double closed_s = 0, overload_s = 0;
      for (int round = 0; round < kRounds; ++round) {
        const double upto = args.seconds * (round + 1) / kRounds;
        traversal_phase(g, sources, (min_sources + kRounds - 1) / kRounds,
                        spec->traversal_share * args.seconds / kRounds, m4,
                        m1, trav, counts);
        closed_phase(service, queries, closed_n, refs, closed_s,
                     spec->closed_share * upto, qps, closed_totals, counts);
        overload_phase(service, queries, overload_n, refs, spec->overload_qps,
                       spec->slo_ms, overload_s, spec->overload_share * upto,
                       open_seed, open_qps, counts);
        if (spec->open_primary && round == kRounds / 2) {
          low = open_rung(service, low_qs, refs, spec->low_qps, spec->slo_ms,
                          seed, counts);
          require(low->answered > 0, "low rung answered no query");
        }
      }
      require(!trav.bfs_ms.empty() && !trav.sssp_ms.empty() &&
                  !trav.bfs1_ms.empty(),
              "every traversal failed");

      add_metric(metrics, "setup_s", median(setup_s), "s");
      add_metric(metrics, "bfs_ms_p50", median(trav.bfs_ms), "ms");
      add_metric(metrics, "bfs_1gpu_ms_p50", median(trav.bfs1_ms), "ms");
      add_metric(metrics, "sssp_ms_p50", median(trav.sssp_ms), "ms");
      // Modeled times over the first min_sources sources only, so they
      // are exact for a seed however many sources the budget allowed.
      const auto first = [&](const std::vector<double>& v) {
        return std::vector<double>(
            v.begin(), v.begin() + std::min(v.size(), min_sources));
      };
      add_metric(metrics, "bfs_modeled_ms", median(first(trav.bfs_modeled_ms)),
                 "ms");
      add_metric(metrics, "sssp_modeled_ms",
                 median(first(trav.sssp_modeled_ms)), "ms");
      add_metric(metrics, "batch_qps", median(qps), "queries/s");
      add_metric(metrics, "serve_modeled_ms",
                 low ? low->totals.modeled_wh_ms : closed_totals.modeled_wh_ms,
                 "ms");
      add_metric(metrics, "open_qps", median(open_qps), "queries/s");

      samples = {{"setup_reps", setup_s.size()},
                 {"traversal_sources", trav.bfs_ms.size()},
                 {"closed_runs", qps.size()},
                 {"open_qps_runs", open_qps.size()}};
      open_qps_samples = open_qps;
      if (low) {
        samples.push_back({"open_low_rung_answered", low->answered});
        samples.push_back({"open_low_rung_beyond_p95", low->beyond_p95});
      }
    } else {
      const std::string stem = args.trace_dir.empty()
                                   ? std::string()
                                   : args.trace_dir + "/" + spec->name +
                                         "-seed" + std::to_string(seed);
      if (spec->graph == GraphKind::kSocial && !args.tiny) {
        const auto reg = graph::build_dataset(kServeDataset, kGraphSeed).graph;
        require(reg.row_offsets == g.row_offsets &&
                    reg.col_indices == g.col_indices &&
                    reg.edge_values == g.edge_values,
                "serve graph differs from the registry's soc-orkut analog");
      }
      add_metric(metrics, "graph.generate_s", setup.graph.generate_s, "s");
      add_metric(metrics, "graph.clean_s", setup.graph.clean_s, "s");
      add_metric(metrics, "graph.csr_s", setup.graph.csr_s, "s");
      add_metric(metrics, "graph.edges_kept_frac",
                 static_cast<double>(g.num_edges) /
                     (2.0 * static_cast<double>(setup.graph.generated_edges)),
                 "fraction");
      GraphBuild serve_graph;
      if (spec->graph != GraphKind::kSocial) {
        serve_graph = build_graph(GraphKind::kSocial, args.tiny);
      }
      traced_traversal_layers(
          g, spec->graph == GraphKind::kSocial ? g : serve_graph.g, sources,
          seed, m4, stem.empty() ? stem : stem + "-traversal.json", metrics,
          counts);

      // The primary serve pass, with lane 0 traced. Closed-loop answers
      // and modeled sums must match an untraced service's exactly.
      serve::QueryService plain(g, serve_options(nullptr));
      const auto want = plain.run(closed_qs);
      const auto& ps = plain.stats();
      check_serve_run(ps, want, closed_n, refs, "untraced closed loop");
      counts.attempted += ps.queries;
      std::vector<double> qps;
      PassTotals closed_totals;
      double closed_s = 0;
      closed_phase(service, closed_qs, closed_n, refs, closed_s, 0.0, qps,
                   closed_totals, counts);
      const auto& ts = service.stats();
      require(ts.modeled_compute_s == ps.modeled_compute_s &&
                  ts.modeled_comm_s == ps.modeled_comm_s &&
                  ts.total_edges == ps.total_edges &&
                  ts.total_comm_bytes == ps.total_comm_bytes,
              "tracing changed the serve modeled totals");
      // Open-loop latency at the low rung. It is a per-layer metric
      // because wake-up latency on a shared host moves it by up to 3x
      // between runs. On serve-open the rung is also the serve pass.
      low = open_rung(service, low_qs, refs, spec->low_qps, spec->slo_ms,
                      seed, counts);
      require(low->answered > 0, "low rung answered no query");
      add_metric(metrics, "open_p50_ms", low->p50_ms, "ms");
      add_metric(metrics, "open_p95_ms", low->p95_ms, "ms");
      add_metric(metrics, "max_qps_slo",
                 search_slo(service, probe_qs, refs, spec->search_lo_qps,
                            spec->search_hi_qps, spec->slo_ms, open_seed,
                            probes, counts),
                 "queries/s");
      serve_layers(spec->open_primary ? low->totals : closed_totals,
                   metrics);
      if (!stem.empty()) serve_tracer.write_chrome_trace(stem + "-serve.json");
      samples = {{"traced_sources", sources.size()},
                 {"serve_trace_dropped", serve_tracer.dropped_spans()}};
    }

    // Run context, then the result as the last line.
    const std::size_t csr_bytes =
        g.row_offsets.size() * sizeof(g.row_offsets[0]) +
        g.col_indices.size() * sizeof(g.col_indices[0]) +
        g.edge_values.size() * sizeof(g.edge_values[0]);
    util::JsonWriter ctx;
    ctx.begin_object().key("context").begin_object();
    ctx.key("workload").value(spec->name);
    ctx.key("seed").value(static_cast<unsigned long long>(seed));
    ctx.key("seconds").value(args.seconds);
    ctx.key("trace").value(args.trace);
    ctx.key("tiny").value(args.tiny);
    ctx.key("git_sha").value(args.git_sha.empty() ? "unknown" : args.git_sha);
    ctx.key("source_sha256")
        .value(args.source_sha.empty() ? "unknown" : args.source_sha);
    ctx.key("nproc").value(
        static_cast<long long>(std::thread::hardware_concurrency()));
    ctx.key("host_threads").value(static_cast<long long>(kHostThreads));
    ctx.key("vgpus").value(static_cast<long long>(kGpus));
    ctx.key("baseline_vgpus").value(1LL);
    ctx.key("lanes").value(static_cast<long long>(kLanes));
    ctx.key("batch_width").value(static_cast<long long>(kBatchWidth));
    ctx.key("admission_capacity")
        .value(static_cast<unsigned long long>(kAdmissionCapacity));
    ctx.key("slo_ms").value(spec->slo_ms);
    ctx.key("graph").value(spec->graph == GraphKind::kRmat
                               ? (args.tiny ? "rmat-10-16" : "rmat-17-16")
                               : (args.tiny ? "social-400-8" : kServeDataset));
    ctx.key("vertices").value(static_cast<long long>(g.num_vertices));
    ctx.key("edges").value(static_cast<unsigned long long>(g.num_edges));
    ctx.key("csr_bytes").value(static_cast<unsigned long long>(csr_bytes));
    ctx.key("l2_bytes").value(
        static_cast<long long>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
    ctx.key("l3_bytes").value(
        static_cast<long long>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
    ctx.key("query_pool").value(static_cast<unsigned long long>(pool_n));
    ctx.key("closed_queries").value(static_cast<unsigned long long>(closed_n));
    ctx.key("low_rung_qps").value(spec->low_qps);
    ctx.key("low_rung_queries").value(static_cast<unsigned long long>(low_n));
    ctx.key("open_qps_offered").value(spec->overload_qps);
    ctx.key("open_qps_queries")
        .value(static_cast<unsigned long long>(overload_n));
    ctx.key("search_qps_range").begin_array();
    ctx.value(spec->search_lo_qps).value(spec->search_hi_qps).end_array();
    ctx.key("search_probe_queries")
        .value(static_cast<unsigned long long>(probe_n));
    ctx.key("rounds").value(static_cast<long long>(kRounds));
    ctx.key("samples").begin_object();
    for (const auto& [name, n] : samples) ctx.key(name).value(n);
    ctx.end_object();
    const auto rung_json = [&](const Rung& r) {
      ctx.begin_object();
      ctx.key("qps").value(r.qps);
      ctx.key("answered").value(static_cast<unsigned long long>(r.answered));
      ctx.key("p50_ms").value(r.p50_ms);
      ctx.key("p95_ms").value(r.p95_ms);
      ctx.key("beyond_p95")
          .value(static_cast<unsigned long long>(r.beyond_p95));
      ctx.key("drain_s").value(r.drain_s);
      ctx.key("meets_slo").value(r.meets_slo);
      ctx.end_object();
    };
    if (low) {
      ctx.key("low_rung");
      rung_json(*low);
    }
    ctx.key("open_qps_samples").begin_array();
    for (const double q : open_qps_samples) ctx.value(q);
    ctx.end_array();
    ctx.key("probes").begin_array();
    for (const Rung& r : probes) rung_json(r);
    ctx.end_array().end_object().end_object();
    std::printf("%s\n", ctx.str().c_str());

    util::JsonWriter out;
    out.begin_object();
    out.key("correct").value(true);
    out.key("attempted")
        .value(static_cast<unsigned long long>(counts.attempted));
    out.key("failed").value(static_cast<unsigned long long>(counts.failed));
    out.key("metrics").begin_object();
    for (const Metric& m : metrics) {
      require(std::isfinite(m.value), m.name + " is not finite");
      out.key(m.name).begin_object();
      out.key("value").value(m.value);
      out.key("unit").value(m.unit);
      out.end_object();
    }
    out.end_object().end_object();
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    die(std::string("unexpected error: ") + e.what());
  }
  return 0;
}
