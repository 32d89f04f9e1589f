// Differential tests for host worker-pool execution
// (Config::host_threads; docs/architecture.md §12).
//
// The pool is a wall-clock-only knob: results, frontiers, W and H
// counters, and modeled times must be bit-identical at every
// --host-threads value, under both superstep schedules and both
// compressed wire formats. These tests pin that contract, the pool's
// error protocol (a chunk exception propagates deterministically
// without deadlocking or poisoning the pool), and the steady-state
// zero-allocation property of the parallel fused pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "core/frontier.hpp"
#include "core/operators.hpp"
#include "core/problem.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/dobfs.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/sssp.hpp"
#include "test_support.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/cost.hpp"

namespace mgg {
namespace {

constexpr int kGpus = 4;
const int kThreadCounts[] = {1, 2, 4, 8};

/// Everything deterministic in RunStats — including modeled times,
/// which the pool must not perturb (unlike the sync-mode tests, where
/// times legitimately differ).
void expect_same_stats(const vgpu::RunStats& a, const vgpu::RunStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(a.total_edges, b.total_edges) << label;
  EXPECT_EQ(a.total_vertices, b.total_vertices) << label;
  EXPECT_EQ(a.total_launches, b.total_launches) << label;
  EXPECT_EQ(a.total_comm_items, b.total_comm_items) << label;
  EXPECT_EQ(a.total_comm_bytes, b.total_comm_bytes) << label;
  EXPECT_EQ(a.total_combine_items, b.total_combine_items) << label;
  EXPECT_EQ(a.wire_bytes_raw, b.wire_bytes_raw) << label;
  EXPECT_EQ(a.wire_bytes_bitmap, b.wire_bytes_bitmap) << label;
  EXPECT_EQ(a.wire_bytes_delta, b.wire_bytes_delta) << label;
  EXPECT_EQ(a.wire_encode_vertices, b.wire_encode_vertices) << label;
  EXPECT_EQ(a.wire_decode_vertices, b.wire_decode_vertices) << label;
  EXPECT_EQ(a.modeled_compute_s, b.modeled_compute_s) << label;
  EXPECT_EQ(a.modeled_comm_s, b.modeled_comm_s) << label;
  EXPECT_EQ(a.modeled_overhead_s, b.modeled_overhead_s) << label;
  EXPECT_EQ(a.modeled_overlap_hidden_s, b.modeled_overlap_hidden_s) << label;
}

/// The (sync mode, wire format) grid every primitive is swept over.
struct ModePoint {
  core::SyncMode sync;
  core::WireFormat wire;
};
const ModePoint kModes[] = {
    {core::SyncMode::kBspBarrier, core::WireFormat::kRawIds},
    {core::SyncMode::kBspBarrier, core::WireFormat::kAuto},
    {core::SyncMode::kEventPipeline, core::WireFormat::kRawIds},
    {core::SyncMode::kEventPipeline, core::WireFormat::kAuto},
};

core::Config grid_config(const ModePoint& m, int host_threads) {
  core::Config cfg = test::config_for(kGpus);
  cfg.sync_mode = m.sync;
  cfg.wire_format = m.wire;
  cfg.host_threads = host_threads;
  return cfg;
}

std::string grid_label(const ModePoint& m, int host_threads) {
  return "sync=" + core::to_string(m.sync) +
         " wire=" + core::to_string(m.wire) +
         " threads=" + std::to_string(host_threads);
}

TEST(ParallelExec, BfsBitIdenticalAcrossHostThreads) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const ModePoint& m : kModes) {
    prim::BfsResult ref;
    for (const int threads : kThreadCounts) {
      auto machine = test::test_machine(kGpus);
      core::Config cfg = grid_config(m, threads);
      cfg.mark_predecessors = true;
      const auto r = prim::run_bfs(g, src, machine, cfg);
      if (threads == 1) {
        ref = r;
        continue;
      }
      const std::string label = grid_label(m, threads);
      EXPECT_EQ(r.labels, ref.labels) << label;
      EXPECT_EQ(r.preds, ref.preds) << label;
      expect_same_stats(r.stats, ref.stats, label);
    }
  }
}

TEST(ParallelExec, SsspBitIdenticalAcrossHostThreads) {
  const auto g = test::small_weighted_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const ModePoint& m : kModes) {
    prim::SsspResult ref;
    for (const int threads : kThreadCounts) {
      auto machine = test::test_machine(kGpus);
      const auto r = prim::run_sssp(g, src, machine, grid_config(m, threads));
      if (threads == 1) {
        ref = r;
        continue;
      }
      const std::string label = grid_label(m, threads);
      // Distances bitwise (memcmp, not float ==): an FP divergence
      // must fail even through a NaN.
      ASSERT_EQ(r.dist.size(), ref.dist.size()) << label;
      EXPECT_EQ(std::memcmp(r.dist.data(), ref.dist.data(),
                            ref.dist.size() * sizeof(ValueT)),
                0)
          << label;
      expect_same_stats(r.stats, ref.stats, label);
    }
  }
}

TEST(ParallelExec, PagerankBitIdenticalAcrossHostThreads) {
  const auto g = test::small_rmat();
  for (const ModePoint& m : kModes) {
    prim::PagerankResult ref;
    for (const int threads : kThreadCounts) {
      auto machine = test::test_machine(kGpus);
      const auto r = prim::run_pagerank(g, machine, grid_config(m, threads));
      if (threads == 1) {
        ref = r;
        continue;
      }
      const std::string label = grid_label(m, threads);
      ASSERT_EQ(r.rank.size(), ref.rank.size()) << label;
      EXPECT_EQ(std::memcmp(r.rank.data(), ref.rank.data(),
                            ref.rank.size() * sizeof(ValueT)),
                0)
          << label;
      expect_same_stats(r.stats, ref.stats, label);
    }
  }
}

TEST(ParallelExec, BcBitIdenticalAcrossHostThreads) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  for (const ModePoint& m : kModes) {
    prim::BcResult ref;
    for (const int threads : kThreadCounts) {
      auto machine = test::test_machine(kGpus);
      const auto r = prim::run_bc(g, machine, grid_config(m, threads), {src});
      if (threads == 1) {
        ref = r;
        continue;
      }
      const std::string label = grid_label(m, threads);
      ASSERT_EQ(r.bc.size(), ref.bc.size()) << label;
      EXPECT_EQ(std::memcmp(r.bc.data(), ref.bc.data(),
                            ref.bc.size() * sizeof(ValueT)),
                0)
          << label;
      expect_same_stats(r.stats, ref.stats, label);
    }
  }
}

// DOBFS exercises the parallel pull path, whose parent reads go
// through relaxed atomic_refs; the direction switch schedule and
// results must not move with the pool width.
TEST(ParallelExec, DobfsBitIdenticalAcrossHostThreads) {
  const auto g = test::small_rmat();
  const VertexT src = test::first_connected_vertex(g);
  prim::DobfsResult ref;
  for (const int threads : kThreadCounts) {
    auto machine = test::test_machine(kGpus);
    core::Config cfg = test::config_for(kGpus);
    cfg.host_threads = threads;
    cfg.mark_predecessors = true;
    const auto r = prim::run_dobfs(g, src, machine, cfg);
    if (threads == 1) {
      ref = r;
      continue;
    }
    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(r.labels, ref.labels) << label;
    EXPECT_EQ(r.preds, ref.preds) << label;
    EXPECT_EQ(r.direction_switches, ref.direction_switches) << label;
    expect_same_stats(r.stats, ref.stats, label);
  }
}

// -------------------------------------------------------------------
// Pool error protocol and scheduling properties.
// -------------------------------------------------------------------

TEST(ParallelExec, ChunkExceptionPropagatesDeterministically) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  std::atomic<int> ran{0};
  try {
    pool.run_chunks(16, [&](std::size_t c) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (c == 3 || c == 11) {
        throw std::runtime_error("chunk " + std::to_string(c));
      }
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    // Lowest chunk index wins regardless of claim timing.
    EXPECT_STREQ(e.what(), "chunk 3");
  }
  // Every chunk still ran (no abandoned work behind the throw)...
  EXPECT_EQ(ran.load(), 16);
  // ...and the pool is immediately reusable.
  std::atomic<int> again{0};
  pool.run_chunks(8,
                  [&](std::size_t) { again.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(again.load(), 8);
  pool.set_workers(1);
}

TEST(ParallelExec, NestedRunChunksFallsBackInline) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  std::atomic<int> inner_total{0};
  pool.run_chunks(4, [&](std::size_t) {
    // Nested use must not deadlock: the inner call detects the held
    // job and runs its chunks inline on this thread.
    pool.run_chunks(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
  pool.set_workers(1);
}

TEST(ParallelExec, RunChunksRejectsUnplannedChunkCount) {
  // A count that did not come from chunk_count is refused whole: no
  // chunk runs, rather than chunks kMaxChunks and up being dropped.
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  std::atomic<std::size_t> ran{0};
  auto count = [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  EXPECT_THROW(pool.run_chunks(util::ThreadPool::kMaxChunks + 1, count),
               Error);
  EXPECT_EQ(ran.load(), 0u);
  // The cap itself is a valid plan, and the pool is still usable.
  pool.run_chunks(util::ThreadPool::kMaxChunks, count);
  EXPECT_EQ(ran.load(), util::ThreadPool::kMaxChunks);
  pool.set_workers(1);
}

TEST(ParallelExec, ChunkPlanIsPureFunctionOfWorkSize) {
  using util::ThreadPool;
  // The plan never depends on the worker count: these are static
  // functions of (total, grain) alone.
  EXPECT_EQ(ThreadPool::chunk_count(0, 256), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(1, 256), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(257, 256), 2u);
  EXPECT_EQ(ThreadPool::chunk_count(1 << 30, 1), ThreadPool::kMaxChunks);
  for (const std::size_t total : {1u, 17u, 4096u, 100000u}) {
    const std::size_t n = ThreadPool::chunk_count(total, 256);
    EXPECT_EQ(ThreadPool::chunk_begin(total, n, 0), 0u);
    EXPECT_EQ(ThreadPool::chunk_begin(total, n, n), total);
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_LE(ThreadPool::chunk_begin(total, n, c),
                ThreadPool::chunk_begin(total, n, c + 1));
    }
  }
  EXPECT_GE(ThreadPool::resolve_width(0), 1);
  EXPECT_LE(ThreadPool::resolve_width(0), 8);
  EXPECT_EQ(ThreadPool::resolve_width(3), 3);
  EXPECT_EQ(ThreadPool::resolve_width(10000), ThreadPool::kMaxWorkers);
}

// -------------------------------------------------------------------
// Steady-state allocation regression: once warm, the parallel fused
// pipeline's per-chunk scratch stops growing and the frontier stops
// reallocating — iterations are allocation-free exactly like the
// sequential fused core.
// -------------------------------------------------------------------

TEST(ParallelExec, ParallelFusedSteadyStateDoesNotGrowScratch) {
  const auto g = test::small_rmat(10, 8);
  auto machine = test::test_machine(1);
  vgpu::Device& device = machine.device(0);

  core::Frontier frontier;
  frontier.init(device, vgpu::AllocationScheme::kPreallocFusion,
                g.num_vertices, g.num_edges);
  util::AtomicBitset dedup;
  dedup.resize(g.num_vertices);
  util::Array1D<VertexT> temp{"advance_temp"};
  util::Array1D<SizeT> temp_edges{"advance_temp_edges"};
  temp.set_allocator(&device.memory());
  temp_edges.set_allocator(&device.memory());
  core::OpContext ctx{&device, &g,          &frontier,
                      &temp,   &temp_edges, &dedup,
                      vgpu::AllocationScheme::kPreallocFusion};
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.set_workers(4);
  ctx.pool = &pool;

  std::vector<VertexT> labels(g.num_vertices, 0);
  std::vector<VertexT> all(g.num_vertices);
  for (VertexT v = 0; v < g.num_vertices; ++v) all[v] = v;
  frontier.set_input(all);

  // Emit-all workload: maximal candidate logs, so the scratch
  // high-water mark is reached during warm-up.
  auto iterate = [&] {
    core::advance_filter(
        ctx, [&](VertexT, VertexT, SizeT) { return true; },
        [&](VertexT src, VertexT dst, SizeT) {
          labels[dst] = src;
          return true;
        });
    frontier.swap();
  };
  for (int i = 0; i < 5; ++i) iterate();

  const std::size_t warm_scratch = ctx.par_scratch_bytes();
  const std::uint64_t warm_reallocs = frontier.realloc_count();
  EXPECT_GT(warm_scratch, 0u);  // the parallel path really ran
  for (int i = 0; i < 10; ++i) iterate();
  EXPECT_EQ(ctx.par_scratch_bytes(), warm_scratch);
  EXPECT_EQ(frontier.realloc_count(), warm_reallocs);
  pool.set_workers(1);
}

}  // namespace
}  // namespace mgg
