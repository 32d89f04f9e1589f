#include "primitives/multi_source.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "primitives/common.hpp"
#include "util/error.hpp"

namespace mgg::prim {

namespace {

constexpr ValueT kInf = std::numeric_limits<ValueT>::infinity();

/// Visit every local copy of global vertex `v` as (gpu, local_id):
/// the host copy plus duplicate-all replicas or 1-hop proxies,
/// mirroring BfsProblem::reset's placement scan.
template <typename Fn>
void for_each_copy(const core::ProblemBase& p, VertexT v, Fn&& fn) {
  const auto [host, host_local] = p.locate(v);
  for (int gpu = 0; gpu < p.num_gpus(); ++gpu) {
    if (gpu == host) {
      fn(gpu, host_local);
      continue;
    }
    const part::SubGraph& s = p.sub(gpu);
    if (p.config().duplication == part::Duplication::kAll) {
      fn(gpu, v);
      continue;
    }
    // Proxies are the tail of the local numbering, in ascending
    // global-ID order (PartitionedGraph::build sorts them).
    const auto proxies_begin = s.local_to_global.begin() + s.num_local;
    const auto it =
        std::lower_bound(proxies_begin, s.local_to_global.end(), v);
    if (it != s.local_to_global.end() && *it == v) {
      fn(gpu, static_cast<VertexT>(it - s.local_to_global.begin()));
    }
  }
}

std::uint64_t join_mask_word(VertexT lo, VertexT hi) {
  return static_cast<std::uint64_t>(lo) |
         (static_cast<std::uint64_t>(hi) << 32);
}

/// Floats in a vertex-major MsSssp row holding `slots` slots: whole
/// 16-byte groups, so the row kernel never reads past a row.
std::size_t padded_row(std::size_t slots) {
  return (slots + 3) & ~std::size_t{3};
}

/// Update words with at least this many set slots relax their rows in
/// 16-byte groups; sparser words visit set bits one at a time.
constexpr int kRowKernelMinBits = 8;

#if defined(__SSE2__)
/// relax_row's dense path: one 16-byte group of slots per step,
/// skipping groups whose nibble of `bits` is empty.
std::uint64_t relax_row_groups(const ValueT* src_row, ValueT* dst_row,
                               std::size_t stride, std::uint64_t bits,
                               ValueT w) {
  const __m128 wv = _mm_set1_ps(w);
  const __m128i lane_bit = _mm_set_epi32(8, 4, 2, 1);
  std::uint64_t improved = 0;
  for (std::size_t g = 0; g < stride && (bits >> g) != 0; g += 4) {
    const int nibble = static_cast<int>((bits >> g) & 0xF);
    if (nibble == 0) continue;
    const __m128 live = _mm_castsi128_ps(_mm_cmpeq_epi32(
        _mm_and_si128(_mm_set1_epi32(nibble), lane_bit), lane_bit));
    const __m128 candidate = _mm_add_ps(_mm_loadu_ps(src_row + g), wv);
    const __m128 old = _mm_loadu_ps(dst_row + g);
    const __m128 take = _mm_and_ps(_mm_cmplt_ps(candidate, old), live);
    _mm_storeu_ps(dst_row + g, _mm_or_ps(_mm_and_ps(take, candidate),
                                         _mm_andnot_ps(take, old)));
    improved |= static_cast<std::uint64_t>(_mm_movemask_ps(take)) << g;
  }
  return improved;
}
#endif

/// Relax the slots set in `bits` from `src_row` into `dst_row` (rows
/// of `stride` floats, stride % 4 == 0): dst[i] = min(dst[i], src[i] +
/// w) per set slot i. Returns the slots that improved. Each slot is an
/// independent IEEE float add and compare, so any grouping yields the
/// same rows and bits. Inlined into the per-edge functor: the sparse
/// loop is the whole cost of a narrow batch's edge. The popcount is
/// only taken for rows wide enough to hold a dense word.
[[gnu::always_inline]] inline std::uint64_t relax_row(const ValueT* src_row,
                                                      ValueT* dst_row,
                                                      std::size_t stride,
                                                      std::uint64_t bits,
                                                      ValueT w) {
#if defined(__SSE2__)
  if (stride >= 8 && std::popcount(bits) >= kRowKernelMinBits) {
    return relax_row_groups(src_row, dst_row, stride, bits, w);
  }
#endif
  std::uint64_t improved = 0;
  while (bits != 0) {
    const int slot = std::countr_zero(bits);
    bits &= bits - 1;
    const ValueT candidate = src_row[slot] + w;
    if (candidate < dst_row[slot]) {
      dst_row[slot] = candidate;
      improved |= std::uint64_t{1} << slot;
    }
  }
  return improved;
}

}  // namespace

// ------------------------------------------------------------------
// MsProblemBase
// ------------------------------------------------------------------

MsProblemBase::MsProblemBase(int width) : width_(width) {
  MGG_REQUIRE(width >= 1 && width <= kMaxBatchWidth,
              "batch width must be in [1, 64]");
}

void MsProblemBase::init_mask_slice(int gpu) {
  if (mask_slices_.empty()) mask_slices_.resize(num_gpus());
  MaskSlice& m = mask_slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  for (auto* a : {&m.mask, &m.update_cur, &m.update_next}) {
    a->set_allocator(&device(gpu).memory());
    a->allocate(s.num_total());
  }
}

void MsProblemBase::require_occupied(int slot) const {
  MGG_REQUIRE(slot >= 0 && static_cast<std::size_t>(slot) < sources_.size(),
              "slot is not occupied by the current batch");
}

void MsProblemBase::reset(std::span<const VertexT> srcs) {
  MGG_REQUIRE(!srcs.empty() && srcs.size() <= static_cast<std::size_t>(width_),
              "batch must hold 1..width sources");
  for (const VertexT src : srcs) {
    MGG_REQUIRE(src < partitioned().global_vertices(),
                "source out of range");
  }
  sources_.assign(srcs.begin(), srcs.end());
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    MaskSlice& m = mask_slices_[gpu];
    m.mask.fill(0);
    m.update_cur.fill(0);
    m.update_next.fill(0);
  }
  clear_slot_values();
  // Slot bits land in update_next: the enactor's begin_iteration(0)
  // swaps them into update_cur, which iteration 0's advance reads.
  for (int slot = 0; slot < static_cast<int>(srcs.size()); ++slot) {
    const std::uint64_t bit = std::uint64_t{1} << slot;
    for_each_copy(*this, srcs[slot], [&](int gpu, VertexT lv) {
      MaskSlice& m = mask_slices_[gpu];
      m.mask[lv] |= bit;
      m.update_next[lv] |= bit;
      seed_slot_value(slot, gpu, lv);
    });
  }
}

std::vector<std::vector<VertexT>> MsProblemBase::seed_lists() const {
  std::vector<std::vector<VertexT>> seeds(num_gpus());
  for (const VertexT src : sources_) {
    const auto [host, host_local] = locate(src);
    auto& list = seeds[host];
    bool present = false;
    for (const VertexT v : list) {
      if (v == host_local) {
        present = true;
        break;
      }
    }
    if (!present) list.push_back(host_local);
  }
  return seeds;
}

// ------------------------------------------------------------------
// MsEnactorBase
// ------------------------------------------------------------------

void MsEnactorBase::reset(std::span<const VertexT> srcs) {
  ms_base_.reset(srcs);
  reset_frontiers();
  const auto seeds = ms_base_.seed_lists();
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    if (!seeds[gpu].empty()) seed_frontier(gpu, seeds[gpu]);
  }
}

void MsEnactorBase::begin_iteration(std::uint64_t /*iteration*/) {
  // Freeze this iteration's update words and clear the next — the
  // level-synchronous swap that makes the two-phase advance's test
  // pure. Runs single-threaded between supersteps; the clear is one
  // memset-shaped kernel per GPU, charged to the opening superstep.
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    MaskSlice& m = ms_base_.mask_slice(gpu);
    std::swap(m.update_cur, m.update_next);
    m.update_next.fill(0);
    ms_base_.device(gpu).add_kernel_cost(0, ms_base_.sub(gpu).num_total(), 1,
                                         1.0, "ms_update_clear");
  }
}

void MsEnactorBase::fill_vertex_associates(Slice& s, int slot,
                                           std::span<const VertexT> sources,
                                           VertexT* out) {
  const auto& update = ms_base_.mask_slice(s.gpu).update_next;
  const int shift = slot == 0 ? 0 : 32;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = static_cast<VertexT>(update[sources[i]] >> shift);
  }
}

// ------------------------------------------------------------------
// MsBfs
// ------------------------------------------------------------------

void MsBfsProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  init_mask_slice(gpu);
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  d.depth.set_allocator(&device(gpu).memory());
  d.depth.allocate(static_cast<std::size_t>(width()) * s.num_total());
}

void MsBfsProblem::clear_slot_values() {
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    std::fill_n(slices_[gpu].depth.data(),
                sources().size() * sub(gpu).num_total(), kInvalidVertex);
  }
}

void MsBfsProblem::seed_slot_value(int slot, int gpu, VertexT lv) {
  slices_[gpu].depth[static_cast<std::size_t>(slot) * sub(gpu).num_total() +
                     lv] = 0;
}

VertexT MsBfsProblem::depth_at(int gpu, int slot, VertexT lv) const {
  require_occupied(slot);
  return slices_[gpu]
      .depth[static_cast<std::size_t>(slot) * sub(gpu).num_total() + lv];
}

void MsBfsEnactor::iteration_core(Slice& s) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsBfsProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const VertexT next_label = static_cast<VertexT>(iteration()) + 1;

  // Split test/commit form, as in BFS: update_cur is frozen for the
  // whole advance and mask only grows, so a false test stays false —
  // the candidate sweep can run on the host pool. The commit re-checks
  // against the live mask and ORs in whatever is still fresh; the
  // operator dedup emits dst once per iteration no matter how many
  // edges contribute bits.
  core::advance_filter(
      s.ctx,
      [&](VertexT src, VertexT dst, SizeT) {
        return (m.update_cur[src] & ~m.mask[dst]) != 0;
      },
      [&](VertexT src, VertexT dst, SizeT) {
        std::uint64_t fresh = m.update_cur[src] & ~m.mask[dst];
        if (fresh == 0) return false;
        m.mask[dst] |= fresh;
        m.update_next[dst] |= fresh;
        while (fresh != 0) {
          const int slot = std::countr_zero(fresh);
          fresh &= fresh - 1;
          d.depth[static_cast<std::size_t>(slot) * stride + dst] = next_label;
        }
        return true;
      });
}

void MsBfsEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  MsBfsProblem::DataSlice& d = ms_problem_.data(s.gpu);
  const std::size_t stride = s.sub->num_total();
  const VertexT label = static_cast<VertexT>(iteration()) + 1;
  const auto lo = msg.vertex_slot(0);
  const auto hi = msg.vertex_slot(1);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    std::uint64_t fresh = join_mask_word(lo[i], hi[i]) & ~m.mask[v];
    if (fresh == 0) continue;  // combiner: every received bit known
    // Dedup-append invariant: a hosted vertex is already queued for
    // the next input frontier iff its update_next word is nonzero
    // (written by the local advance or an earlier sender's message).
    if (m.update_next[v] == 0) s.frontier.append_input(v);
    m.mask[v] |= fresh;
    m.update_next[v] |= fresh;
    while (fresh != 0) {
      const int slot = std::countr_zero(fresh);
      fresh &= fresh - 1;
      d.depth[static_cast<std::size_t>(slot) * stride + v] = label;
    }
  }
}

MsBfsResult run_msbfs(const graph::Graph& g, std::span<const VertexT> srcs,
                      vgpu::Machine& machine, const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    MsBfsProblem problem(static_cast<int>(srcs.size()));
    problem.init(g, machine, cfg);
    MsBfsEnactor enactor(problem);
    enactor.reset(srcs);

    MsBfsResult result;
    result.width = problem.width();
    result.stats = enactor.enact();
    const auto& pg = problem.partitioned();
    const std::size_t nv = pg.global_vertices();
    result.depth.resize(static_cast<std::size_t>(result.width) * nv);
    for (int slot = 0; slot < result.width; ++slot) {
      auto out = result.depth.begin() +
                 static_cast<std::ptrdiff_t>(slot * nv);
      for (VertexT v = 0; v < pg.global_vertices(); ++v) {
        out[v] = problem.depth_at(pg.owner_of(v), slot, pg.host_local_of(v));
      }
    }
    return result;
  });
}

// ------------------------------------------------------------------
// MsSssp
// ------------------------------------------------------------------

void MsSsspProblem::init_data_slice(int gpu) {
  if (slices_.empty()) slices_.resize(num_gpus());
  init_mask_slice(gpu);
  DataSlice& d = slices_[gpu];
  const part::SubGraph& s = sub(gpu);
  MGG_REQUIRE(s.csr.has_values() || s.csr.num_edges == 0,
              "SSSP needs edge values");
  d.dist.set_allocator(&device(gpu).memory());
  d.dist.allocate(padded_row(static_cast<std::size_t>(width())) *
                  s.num_total());
}

void MsSsspProblem::clear_slot_values() {
  row_stride_ = padded_row(sources().size());
  for (int gpu = 0; gpu < num_gpus(); ++gpu) {
    std::fill_n(slices_[gpu].dist.data(), row_stride_ * sub(gpu).num_total(),
                kInf);
  }
}

void MsSsspProblem::seed_slot_value(int slot, int gpu, VertexT lv) {
  slices_[gpu].dist[lv * row_stride_ + static_cast<std::size_t>(slot)] = 0;
}

ValueT MsSsspProblem::dist_at(int gpu, int slot, VertexT lv) const {
  require_occupied(slot);
  return slices_[gpu].dist[lv * row_stride_ + static_cast<std::size_t>(slot)];
}

int MsSsspEnactor::num_value_associates() const {
  return static_cast<int>(ms_problem_.sources().size());
}

void MsSsspEnactor::iteration_core(Slice& s) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  ValueT* const dist = ms_problem_.data(s.gpu).dist.data();
  const std::size_t stride = ms_problem_.row_stride();
  const auto& values = s.sub->csr.edge_values;

  // Sequential single-functor form, for SSSP's reason: a slot's
  // dist[src] may improve mid-advance (src can be a dst of an earlier
  // edge), so there is no pure candidate test. Each edge relaxes only
  // the slots whose source distance changed last iteration.
  core::advance_filter(s.ctx, [&](VertexT src, VertexT dst, SizeT e) {
    const std::uint64_t bits = m.update_cur[src];
    if (bits == 0) return false;  // stale proxy word; nothing to relax
    const std::uint64_t improved =
        relax_row(dist + src * stride, dist + dst * stride, stride, bits,
                  values[e]);
    if (improved == 0) return false;
    m.mask[dst] |= improved;
    m.update_next[dst] |= improved;
    return true;
  });
}

void MsSsspEnactor::fill_value_associates(Slice& s, int slot,
                                          std::span<const VertexT> sources,
                                          ValueT* out) {
  const ValueT* const dist = ms_problem_.data(s.gpu).dist.data() + slot;
  const std::size_t stride = ms_problem_.row_stride();
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = dist[sources[i] * stride];
  }
}

void MsSsspEnactor::expand_incoming(Slice& s, const core::Message& msg) {
  MaskSlice& m = ms_problem_.mask_slice(s.gpu);
  ValueT* const dist = ms_problem_.data(s.gpu).dist.data();
  const std::size_t stride = ms_problem_.row_stride();
  const auto lo = msg.vertex_slot(0);
  const auto hi = msg.vertex_slot(1);
  for (std::size_t i = 0; i < msg.vertices.size(); ++i) {
    const VertexT v = msg.vertices[i];
    ValueT* const row = dist + v * stride;
    std::uint64_t bits = join_mask_word(lo[i], hi[i]);
    std::uint64_t improved = 0;
    while (bits != 0) {
      const int slot = std::countr_zero(bits);
      bits &= bits - 1;
      const ValueT received = msg.value_slot(slot)[i];
      if (received < row[slot]) {  // combiner: take the minimum
        row[slot] = received;
        improved |= std::uint64_t{1} << slot;
      }
    }
    if (improved == 0) continue;
    if (m.update_next[v] == 0) s.frontier.append_input(v);
    m.mask[v] |= improved;
    m.update_next[v] |= improved;
  }
}

MsSsspResult run_msssp(const graph::Graph& g, std::span<const VertexT> srcs,
                       vgpu::Machine& machine, const core::Config& config) {
  return run_with_degrade(machine, config, [&](const core::Config& cfg) {
    MsSsspProblem problem(static_cast<int>(srcs.size()));
    problem.init(g, machine, cfg);
    MsSsspEnactor enactor(problem);
    enactor.reset(srcs);

    MsSsspResult result;
    result.width = problem.width();
    result.stats = enactor.enact();
    const auto& pg = problem.partitioned();
    const std::size_t nv = pg.global_vertices();
    result.dist.resize(static_cast<std::size_t>(result.width) * nv);
    for (int slot = 0; slot < result.width; ++slot) {
      auto out = result.dist.begin() +
                 static_cast<std::ptrdiff_t>(slot * nv);
      for (VertexT v = 0; v < pg.global_vertices(); ++v) {
        out[v] = problem.dist_at(pg.owner_of(v), slot, pg.host_local_of(v));
      }
    }
    return result;
  });
}

}  // namespace mgg::prim
