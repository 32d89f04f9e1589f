// Bit-packed multi-source BFS / SSSP (batched query traversal).
//
// Classic MS-BFS packing (Then et al., VLDB'15) on the paper's mGPU
// skeleton: up to 64 sources share one traversal, with per-vertex
// 64-bit words instead of scalar labels:
//
//   mask[v]    cumulative source bits that have reached v (monotone);
//   update_cur[v]   bits v newly gained *last* iteration — frozen
//              while this iteration's advance runs, so the two-phase
//              (test, op) advance keeps its pure-candidate contract;
//   update_next[v]  bits gained *this* iteration, written by the
//              advance op and by expand_incoming. begin_iteration()
//              swaps the two arrays and clears the new next — the
//              level-synchronous analogue of BFS's label stamp.
//
// One advance sweep serves the whole batch: an edge (u, v) is live
// when update_cur[u] has bits v's mask lacks; the op ORs the fresh
// bits into mask/update_next and the output frontier carries v *once*
// per iteration (the operator dedup bitmap — dedup per word, not per
// source). W and S are paid once per batch instead of once per source,
// and H shrinks the same way: a remote push sends each border vertex
// once, with the update word as two VertexT associates (lo/hi — masks
// must travel bit-exactly, and ValueT is float), riding the existing
// raw/bitmap/varint wire formats unchanged.
//
// MsBfs stamps per-slot depths (iteration + 1, exactly BFS's label
// rule) so batched depths are bit-identical to 64 individual runs.
// MsSssp keeps per-slot distances and relaxes only the slots set in
// update_cur[src]; relaxation stays on the sequential single-functor
// advance for the same reason SSSP does (dist[src] may improve mid-
// advance). Distances converge to the same unique least fixpoint as
// individual runs, hence bit-identical results there too.
//
// A batch pays for its occupied slots, not for the Problem's width:
// reset touches only the k = sources().size() occupied slots, and
// MsSssp ships k distance associates per pushed vertex, so a k-source
// batch on a width-64 Problem models the same W and H as a width-k
// run. MsSssp stores distances vertex-major (one row of k floats,
// padded to a multiple of 4, per vertex), so an edge relaxes src's row
// against dst's row four slots at a time.
//
// The serve layer (src/serve/) packs point queries into these batches;
// docs/architecture.md §13 has the state-split and batching story.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/enactor.hpp"
#include "core/problem.hpp"
#include "graph/csr.hpp"
#include "util/array1d.hpp"
#include "vgpu/machine.hpp"

namespace mgg::prim {

/// Width cap: one machine word of source bits.
inline constexpr int kMaxBatchWidth = 64;

/// Per-GPU bit-mask state shared by the multi-source primitives.
struct MaskSlice {
  util::Array1D<std::uint64_t> mask{"ms.mask"};
  util::Array1D<std::uint64_t> update_cur{"ms.update_cur"};
  util::Array1D<std::uint64_t> update_next{"ms.update_next"};
};

/// Common half of the multi-source Problems: a fixed batch width
/// (slot capacity, allocation-time) and the per-run source list
/// (reset-time; may be shorter than width). Only the occupied slots
/// [0, sources().size()) carry state: reset leaves the tail slots'
/// values untouched, no mask word ever sets their bits, and the
/// per-slot readers reject them.
class MsProblemBase : public core::ProblemBase {
 public:
  explicit MsProblemBase(int width);

  int width() const noexcept { return width_; }
  /// Sources of the current run, slot i = sources()[i]. Duplicate
  /// entries are legal (slots then shadow each other bit-for-bit).
  std::span<const VertexT> sources() const noexcept { return sources_; }

  MaskSlice& mask_slice(int gpu) { return mask_slices_[gpu]; }

  /// Prepare a batched traversal from `srcs` (1..width() sources):
  /// zero all mask state, record `srcs`, clear the occupied slots'
  /// values, and set slot bits — mask on every local copy of each
  /// source (so no GPU re-discovers it), and update_next on every copy
  /// (swapped into update_cur by the enactor's begin_iteration(0) —
  /// iteration 0 reads the seeds there) — stamping the slot's seed
  /// value (depth 0 / distance 0) on the same copies.
  void reset(std::span<const VertexT> srcs);

  /// Unique (host_gpu -> host-local IDs) seed lists for the current
  /// sources, ready for seed_frontier (slot order, deduplicated).
  std::vector<std::vector<VertexT>> seed_lists() const;

 protected:
  /// Allocate the mask/update words for `gpu` (called from the derived
  /// init_data_slice alongside its own arrays).
  void init_mask_slice(int gpu);
  /// Reject slots outside the current run's occupied range.
  void require_occupied(int slot) const;
  /// Reset hooks: unreach every vertex in the occupied slots (the
  /// sources are already recorded), then seed one copy of one source.
  virtual void clear_slot_values() = 0;
  virtual void seed_slot_value(int slot, int gpu, VertexT lv) = 0;

 private:
  int width_ = 0;
  std::vector<VertexT> sources_;
  std::vector<MaskSlice> mask_slices_;
};

/// Mask-word half of the multi-source Enactors: reset + seeding, the
/// level-synchronous update-word swap, and the update word's transport.
class MsEnactorBase : public core::EnactorBase {
 public:
  explicit MsEnactorBase(MsProblemBase& problem)
      : core::EnactorBase(problem), ms_base_(problem) {}

  /// Reset problem data and seed every source's host GPU.
  void reset(std::span<const VertexT> srcs);

 protected:
  /// The update word as lo/hi VertexT slots (bit-exact transport).
  int num_vertex_associates() const override { return 2; }
  void fill_vertex_associates(Slice& s, int slot,
                              std::span<const VertexT> sources,
                              VertexT* out) override;
  /// Swap update_cur/update_next and clear the new next on every GPU
  /// (single-threaded between supersteps); charges the clear as one
  /// memset-shaped kernel per GPU.
  void begin_iteration(std::uint64_t iteration) override;
  /// Word-mask visitation is order-independent within an iteration
  /// (mask ORs and min-relaxations are monotone).
  bool dense_frontier_capable() const override { return true; }
  /// Single advance whose allocation precedes the functors; mask/depth
  /// writes are monotone/first-writer-wins and distance writes are
  /// monotone min-relaxations, so replay is safe.
  bool core_replayable() const override { return true; }

 private:
  MsProblemBase& ms_base_;
};

// ------------------------------------------------------------------
// MsBfs
// ------------------------------------------------------------------

class MsBfsProblem : public MsProblemBase {
 public:
  using MsProblemBase::MsProblemBase;

  /// Per-GPU data beyond the mask words: slot-major per-slot depths
  /// (slot i's row is depth[i * num_total, (i + 1) * num_total)).
  /// Reset refills only the occupied rows; read through depth_at().
  struct DataSlice {
    util::Array1D<VertexT> depth{"msbfs.depth"};
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }

  /// Slot `slot`'s BFS depth of local vertex `lv` on `gpu`
  /// (kInvalidVertex if unreached); slot must be occupied.
  VertexT depth_at(int gpu, int slot, VertexT lv) const;

 protected:
  void init_data_slice(int gpu) override;
  void clear_slot_values() override;
  void seed_slot_value(int slot, int gpu, VertexT lv) override;

 private:
  std::vector<DataSlice> slices_;
};

class MsBfsEnactor : public MsEnactorBase {
 public:
  explicit MsBfsEnactor(MsBfsProblem& problem)
      : MsEnactorBase(problem), ms_problem_(problem) {}

 protected:
  void iteration_core(Slice& s) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;

 private:
  MsBfsProblem& ms_problem_;
};

/// Batched-BFS result: depth[slot * |V| + v] is slot `slot`'s BFS depth
/// of global vertex v (kInvalidVertex if unreached) — bit-identical to
/// run_bfs(sources[slot]) for every slot.
struct MsBfsResult {
  int width = 0;
  std::vector<VertexT> depth;  ///< slot-major, width x |V|
  vgpu::RunStats stats;

  std::span<const VertexT> slot(int i, std::size_t num_vertices) const {
    return {depth.data() + static_cast<std::size_t>(i) * num_vertices,
            num_vertices};
  }
};

/// Convenience facade: partition, run one batched BFS over `srcs`
/// (1..64 sources), gather per-slot depths.
MsBfsResult run_msbfs(const graph::Graph& g, std::span<const VertexT> srcs,
                      vgpu::Machine& machine, const core::Config& config);

// ------------------------------------------------------------------
// MsSssp
// ------------------------------------------------------------------

class MsSsspProblem : public MsProblemBase {
 public:
  using MsProblemBase::MsProblemBase;

  /// Vertex-major per-slot tentative distances: local vertex lv's row
  /// is dist[lv * row_stride(), (lv + 1) * row_stride()), slot i at
  /// offset i (infinity() = unreached). Allocated for round_up(width,
  /// 4) floats per vertex; reset sizes the rows to the occupied slots.
  /// Read through dist_at().
  struct DataSlice {
    util::Array1D<ValueT> dist{"mssssp.dist"};
  };

  DataSlice& data(int gpu) { return slices_[gpu]; }

  /// Floats per vertex row: sources().size() rounded up to 4, so every
  /// row is whole 16-byte groups and padding lanes hold infinity().
  std::size_t row_stride() const noexcept { return row_stride_; }

  /// Slot `slot`'s tentative distance of local vertex `lv` on `gpu`;
  /// slot must be occupied.
  ValueT dist_at(int gpu, int slot, VertexT lv) const;

 protected:
  void init_data_slice(int gpu) override;
  void clear_slot_values() override;
  void seed_slot_value(int slot, int gpu, VertexT lv) override;

 private:
  std::vector<DataSlice> slices_;
  std::size_t row_stride_ = 0;
};

class MsSsspEnactor : public MsEnactorBase {
 public:
  explicit MsSsspEnactor(MsSsspProblem& problem)
      : MsEnactorBase(problem), ms_problem_(problem) {}

 protected:
  void iteration_core(Slice& s) override;
  /// One ValueT slot per occupied batch slot: the sender's tentative
  /// distance. Receivers min-combine only the slots set in the update
  /// word, which are always occupied.
  int num_value_associates() const override;
  void fill_value_associates(Slice& s, int slot,
                             std::span<const VertexT> sources,
                             ValueT* out) override;
  void expand_incoming(Slice& s, const core::Message& msg) override;

 private:
  MsSsspProblem& ms_problem_;
};

/// Batched-SSSP result: dist[slot * |V| + v] (infinity() if
/// unreachable) — bit-identical to run_sssp(sources[slot]) per slot.
struct MsSsspResult {
  int width = 0;
  std::vector<ValueT> dist;  ///< slot-major, width x |V|
  vgpu::RunStats stats;

  std::span<const ValueT> slot(int i, std::size_t num_vertices) const {
    return {dist.data() + static_cast<std::size_t>(i) * num_vertices,
            num_vertices};
  }
};

MsSsspResult run_msssp(const graph::Graph& g, std::span<const VertexT> srcs,
                       vgpu::Machine& machine, const core::Config& config);

}  // namespace mgg::prim
