// ProblemBase: owns the distributed graph and per-GPU data (§III-B).
//
// Init() mirrors the paper's BaseProblem::Init: partition the graph,
// build the partition/conversion tables, distribute sub-graphs to the
// virtual GPUs (charging each device's memory for its slice), and let
// the primitive allocate its per-GPU DataSlice. Reset() prepares a new
// run (e.g. a new BFS source).
//
// Per-graph vs per-query state (docs/architecture.md §13): the
// partitioned graph is immutable after build and held by shared_ptr,
// so many Problems — serving many concurrent queries — can init() from
// one partition() result without re-partitioning or copying the CSR
// slices. Everything mutable (DataSlices, frontiers, comm buffers)
// stays per-Problem/per-Enactor, which is what makes concurrent
// enactments on the shared graph safe.
#pragma once

#include <memory>
#include <vector>

#include "core/comm.hpp"
#include "core/load_balance.hpp"
#include "graph/csr.hpp"
#include "partition/partitioned_graph.hpp"
#include "partition/partitioner.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/memory.hpp"

namespace mgg::core {

/// Per-run configuration shared by Problem and Enactor.
struct Config {
  int num_gpus = 1;
  std::string partitioner = "random";
  part::Duplication duplication = part::Duplication::kAll;
  CommStrategy comm = CommStrategy::kSelective;
  /// Superstep schedule: classic two-barrier BSP, or the event-driven
  /// pipeline (per-peer chunked push + per-(sender, receiver) event
  /// handshakes; only the convergence barrier remains). Results, W,
  /// and H are bit-identical across modes — only the schedule and the
  /// modeled time change.
  SyncMode sync_mode = SyncMode::kBspBarrier;
  vgpu::AllocationScheme scheme = vgpu::AllocationScheme::kPreallocFusion;
  LoadBalance load_balance = LoadBalance::kEdgeBalanced;
  std::uint64_t seed = 1;
  std::uint64_t max_iterations = 1u << 20;
  bool mark_predecessors = false;
  /// Dense-frontier switch point as a fraction of |V_i|: when a GPU's
  /// input frontier exceeds this fraction of its local vertices,
  /// advance iterates the bitmap representation instead of the
  /// compacted queue. 0 disables dense mode entirely (the default);
  /// only primitives that declare dense_frontier_capable() honor it.
  double dense_threshold = 0;
  /// Wire format for frontier pushes (core/comm.hpp). kRawIds (the
  /// default) reproduces every prior run's H bytes bit-identically;
  /// kAuto picks bitmap vs delta-varint per (peer, superstep) by the
  /// density heuristic below. Either compressed format keeps results,
  /// frontiers, and H *item* counts bit-identical — only bytes on the
  /// wire and the modeled encode/decode kernels (charged to W) change.
  WireFormat wire_format = WireFormat::kRawIds;
  /// kAuto's density switch point: use a bitmap when a peer bucket
  /// holds at least this fraction of the receiver's hosted vertices
  /// (and the bucket is ascending — see wire::encode), delta-varint
  /// otherwise. A |universe|-bit bitmap beats 4-byte raw IDs above
  /// 1/32 density; 1/16 leaves margin for the varint's wins on sparse
  /// ascending buckets.
  double wire_density_threshold = 1.0 / 16;
  /// Two-level combine for multi-node topologies (docs/architecture.md
  /// §14): when on and the machine has a node hierarchy
  /// (Interconnect::has_nodes()), cross-node pushes are staged through
  /// a deterministic per-destination-node gateway vGPU — senders pay
  /// the fast intra-node hop, the gateway merge-dedups the node's
  /// buckets, re-encodes once (bitmap density judged against the
  /// destination *node's* hosted universe), and pays a single
  /// inter-node transfer. Results, frontiers, and every item-shaped
  /// counter stay bit-identical to the flat path — only the modeled
  /// byte/time split across link classes and the gateway's kernel
  /// charges change. Ignored on single-node machines.
  bool two_level_combine = false;
  /// Host worker threads backing the shared util::ThreadPool that the
  /// kernel-execution hot paths (advance pipelines, gather packaging,
  /// wire encode/decode, route pass, load-balance scan) run on.
  /// 0 = auto (hardware concurrency, capped at 8). Results, frontiers,
  /// W, H, and modeled times are bit-identical at every width — the
  /// pool only changes wall-clock time (docs/architecture.md §12).
  int host_threads = 0;

  // --- Fault-recovery knobs (all defaults preserve pre-recovery
  // behavior bit-identically; see docs/architecture.md §10) ---

  /// Grow-and-retry budget for a transient mid-superstep OOM (the
  /// §IV-C just-enough gamble losing): free the output queue, regrow
  /// with headroom, and deterministically replay the superstep — up to
  /// this many times per run. 0 (default) disables recovery: the OOM
  /// propagates as a clean typed Error exactly as before. Only
  /// primitives whose iteration_core is replay-safe
  /// (EnactorBase::core_replayable()) ever replay.
  int max_oom_regrows = 0;
  /// Bounded retries for a transient transfer fault, charged to the
  /// per-GPU comm timeline with modeled exponential backoff
  /// (50 us * 2^attempt). Retries only matter when a FaultInjector is
  /// installed; fault-free runs never consult them.
  int max_comm_retries = 3;
  /// Stall window for the pipeline schedule: if no superstep closes
  /// within this many wall-clock seconds, the run stops with
  /// Status::kTimedOut — at the superstep close, or inside the
  /// handshake take a worker is blocked in — through the regular
  /// error stop, and the enactor stays reusable. Shares one stop
  /// deadline with EnactorBase::set_enact_deadline. Ignored under BSP;
  /// 0 (default) disarms it.
  double watchdog_deadline_s = 0;
  /// After a permanent device loss (Status::kUnavailable authored by
  /// the FaultInjector), re-enact on the surviving n-1 vGPUs instead
  /// of failing (primitives' run_* facades implement the re-run;
  /// counted in RunStats::degraded_reruns).
  bool degrade_on_device_loss = false;
};

class ProblemBase {
 public:
  virtual ~ProblemBase();

  ProblemBase() = default;
  ProblemBase(const ProblemBase&) = delete;
  ProblemBase& operator=(const ProblemBase&) = delete;

  /// Partition `g` and distribute it across the machine's first
  /// `config.num_gpus` devices. Must be called exactly once.
  void init(const graph::Graph& g, vgpu::Machine& machine,
            const Config& config);

  /// Distribute an already-partitioned graph (from partition(), or
  /// another Problem's partitioned_shared()): the per-graph half of
  /// the state split. Skips the partitioning pass entirely; the
  /// partition's part count and duplication must match `config`.
  /// Must be called exactly once.
  void init(std::shared_ptr<const part::PartitionedGraph> pg,
            vgpu::Machine& machine, const Config& config);

  /// Partition `g` per `config` without binding it to a Problem — the
  /// shareable read-only graph state many Problems can init() from.
  static std::shared_ptr<const part::PartitionedGraph> partition(
      const graph::Graph& g, const Config& config);

  const Config& config() const noexcept { return config_; }
  int num_gpus() const noexcept { return config_.num_gpus; }
  vgpu::Machine& machine() const { return *machine_; }
  const part::PartitionedGraph& partitioned() const { return *partitioned_; }
  /// The shared handle, for spinning up further Problems on this graph.
  std::shared_ptr<const part::PartitionedGraph> partitioned_shared() const {
    return partitioned_;
  }
  const part::SubGraph& sub(int gpu) const { return partitioned_->sub(gpu); }
  vgpu::Device& device(int gpu) const { return machine_->device(gpu); }

  /// Host GPU and host-local ID of a global vertex (used by Reset to
  /// place the source, as in the paper's BFSProblem::Reset).
  std::pair<int, VertexT> locate(VertexT global_v) const {
    return {partitioned_->owner_of(global_v),
            partitioned_->host_local_of(global_v)};
  }

 protected:
  /// Primitive hook: allocate the per-GPU DataSlice for `gpu`.
  virtual void init_data_slice(int gpu) = 0;

 private:
  Config config_;
  vgpu::Machine* machine_ = nullptr;
  /// Shared, immutable once built: the per-graph half of the state
  /// split. Concurrent Problems over one graph all point here.
  std::shared_ptr<const part::PartitionedGraph> partitioned_;
  /// Bytes charged to each device for its subgraph CSR (released in
  /// the destructor).
  std::vector<std::size_t> graph_charges_;
  bool initialized_ = false;
};

}  // namespace mgg::core
