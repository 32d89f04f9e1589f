// BSP cost accounting (§V: total cost = W + Hg + Sl).
//
// Correctness in this reproduction is real — primitives execute and
// their outputs are validated — while *performance* is modeled: every
// kernel reports the work it did (edges, vertices, launches) and every
// transfer reports its bytes, and this module turns those counters into
// modeled time using the calibrated GpuModel / Interconnect constants.
// At the end of each superstep the enactor closes the iteration with
// the BSP rule: iteration time = max over GPUs of (compute + comm)
// plus the per-iteration synchronization overhead l(n).
#pragma once

#include <cstdint>
#include <vector>

#include "vgpu/gpu_model.hpp"

namespace mgg::vgpu {

/// Work accumulated by one device within the current iteration.
struct IterationCounters {
  double compute_s = 0;     ///< modeled kernel time
  double comm_s = 0;        ///< modeled transfer time charged to this GPU
  /// Finish time of the comm-stream timeline within this iteration:
  /// each transfer starts at max(previous transfer's end, the compute
  /// timeline position when it was submitted — its data dependency).
  /// Always >= comm_s for a busy stream; the gap is time the comm
  /// stream spent waiting on compute. Only the event-pipeline schedule
  /// reads it (the BSP model charges the serial sum).
  double comm_tail_s = 0;
  std::uint64_t edges = 0;  ///< advance work items (contributes to W)
  std::uint64_t vertices = 0;   ///< filter/combine items (W and C)
  std::uint64_t launches = 0;   ///< kernel launches this iteration
  std::uint64_t bytes_out = 0;  ///< communication bytes pushed (H·sizeof)
  std::uint64_t items_out = 0;  ///< communication items pushed (H)

  void clear() { *this = IterationCounters{}; }
};

/// Whole-run totals, the quantities reported by the bench harness.
struct RunStats {
  std::uint64_t iterations = 0;              ///< S
  std::uint64_t total_edges = 0;             ///< Σ W (edge work items)
  std::uint64_t total_vertices = 0;          ///< Σ vertex work items (C)
  std::uint64_t total_comm_items = 0;        ///< Σ H (items)
  std::uint64_t total_combine_items = 0;     ///< Σ received items (C)
  std::uint64_t total_comm_bytes = 0;        ///< Σ H (bytes)
  std::uint64_t total_launches = 0;
  /// Sparse↔dense frontier representation flips across all GPUs (0
  /// unless Config::dense_threshold enabled dense mode).
  std::uint64_t dense_switches = 0;
  double modeled_compute_s = 0;  ///< Σ max-GPU compute per iteration
  double modeled_comm_s = 0;     ///< Σ max-GPU comm per iteration
  double modeled_overhead_s = 0; ///< Σ l(n)
  /// Σ communication time hidden under compute by the event-driven
  /// pipeline schedule (SyncMode::kEventPipeline): per superstep, the
  /// serial charge max(compute)+max(comm) minus the critical path of
  /// the two overlapped stream timelines. Always 0 under the BSP
  /// barrier schedule, so modeled_total_s() is unchanged there.
  double modeled_overlap_hidden_s = 0;
  double wall_s = 0;             ///< real host time (diagnostic only)
  /// Fault-injection / recovery observability (all 0 on a fault-free
  /// run with default Config): supersteps replayed after a grow-and-
  /// retry OOM recovery, transfer retries charged with modeled
  /// backoff, total events the FaultInjector fired, and degraded
  /// re-enacts after a permanent device loss.
  std::uint64_t oom_regrows = 0;
  std::uint64_t comm_retries = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t degraded_reruns = 0;
  /// Stall window (Config::watchdog_deadline_s) this run was armed
  /// with (0 = off).
  double watchdog_deadline_s = 0;
  /// Per-run enactment budget this run was armed with via
  /// EnactorBase::set_enact_deadline (0 = off). The serve layer arms
  /// it per batch from the member queries' remaining deadlines.
  double enact_deadline_s = 0;
  /// Wire-format accounting (core/comm.hpp WireFormat): payload bytes
  /// split by the format each delivered message traveled in — the
  /// three sum to total_comm_bytes — plus the vertices that passed
  /// through the modeled encode/decode kernels. All raw under the
  /// default Config (wire_format = kRawIds): bytes land in
  /// wire_bytes_raw and the encode/decode counts stay 0.
  std::uint64_t wire_bytes_raw = 0;
  std::uint64_t wire_bytes_bitmap = 0;
  std::uint64_t wire_bytes_delta = 0;
  std::uint64_t wire_encode_vertices = 0;
  std::uint64_t wire_decode_vertices = 0;
  /// Link-class split of total_comm_bytes (docs/architecture.md §14):
  /// bytes that traveled intra-node (peer or host-routed PCIe) vs
  /// across the inter-node link. The two always sum to
  /// total_comm_bytes; on a single-node machine everything is intra.
  std::uint64_t intra_node_bytes = 0;
  std::uint64_t inter_node_bytes = 0;
  /// Two-level combine accounting: gateway merge flushes performed,
  /// and the vertex entries the merge-dedup removed before the
  /// inter-node hop (staged items minus merged unique items). Both 0
  /// unless Config::two_level_combine engaged on a multi-node machine.
  std::uint64_t gateway_merges = 0;
  std::uint64_t gateway_dedup_items = 0;

  double modeled_total_s() const {
    return modeled_compute_s + modeled_comm_s + modeled_overhead_s -
           modeled_overlap_hidden_s;
  }

  /// Traversed-edges-per-second against an externally supplied edge
  /// count (the paper computes GTEPS against the full |E|, not against
  /// edges actually touched — this is what makes DOBFS exceed the
  /// hardware's raw edge rate).
  double gteps(double graph_edges) const {
    const double t = modeled_total_s();
    return t > 0 ? graph_edges / t / 1e9 : 0.0;
  }
};

/// One closed BSP superstep, for post-run analysis (frontier-size
/// evolution, per-phase time breakdown — the kind of per-iteration
/// reasoning §V and §VI-A rest on).
struct IterationRecord {
  std::uint64_t iteration = 0;
  std::uint64_t frontier_total = 0;  ///< Σ input sizes after combine
  std::uint64_t edges = 0;           ///< Σ edge work this superstep
  std::uint64_t comm_items = 0;      ///< Σ items pushed this superstep
  /// GPUs whose advance ran off the dense bitmap this superstep.
  std::uint64_t dense_gpus = 0;
  double compute_s = 0;              ///< max-GPU compute
  double comm_s = 0;                 ///< max-GPU communication
  double overhead_s = 0;             ///< l(n)
  /// Comm seconds hidden under compute this superstep (0 under BSP;
  /// compute_s + comm_s + overhead_s - comm_hidden_s is the modeled
  /// superstep time in either schedule).
  double comm_hidden_s = 0;
  /// comm_hidden_s / comm_s in [0, 1]; how much of the superstep's
  /// communication the pipeline schedule overlapped away.
  double comm_hidden_frac = 0;
  /// max / mean per-GPU compute this superstep (1.0 = perfectly
  /// balanced): the §V-B "load imbalance between GPUs" component of l.
  double gpu_imbalance = 1.0;
};

/// Per-iteration synchronization overhead l(n) (§V-B).
///
/// The paper measures total per-iteration overhead (kernel launches +
/// sync) of {66.8, 124, 142, 188} µs on 1-4 K40s with a minimal
/// 1-vertex-1-edge workload. Kernel launches are counted separately by
/// the operators, so this function models only the residual barrier
/// cost: a base CPU-side loop cost, a jump when inter-GPU
/// synchronization first appears (n >= 2), and a per-extra-GPU term.
/// This single-argument form models the default two-barrier BSP
/// schedule (barrier A after pushes, barrier B after combines).
double sync_overhead_seconds(int active_gpus);

/// Schedule-aware variant: the base CPU-side loop cost plus the
/// inter-GPU rendezvous cost charged once per host-side barrier.
/// `barriers == 2` reproduces the single-argument calibration exactly;
/// the event pipeline keeps only the convergence barrier (B), so it
/// charges `barriers == 1` — per-peer event waits ride on the streams
/// and are hidden, not host-side rendezvous.
double sync_overhead_seconds(int active_gpus, int barriers);

/// Scales compute/communication for vertex- and edge-ID width
/// (Table V: 64-bit IDs double bandwidth demand and halve throughput).
struct IdWidthConfig {
  int vertex_id_bytes = 4;
  int edge_id_bytes = 4;

  /// Multiplier >= 1 applied to modeled compute and comm time.
  double traffic_scale() const {
    return (static_cast<double>(vertex_id_bytes) / 4.0 +
            static_cast<double>(edge_id_bytes) / 4.0) /
           2.0;
  }
};

}  // namespace mgg::vgpu
