// EnactorBase: the multi-GPU iteration driver (§III-B, Fig. 1).
//
// The core of an mGPU primitive is an *unmodified* single-GPU
// iteration body; this class supplies everything around it:
//
//   - one dedicated CPU control thread per GPU ("Manage GPUs"), with
//     the paper's Idle/Wait/Running/ToKill status protocol (Appendix A)
//     implemented with condition variables instead of sleep(0) spins;
//   - the per-iteration superstep loop, in one of two schedules
//     (Config::sync_mode): classic BSP — core -> split -> package ->
//     push -> barrier -> combine -> barrier -> convergence check — or
//     the event-driven pipeline, where each peer's message is pushed
//     as soon as its bucket is packaged, barrier A is replaced by
//     per-(sender, receiver) comm-stream events (docs/architecture.md
//     §8), and only the convergence barrier remains;
//   - the framework-owned communication steps: splitting the output
//     frontier into local and remote sub-frontiers, packaging the
//     primitive's associated data, pushing on the communication
//     stream, and merging received sub-frontiers with the
//     primitive-supplied combine operation (ExpandIncoming);
//   - convergence detection (all frontiers empty on every GPU, plus an
//     optional primitive-specific stop condition);
//   - BSP cost accounting: per iteration, modeled time advances by
//     max over GPUs of (compute + communication) plus l(n).
//
// A primitive extends this class and implements iteration_core() and
// expand_incoming(); optionally the batched associate-packaging hooks
// fill_vertex_associates() / fill_value_associates() (what to send),
// communicate() (for non-frontier-shaped communication like PR's rank
// pushes), begin_iteration() (e.g. DOBFS's global direction decision),
// and extra_stop().
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/frontier.hpp"
#include "core/handshake.hpp"
#include "core/operators.hpp"
#include "core/problem.hpp"
#include "vgpu/cost.hpp"

namespace mgg::core {

class EnactorBase {
 public:
  /// Per-GPU runtime state handed to the primitive hooks.
  struct Slice {
    int gpu = 0;
    vgpu::Device* device = nullptr;
    const part::SubGraph* sub = nullptr;
    Frontier frontier;
    util::Array1D<VertexT> advance_temp{"advance_temp"};
    util::Array1D<SizeT> advance_temp_edges{"advance_temp_edges"};
    util::AtomicBitset dedup;
    OpContext ctx;
    std::uint64_t combine_items = 0;  ///< C: received items processed
    /// Comm-packaging scratch, reused across iterations so steady-state
    /// packaging allocates nothing. The route pass writes a flat CSR-
    /// style bucket layout (counting pass + scatter, mirroring the comm
    /// layer's flat messages): peer p's sender-local source IDs live in
    /// route_sources[route_offsets[p] .. route_offsets[p+1]).
    util::PodVector<SizeT> route_offsets;  ///< n_+1 bucket boundaries
    util::PodVector<SizeT> route_cursor;   ///< scatter cursors (n_)
    util::PodVector<VertexT> route_sources;
    /// Parallel route-pass staging: each chunk of the output frontier
    /// collects its kept and routed vertices (in scan order) plus
    /// per-peer counts into its own cache-line-aligned slot, then the
    /// slots are scattered to their exact final positions — the same
    /// stable layout as the sequential pass. Grow-only, reused across
    /// iterations.
    struct alignas(64) RouteChunk {
      util::PodVector<VertexT> kept;
      util::PodVector<VertexT> routed;
      util::PodVector<SizeT> peer_count;  ///< n_ per-peer routed counts
    };
    std::vector<RouteChunk> route_chunks;
    Message broadcast_proto;
    /// Pipeline mode: this worker's superstep counter (advances in
    /// lockstep across workers through the convergence barrier) and
    /// which peers already had their handshake event recorded this
    /// superstep (via mark_peer_pushed).
    std::uint64_t superstep = 0;
    util::PodVector<std::uint8_t> peer_signaled;
  };

  explicit EnactorBase(ProblemBase& problem);
  virtual ~EnactorBase();

  EnactorBase(const EnactorBase&) = delete;
  EnactorBase& operator=(const EnactorBase&) = delete;

  /// Run the primitive to convergence. The problem must have been
  /// reset (initial frontier seeded) beforehand. Returns modeled run
  /// statistics; also retrievable via stats().
  vgpu::RunStats enact();

  const vgpu::RunStats& stats() const noexcept { return run_stats_; }

  /// Per-superstep records of the last enact() (frontier evolution,
  /// time breakdown). Cleared at the start of every run.
  const std::vector<vgpu::IterationRecord>& iteration_records() const {
    return iteration_records_;
  }

  /// Total received items combined across GPUs (Table I's C measure).
  std::uint64_t total_combine_items() const;

  Slice& slice(int gpu) { return *slices_[gpu]; }
  int num_gpus() const noexcept { return n_; }

  /// Arm a wall-clock budget for enact(): once `seconds` of run wall
  /// time have passed, the run stops with Status::kTimedOut at the
  /// next superstep close or inside a blocked pipeline handshake,
  /// whichever comes first, through the regular error-stop protocol —
  /// the enactor stays reusable. It shares one StopDeadline with the
  /// stall window (Config::watchdog_deadline_s). Sticky across runs
  /// until changed; 0 (the default) disarms it. No modeled cost either
  /// way. The serve layer arms this per batch with the member queries'
  /// remaining deadline budget.
  void set_enact_deadline(double seconds) { enact_deadline_s_ = seconds; }

  /// Empty every GPU's frontier (start of a new run).
  void reset_frontiers();

  /// Seed GPU `gpu`'s input frontier with local vertex IDs (how
  /// Problem::Reset places the source vertex, Appendix A).
  void seed_frontier(int gpu, std::span<const VertexT> local_vertices);

 protected:
  // ------------------------------------------------------------------
  // Primitive hooks (the programmer-specified pieces of §III-B).
  // ------------------------------------------------------------------

  /// FullQueue_Core: one iteration of the unmodified single-GPU
  /// primitive. Reads slice.frontier.input(), commits output.
  virtual void iteration_core(Slice& s) = 0;

  /// How many VertexT / ValueT associates accompany each sent vertex.
  virtual int num_vertex_associates() const { return 0; }
  virtual int num_value_associates() const { return 0; }

  /// Batched associate packaging: write the slot-`slot` VertexT
  /// associate of sender-local vertex `sources[i]` to `out[i]`. Called
  /// once per (message, slot) — a virtual-kernel-shaped gather pass —
  /// instead of once per remote frontier vertex. Only invoked for
  /// slots < num_vertex_associates().
  ///
  /// Host-parallelism contract: the framework may invoke a fill hook
  /// concurrently on disjoint subranges of one message's sources (out
  /// is offset accordingly), so implementations must be pure gathers —
  /// read per-vertex state, write only out[i]. Every in-tree primitive
  /// already satisfies this.
  virtual void fill_vertex_associates(Slice& s, int slot,
                                      std::span<const VertexT> sources,
                                      VertexT* out);
  /// Same for ValueT associates (slots < num_value_associates()).
  virtual void fill_value_associates(Slice& s, int slot,
                                     std::span<const VertexT> sources,
                                     ValueT* out);

  /// Expand_Incoming: merge one received message into local data,
  /// appending vertices that join the next input frontier via
  /// s.frontier.append_input().
  virtual void expand_incoming(Slice& s, const Message& msg) = 0;

  /// The framework communication step. The default splits the output
  /// frontier per the configured strategy (§III-C), packages
  /// associates, pushes to peers, and swaps the frontier so the local
  /// sub-frontier becomes the next input. Primitives with
  /// non-frontier-shaped communication (PR, CC) override this.
  virtual void communicate(Slice& s);

  /// Called single-threaded before iteration `iteration` begins
  /// (iteration 0 included). DOBFS decides its direction here.
  virtual void begin_iteration(std::uint64_t iteration);

  /// Stop condition, evaluated single-threaded at the end of each
  /// iteration. The default is the paper's: stop when every GPU's
  /// frontier is empty. Multi-phase primitives (BC's forward+backward
  /// passes) override this to switch phases instead of stopping.
  virtual bool converged(bool all_frontiers_empty, std::uint64_t iteration);

  /// Whether this primitive's operators tolerate dense (bitmap) input
  /// frontiers. Opt-in: Config::dense_threshold is only propagated to
  /// the operator contexts when this returns true, so primitives whose
  /// iteration bodies require queue semantics (e.g. BC's dependency
  /// accumulation) are never handed a bitmap.
  virtual bool dense_frontier_capable() const { return false; }

  /// Whether iteration_core() may be re-run from the top after a
  /// mid-core kOutOfMemory without changing the result. The operators
  /// allocate before running side-effecting edge functors, so at any
  /// throw point the current operator has no side effects yet — but a
  /// multi-operator core replays *completed* operators too, so this
  /// may only return true when every per-vertex update in the core is
  /// idempotent or monotone (BFS label stamps, SSSP distance
  /// relaxations). Opt-in: grow-and-retry recovery
  /// (Config::max_oom_regrows) only replays when this returns true;
  /// otherwise a mid-core OOM propagates as a clean typed Error.
  virtual bool core_replayable() const { return false; }

  // ------------------------------------------------------------------
  // Services available to primitives.
  // ------------------------------------------------------------------
  ProblemBase& problem() noexcept { return problem_; }
  CommBus& bus() noexcept { return *bus_; }
  std::uint64_t iteration() const noexcept { return iteration_; }

  /// Framework split+package+push for a frontier of local vertex IDs;
  /// reusable by primitives that override communicate() but still move
  /// frontier-shaped data.
  void split_frontier_and_push(Slice& s);

  /// Selective route pass over the output frontier: compacts the local
  /// sub-frontier in place and scatters each remote vertex's
  /// sender-local ID into the slice's flat per-peer buckets (counting
  /// pass + scatter — no per-peer vectors, no steady-state heap
  /// traffic). Returns the local (kept) count; buckets are then read
  /// via peer_bucket().
  SizeT route_output_frontier(Slice& s);

  /// Route an arbitrary item list into the slice's flat buckets by
  /// owner, keeping only items for which `send(v)` is true. Same
  /// counting-pass + scatter shape as route_output_frontier, for
  /// primitives whose communication is not frontier-shaped (PR's and
  /// BC-backward's border pushes).
  template <typename SendPred>
  void route_items(Slice& s, std::span<const VertexT> items,
                   SendPred&& send) {
    const part::SubGraph& sub = *s.sub;
    s.route_offsets.assign(static_cast<std::size_t>(n_) + 1, 0);
    for (const VertexT v : items) {
      if (send(v)) ++s.route_offsets[sub.owner[v] + 1];
    }
    for (int p = 0; p < n_; ++p) {
      s.route_offsets[p + 1] += s.route_offsets[p];
    }
    s.route_cursor.assign(s.route_offsets.begin(),
                          s.route_offsets.begin() + n_);
    s.route_sources.resize(s.route_offsets[n_]);
    for (const VertexT v : items) {
      if (send(v)) s.route_sources[s.route_cursor[sub.owner[v]]++] = v;
    }
  }

  /// Peer `peer`'s bucket of sender-local IDs from the last route pass.
  std::span<const VertexT> peer_bucket(const Slice& s, int peer) const {
    return {s.route_sources.data() + s.route_offsets[peer],
            static_cast<std::size_t>(s.route_offsets[peer + 1] -
                                     s.route_offsets[peer])};
  }

  /// Pipeline mode: declare that this slice will push nothing more to
  /// `peer` this superstep, and record the (gpu -> peer) handshake
  /// event on the comm stream right now — so the receiver can start
  /// combining this sender's messages while the remaining peers are
  /// still being packaged. No-op under the barrier schedule. Calling
  /// this and then pushing to the same peer again in the same
  /// superstep is a protocol violation (the receiver may drain before
  /// the late message lands). Peers not marked by the end of
  /// communicate() are signaled automatically afterwards, so
  /// primitives that push several tagged messages per peer (BC) can
  /// simply never call this.
  void mark_peer_pushed(Slice& s, int peer);

  /// Pipeline mode: declare that this slice sends nothing at all to
  /// `peer` this superstep. Publishes a pre-fired event, so the
  /// receiver proceeds immediately instead of waiting behind this
  /// sender's pushes to *other* peers on the in-order comm stream.
  /// Same single-signal-per-peer-per-superstep contract as
  /// mark_peer_pushed. No-op under the barrier schedule.
  void mark_peer_idle(Slice& s, int peer);

  /// Whether this enactor runs the event-driven pipeline schedule.
  bool pipeline_mode() const noexcept { return pipeline_; }

  /// Compress a packaged message's vertex array per
  /// Config::wire_format before bus().push (no-op under kRawIds, the
  /// default). `universe` is the receiver's ID space for the bitmap
  /// format and the density heuristic — the receiver's hosted-vertex
  /// count (selective) or the global vertex count (broadcast). Charges
  /// the modeled encode kernel to the *sender's* compute timeline when
  /// a compressed format is applied. Primitives that override
  /// communicate() call this on each message they build.
  void encode_for_wire(Slice& s, Message& msg, std::size_t universe);

  /// The shared host worker pool, or null when Config::host_threads
  /// resolves to one worker. Primitives that override communicate()
  /// may use it (via util::parallel_for) for their own packaging
  /// gathers; it never changes results, W, H, or modeled times.
  util::ThreadPool* host_pool() const noexcept { return host_pool_; }

  /// Run the associate fill hooks for one packaged message,
  /// parallelized over disjoint source subranges when the pool is
  /// installed (see the fill hook contract above). Output bytes are
  /// position-exact, so the message is identical at every width.
  void fill_associates(Slice& s, std::span<const VertexT> sources,
                       Message& msg, int nva, int nvv);

 private:
  enum class ThreadStatus { kWait, kRunning, kIdle, kToKill };

  void worker(int gpu);
  void run_loop(int gpu);
  void run_loop_pipeline(int gpu);
  /// iteration_core with §IV-C grow-and-retry: a transient mid-core
  /// kOutOfMemory (just-enough overflow or injected fault) on a
  /// replayable primitive frees + regrows the output queue and
  /// deterministically replays the superstep, up to
  /// Config::max_oom_regrows times (W/H naturally recharged by the
  /// replay; counted in RunStats::oom_regrows).
  void run_core_with_recovery(Slice& s);
  /// Combine step: merge every drained message into the slice's local
  /// data in order, charging the combine kernel per message. Shared by
  /// both schedules. Skipped once the run has an error.
  void combine_messages(Slice& s, const std::vector<Message>& messages);
  /// Recompute stop_: the earlier of run start + enact_deadline_s_ and
  /// `last_close` + Config::watchdog_deadline_s (pipeline schedule
  /// only).
  void arm_stop(StopDeadline::Clock::time_point last_close);
  /// Record + publish handshake events for every peer not already
  /// signaled via mark_peer_pushed, then clear the marks. Runs even on
  /// the error path: receivers block on these events, not on a
  /// barrier.
  void publish_handshakes(Slice& s);
  void close_iteration();       // barrier completion, runs exclusively
  void close_iteration_body();  // the fallible part of the above
  /// Record the current exception against `slot` (a GPU index, or n_
  /// for errors raised by the exclusive close_iteration step) and
  /// raise the shared error flag so every surviving participant skips
  /// its hooks, reaches both barriers, and drains out of the loop.
  void record_error(int slot);
  bool has_error() const {
    return error_flag_.load(std::memory_order_acquire);
  }

  ProblemBase& problem_;
  int n_ = 0;
  /// Event-pipeline schedule selected (Config::sync_mode)?
  bool pipeline_ = false;
  /// Two-level combine engaged this run (Config::two_level_combine on
  /// a machine with a node hierarchy)? Set per enact(); drives the
  /// gateway flush in close_iteration_body and the extra rendezvous
  /// barrier in the overhead charge.
  bool two_level_active_ = false;
  /// l(n) multiplier: the *max* sync_scale across participating
  /// devices — a barrier completes when its slowest participant
  /// arrives, so heterogeneous vGPU models must not be averaged away
  /// by reading device 0 only.
  double sync_scale_ = 1.0;
  std::vector<std::unique_ptr<Slice>> slices_;
  std::unique_ptr<CommBus> bus_;
  std::unique_ptr<HandshakeTable> handshakes_;
  /// Shared host worker pool (util::ThreadPool::shared()), installed
  /// per enact() from Config::host_threads; null when width == 1.
  util::ThreadPool* host_pool_ = nullptr;

  // Thread management (paper's ThreadSlice protocol).
  std::vector<std::thread> threads_;
  std::mutex status_mutex_;
  std::condition_variable status_cv_;
  std::vector<ThreadStatus> status_;

  // BSP machinery.
  std::unique_ptr<std::barrier<std::function<void()>>> barrier_;
  int barrier_phase_ = 0;  // 0: after push, 1: after combine
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> error_flag_{false};
  std::mutex error_mutex_;
  /// One slot per GPU plus one for close_iteration, so enact() can
  /// rethrow deterministically (lowest GPU first, then the framework
  /// slot) no matter which thread lost the race to record first.
  std::vector<std::exception_ptr> errors_;

  std::uint64_t iteration_ = 0;
  /// Per-run wall budget (set_enact_deadline).
  double enact_deadline_s_ = 0;
  StopDeadline::Clock::time_point run_start_;
  /// The run's one stop deadline (arm_stop). Written only before the
  /// workers start and in the exclusive close_iteration_body; read by
  /// close_iteration_body and by workers blocked in a handshake take.
  /// The barrier orders every write before the next superstep's reads.
  StopDeadline stop_;
  /// Superstep replays performed by run_core_with_recovery this run.
  std::atomic<std::uint64_t> oom_regrows_{0};
  vgpu::RunStats run_stats_;
  std::vector<vgpu::IterationRecord> iteration_records_;
  /// Machine's tracer, fetched once per enact() (null = disabled).
  vgpu::Tracer* tracer_ = nullptr;
  /// close_iteration scratch: the superstep's per-GPU harvested
  /// counters, kept so the tracer sees the per-GPU breakdown.
  std::vector<vgpu::IterationCounters> harvest_;
};

}  // namespace mgg::core
