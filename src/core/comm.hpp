// Inter-GPU communication layer (§III-B's "Package data" / "Push to
// remote GPUs" steps, and §III-C's communication strategies).
//
// A Message is one sender->receiver package for one iteration: the
// remote sub-frontier plus the primitive-specified associated data
// (vertex associates like predecessor IDs, value associates like
// distances or ranks). The payload is a flat structure-of-arrays: one
// contiguous `vertices` array plus one strided flat array per associate
// kind, slot-major (slot a of k associates occupies [a*n, (a+1)*n) for
// n vertices). Compared to the earlier vector-of-vectors layout this
// is the ButterFly-style transfer buffer: a fixed number of contiguous
// regions per message, reusable across iterations without per-vertex
// or per-slot heap traffic.
//
// Messages are pooled per CommBus: acquire() hands out a recycled
// message whose vectors keep their high-water capacity, push() moves
// it to the receiver, drain() surfaces it, and release_drained()
// returns it to the pool — so steady-state iterations move frontiers
// with zero message-related heap allocations.
//
// Pushes are issued on the *sender's* communication stream so they
// overlap the remainder of the sender's compute work; the modeled
// transfer cost (latency + bytes/bandwidth, from the Interconnect) is
// charged to the sender's iteration counters. The receiver drains its
// inbox after the BSP barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/pod_vector.hpp"
#include "util/thread_pool.hpp"
#include "vgpu/machine.hpp"

namespace mgg::core {

/// §III-C: how frontiers travel between GPUs.
enum class CommStrategy {
  kSelective,  ///< send each vertex only to its host GPU
  kBroadcast,  ///< send the whole generated frontier to every peer
};

std::string to_string(CommStrategy s);

/// §V-B: how supersteps synchronize. The schedule changes which
/// messages a GPU may start combining when, and how modeled time
/// composes — never what is computed or sent: W and H counters are
/// bit-identical across modes.
enum class SyncMode {
  /// Strict BSP: all compute, then all package+push, comm-stream
  /// sync, barrier A (messages visible), combine, barrier B
  /// (convergence). Modeled superstep time is the serial
  /// max(compute) + max(comm) + l(n).
  kBspBarrier,
  /// Event-driven pipeline: per-peer chunked package+push with a
  /// per-(sender, receiver) comm-stream Event handshake replacing
  /// barrier A; a receiver combines each sender's messages as soon as
  /// that sender's event fires (in sender order, preserving the
  /// deterministic (src_gpu, tag) combine order). Only the
  /// convergence barrier B remains; modeled superstep time is the
  /// critical path of the overlapped compute/comm stream timelines.
  kEventPipeline,
};

std::string to_string(SyncMode m);

/// Wire format of a message's vertex array (the ROADMAP's "compressed
/// communication" item; cf. the GPU-cluster BFS line of work,
/// arXiv:1803.03922, and ButterFly BFS, arXiv:2103.13577). H is the
/// paper's #1 scalability limiter, and raw 32-bit IDs are the
/// dominant share of most pushes; the compressed formats trade a
/// modeled encode/decode kernel (charged to W) for fewer bytes on the
/// wire.
///
/// Both compressed formats are **order-preserving lossless**: decode
/// reconstructs the exact vertex sequence the packager produced, so
/// results, frontiers, and all W/H *item* counts stay bit-identical to
/// kRawIds — only bytes-on-wire and the encode/decode kernel charges
/// differ. Associate payloads always travel raw (they are values, not
/// IDs).
enum class WireFormat : std::uint8_t {
  /// Raw receiver-local vertex IDs, 4 bytes each (the historical
  /// layout; the default — H bytes bit-identical to every prior run).
  kRawIds,
  /// Dense |universe|-bit bitmap. Selected only when the vertex
  /// sequence is already strictly ascending (a dense-frontier advance
  /// emits in ascending order, so dense supersteps qualify exactly
  /// when compression pays), because bitmap decode yields ascending
  /// order and the encoding must be order-lossless.
  kBitmap,
  /// Zigzag-encoded deltas between consecutive IDs, LEB128-varint
  /// packed. Handles arbitrary (non-monotone) emission order; the
  /// ascending runs produced by dense advances collapse to 1-byte
  /// deltas.
  kDeltaVarint,
  /// Config-only policy value: pick per message by the density
  /// heuristic (bucket size vs the receiver's hosted-vertex count).
  /// Messages on the wire never carry kAuto.
  kAuto,
};

std::string to_string(WireFormat f);
/// Parse "raw" / "bitmap" / "varint" (or "delta_varint") / "auto".
/// Throws Error(kInvalidArgument) on anything else.
WireFormat parse_wire_format(const std::string& text);

struct Message {
  int src_gpu = -1;
  /// Primitive-defined discriminator for primitives that exchange more
  /// than one kind of payload in a run (e.g. BC's sigma partials /
  /// finalized broadcasts / delta partials).
  int tag = 0;
  /// Number of per-vertex VertexT / ValueT associate slots carried in
  /// the flat arrays below.
  int vertex_slots = 0;
  int value_slots = 0;
  /// Frontier vertices, already converted to receiver-local IDs
  /// (selective) or global IDs (broadcast with duplicate-all, where
  /// local == global). PodVector: set_layout() exposes uninitialized
  /// elements, and the packaging pass must write every one of them.
  util::PodVector<VertexT> vertices;
  /// Flat slot-major VertexT associates (e.g. predecessors):
  /// `vertex_slots * vertices.size()` entries.
  util::PodVector<VertexT> vertex_assoc;
  /// Flat slot-major ValueT associates (e.g. distances, ranks):
  /// `value_slots * vertices.size()` entries.
  util::PodVector<ValueT> value_assoc;
  /// Wire format of the vertex array. kRawIds: `vertices` holds the
  /// payload and `wire` is empty. Compressed: `wire` holds the encoded
  /// bytes, `vertices` is empty (the pool carries encoded size, not
  /// raw), and `wire_items` remembers the vertex count for H-item
  /// accounting. Associates are indexed by decoded position either
  /// way.
  WireFormat encoding = WireFormat::kRawIds;
  util::PodVector<std::uint8_t> wire;
  std::size_t wire_items = 0;

  bool empty() const noexcept { return size() == 0; }
  /// Vertex count regardless of representation (H items).
  std::size_t size() const noexcept {
    return encoding == WireFormat::kRawIds ? vertices.size() : wire_items;
  }

  /// Size the message for `n` vertices with the given associate slot
  /// counts. Resizes within retained capacity on pooled messages, so
  /// warm steady-state calls never allocate. Newly exposed elements
  /// are uninitialized — the caller must fill the vertices array and
  /// every associate slot completely.
  void set_layout(int num_vertex_slots, int num_value_slots,
                  std::size_t n) {
    vertex_slots = num_vertex_slots;
    value_slots = num_value_slots;
    vertices.resize(n);
    vertex_assoc.resize(static_cast<std::size_t>(vertex_slots) * n);
    value_assoc.resize(static_cast<std::size_t>(value_slots) * n);
  }

  /// The contiguous region of vertex-associate slot `slot` (one entry
  /// per vertex, same order as `vertices`).
  std::span<VertexT> vertex_slot(int slot) {
    return {vertex_assoc.data() + static_cast<std::size_t>(slot) * size(),
            size()};
  }
  std::span<const VertexT> vertex_slot(int slot) const {
    return {vertex_assoc.data() + static_cast<std::size_t>(slot) * size(),
            size()};
  }
  std::span<ValueT> value_slot(int slot) {
    return {value_assoc.data() + static_cast<std::size_t>(slot) * size(),
            size()};
  }
  std::span<const ValueT> value_slot(int slot) const {
    return {value_assoc.data() + static_cast<std::size_t>(slot) * size(),
            size()};
  }

  /// Capacity-reusing deep copy (used by the broadcast path to stamp
  /// one packaged prototype out to every peer without reallocating).
  void assign_from(const Message& other) {
    src_gpu = other.src_gpu;
    tag = other.tag;
    vertex_slots = other.vertex_slots;
    value_slots = other.value_slots;
    vertices = other.vertices;
    vertex_assoc = other.vertex_assoc;
    value_assoc = other.value_assoc;
    encoding = other.encoding;
    wire = other.wire;
    wire_items = other.wire_items;
  }

  /// Empty the message but keep every buffer's capacity (pool reuse).
  void recycle() noexcept {
    src_gpu = -1;
    tag = 0;
    vertex_slots = 0;
    value_slots = 0;
    vertices.clear();
    vertex_assoc.clear();
    value_assoc.clear();
    encoding = WireFormat::kRawIds;
    wire.clear();
    wire_items = 0;
  }

  /// Bytes on the wire: the communication volume H in bytes. The
  /// vertex share is the *encoded* size when a compressed format is in
  /// effect — the modeled transfer, the Interconnect accounting, and
  /// the pooled buffers all carry the encoded bytes. Associates are
  /// always raw: exactly `slots * size()` entries of each kind.
  std::size_t payload_bytes() const noexcept {
    const std::size_t vertex_bytes = encoding == WireFormat::kRawIds
                                         ? vertices.size() * sizeof(VertexT)
                                         : wire.size();
    return vertex_bytes + vertex_assoc.size() * sizeof(VertexT) +
           value_assoc.size() * sizeof(ValueT);
  }
};

namespace wire {

/// A wire-format decision and the vertex-payload size it yields.
struct WirePlan {
  WireFormat format = WireFormat::kRawIds;  ///< never kAuto
  std::size_t bytes = 0;  ///< vertex bytes on the wire in `format`
};

/// Decide how `ids` travel under `requested`, writing nothing — the
/// one place the format is chosen. kAuto applies the density
/// heuristic: bitmap when the bucket holds at least
/// `density_threshold * universe` vertices *and* is strictly
/// ascending, delta-varint otherwise. `universe` is the receiver's
/// hosted-vertex count (the bitmap's ID space and the heuristic's
/// denominator). Falls back format by format — bitmap -> delta-varint
/// -> raw — whenever an encoding would be lossy (bitmap over a
/// non-ascending sequence) or would not *shrink* the payload, so a
/// compressed payload is always smaller than its raw form. Empty
/// buckets and kRawIds requests plan raw.
WirePlan plan(std::span<const VertexT> ids, WireFormat requested,
              double density_threshold, std::size_t universe);

/// Encode `msg.vertices` in place in the format plan() picks. Returns
/// that format; the caller charges the encode kernel when it is not
/// kRawIds. On kRawIds the message is untouched. Deterministic: a pure
/// function of the vertex sequence and the arguments — `pool` only
/// parallelizes the byte production (disjoint output ranges computed
/// up front), it never changes a single emitted byte or the format.
WireFormat encode(Message& msg, WireFormat requested,
                  double density_threshold, std::size_t universe,
                  util::ThreadPool* pool = nullptr);

/// Append `msg`'s vertex sequence to `out`: the decoded wire payload
/// (exact original order) for a compressed message, a copy of
/// `msg.vertices` for a raw one. `msg` is not modified. Throws
/// Error(kInternal) on a corrupt wire payload.
void decode_into(const Message& msg, util::PodVector<VertexT>& out);

/// Restore `msg.vertices` from `msg.wire` via decode_into and reset
/// the message to kRawIds. No-op on raw messages.
void decode(Message& msg);

}  // namespace wire

/// Cumulative wire-format accounting (monotone across runs; the
/// enactor snapshots around enact() to fill the per-run RunStats
/// fields).
struct WireStats {
  std::uint64_t bytes_raw = 0;     ///< payload bytes pushed as kRawIds
  std::uint64_t bytes_bitmap = 0;  ///< payload bytes pushed as kBitmap
  std::uint64_t bytes_delta = 0;   ///< payload bytes pushed as kDeltaVarint
  std::uint64_t encoded_vertices = 0;  ///< vertices through wire::encode
  std::uint64_t decoded_vertices = 0;  ///< vertices through wire::decode
};

/// Two-level combine policy for multi-node topologies
/// (docs/architecture.md §14). Installed per run by the enactor when
/// Config::two_level_combine is on and the machine has a node
/// hierarchy; a default-constructed policy (enabled == false) is the
/// flat path. The gateway always dedup-merges: duplicate vertex IDs
/// collapse to one entry whose associates the receiver's per-vertex
/// combine (first-writer / min / sum / OR — every in-tree
/// primitive's) would reduce to one winner anyway.
struct TwoLevelPolicy {
  bool enabled = false;
  /// Wire format the gateway's single inter-node push is priced in;
  /// usually Config::wire_format.
  WireFormat wire_format = WireFormat::kRawIds;
  /// kAuto density switch point for that pricing.
  double density_threshold = 1.0 / 16;
  /// Per destination *device*: the hosted-vertex universe of its whole
  /// node (sum of sub(q).num_total() over the node's devices) — the
  /// bitmap density denominator for the merged hop.
  std::vector<std::size_t> node_universe;
};

class CommBus {
 public:
  explicit CommBus(vgpu::Machine& machine);

  /// Take a message from the pool (or a fresh one if the pool is dry).
  /// It comes back empty but with its previous buffer capacities.
  Message acquire();

  /// Return a message's buffers to the pool. Safe from any thread.
  void release(Message&& message);

  /// Push a message from GPU `src` to GPU `dst`. Enqueued on src's
  /// comm stream; models the transfer cost, records H counters, and
  /// deposits into dst's inbox. Empty messages are recycled, not sent.
  /// The sender must synchronize its comm stream before the BSP
  /// barrier. The message is stamped with the bus's current epoch: if
  /// reset() retires the run before the push task executes, the
  /// payload is dropped into the pool instead of delivered.
  void push(int src, int dst, Message message);

  /// Take all messages addressed to `dst`. Call only after the barrier
  /// that follows all senders' comm-stream synchronization. Returns a
  /// reference to a per-receiver batch that stays valid until the next
  /// drain(dst) / release_drained(dst); the previous batch (if any) is
  /// recycled into the pool first — unless strict-drain mode is on, in
  /// which case an unreleased batch is a hard error.
  std::vector<Message>& drain(int dst);

  /// Pipeline-mode drain: take only the messages sender `src` has
  /// deposited for `dst` so far, sorted by tag. The caller must have
  /// waited on the (src -> dst) handshake event first, so "so far" is
  /// exactly this superstep's messages from that sender. Unlike
  /// drain(), the previous drained batch must already have been
  /// recycled via release_drained(dst): combining may still hold
  /// pointers into it, so silently clobbering it is a framework bug
  /// and raises kInternal instead.
  std::vector<Message>& drain_from(int dst, int src);

  /// Strict drain protocol (set by the enactor in pipeline mode):
  /// drain(dst) with an unreleased previous batch becomes a hard
  /// error instead of a silent recycle.
  void set_strict_drain(bool strict) { strict_drain_ = strict; }

  /// Recycle `dst`'s last drained batch into the pool. Call after
  /// combining so the buffers are available to the next iteration's
  /// senders.
  void release_drained(int dst);

  /// Retire the previous run: synchronize every sender's comm stream
  /// (an in-flight push task must not deliver a stale message into the
  /// next run's inbox), advance the epoch, and recycle all undelivered
  /// messages.
  void reset();

  /// Messages currently resting in the pool (observability / tests).
  std::size_t pool_size() const;

  /// Transient-transfer retry bound (consulted only when the machine
  /// has a FaultInjector; fault-free pushes never touch it). Each
  /// retry charges `50 us * 2^attempt` modeled seconds of backoff to
  /// the transfer; exhausting `max_retries` (or hitting a permanent
  /// transfer fault) raises kUnavailable at the sender's next
  /// comm-stream synchronize.
  void set_retry_policy(int max_retries) {
    max_retries_.store(max_retries, std::memory_order_relaxed);
  }

  /// Transfer retries performed so far (feeds RunStats::comm_retries).
  std::uint64_t comm_retries() const noexcept {
    return comm_retries_.load(std::memory_order_relaxed);
  }

  /// Cumulative per-format wire accounting (bytes split by the format
  /// each delivered payload traveled in; encoded/decoded vertex
  /// totals). Monotone, like comm_retries(): the enactor snapshots
  /// before/after enact() for the per-run RunStats fields. Invariant:
  /// bytes_raw + bytes_bitmap + bytes_delta == total payload bytes
  /// pushed (RunStats::total_comm_bytes for a single run's delta).
  WireStats wire_stats() const noexcept {
    WireStats w;
    w.bytes_raw = wire_bytes_raw_.load(std::memory_order_relaxed);
    w.bytes_bitmap = wire_bytes_bitmap_.load(std::memory_order_relaxed);
    w.bytes_delta = wire_bytes_delta_.load(std::memory_order_relaxed);
    w.encoded_vertices = wire_encoded_.load(std::memory_order_relaxed);
    w.decoded_vertices = wire_decoded_.load(std::memory_order_relaxed);
    return w;
  }

  /// Install (or clear) the two-level combine policy for the next run.
  /// Call only between runs — after reset(), before any push. With an
  /// enabled policy, a cross-node push is *staged*: the sender pays the
  /// fast intra-node hop to its node's gateway for the destination
  /// node (Interconnect::gateway) and its vertex IDs (decoded if the
  /// bucket was compressed) are appended to the gateway's relay
  /// ledger, which exists only to price the inter-node hop; the
  /// message itself is still delivered to the destination inbox
  /// unchanged, so combining, results, and every item-shaped counter
  /// are bit-identical to the flat path. The deferred inter-node cost
  /// is realized by flush_relays().
  void set_two_level(TwoLevelPolicy policy);
  bool two_level_enabled() const noexcept {
    return two_level_enabled_.load(std::memory_order_relaxed);
  }

  /// Gateway election with failover: Interconnect::gateway's
  /// deterministic relay for (src, dst), unless that device has been
  /// marked lost by the machine's fault injector — then the next live
  /// device of src's node (scanning upward from the base election,
  /// wrapping within the node) is elected instead, so a superstep's
  /// cross-node staging survives the loss instead of funneling traffic
  /// through a dead relay. Pure function of (src, dst, lost device):
  /// every sender in the node re-elects the same replacement. Falls
  /// back to the base election on a single-device node.
  int elect_gateway(int src, int dst) const;

  /// Realize the gateways' modeled work for the staged cross-node
  /// pushes of the closing superstep: per (gateway, destination, tag),
  /// sort-unique the staged IDs, charge the merge (and any decode of
  /// compressed staged payloads) as gateway kernels, size the merged
  /// payload with wire::plan against the destination node's universe
  /// (no bytes are written), and charge the single inter-node transfer
  /// (fault-injected and retried like any push, items = 0 — the items
  /// were counted once on the staged hop). Call exactly once per
  /// superstep, after every sender's comm stream has synchronized (the
  /// superstep-close barrier completion), from one thread. Throws like
  /// a push on a permanent gateway-link fault or retry exhaustion.
  void flush_relays();

  /// Link-class split of all payload bytes ever pushed (monotone, like
  /// wire_stats(); intra + inter == total pushed bytes).
  struct LinkBytes {
    std::uint64_t intra = 0;
    std::uint64_t inter = 0;
  };
  LinkBytes link_bytes() const noexcept {
    LinkBytes b;
    b.intra = intra_bytes_.load(std::memory_order_relaxed);
    b.inter = inter_bytes_.load(std::memory_order_relaxed);
    return b;
  }

  /// Two-level combine accounting (monotone): gateway merge flushes
  /// performed, and vertex entries the merge-dedup removed before the
  /// inter-node hop.
  std::uint64_t gateway_merges() const noexcept {
    return gateway_merges_.load(std::memory_order_relaxed);
  }
  std::uint64_t gateway_dedup_items() const noexcept {
    return gateway_dedup_items_.load(std::memory_order_relaxed);
  }

  /// Host worker pool used to parallelize wire decode across the
  /// messages of a drained batch (each message decodes independently;
  /// the modeled decode charges are still issued sequentially in batch
  /// order, so accounting is bit-identical to the sequential path).
  /// Null (the default) keeps every path sequential. Set by the
  /// enactor alongside the per-slice OpContext pools.
  void set_host_pool(util::ThreadPool* pool) noexcept { host_pool_ = pool; }

 private:
  /// Decode every compressed message in a drained batch back to raw
  /// IDs (transparently to the combine path), charging the modeled
  /// decode kernel to the *receiver* — the W-vs-H tradeoff lands where
  /// the work runs. Called under no lock: the batch is thread-local to
  /// the receiver after drain()/drain_from().
  void decode_batch(int dst, std::vector<Message>& batch);

  /// One sender's staged cross-node bucket awaiting its gateway's
  /// flush: where its decoded IDs sit in the gateway's ID buffer, plus
  /// the layout needed to price the merged payload's associates.
  struct RelayRecord {
    int src = -1;
    int dst = -1;
    int tag = 0;
    int vertex_slots = 0;
    int value_slots = 0;
    std::size_t offset = 0;  ///< first ID in RelayLedger::ids
    std::size_t items = 0;
    bool encoded = false;  ///< staged compressed: flush charges gateway_decode
  };
  /// A gateway's staged buckets for the current superstep.
  struct RelayLedger {
    std::vector<RelayRecord> records;
    util::PodVector<VertexT> ids;
  };

  /// Fault consultation + bounded retry for one modeled transfer on
  /// link src->dst (no-op returning slowdown 1 without an injector).
  /// Accumulates modeled backoff into `backoff_s`; throws
  /// Error(kUnavailable) on a permanent fault or retry exhaustion.
  double consult_transfer_faults(int src, int dst, double& backoff_s);

  /// Record one staged cross-node push in the gateway's ledger.
  void stage_relay(int src, int dst, int gateway, const Message& msg);

  /// Add `bytes` to the wire-stats counter of `format`.
  void count_wire_bytes(WireFormat format, std::size_t bytes);

  vgpu::Machine* machine_;
  /// Run stamp; pushes submitted under an older epoch are dropped at
  /// delivery time (second line of defense behind reset()'s stream
  /// synchronization).
  std::atomic<std::uint64_t> epoch_{0};
  std::vector<std::mutex> locks_;               // per receiver
  std::vector<std::vector<Message>> inboxes_;   // per receiver
  std::vector<std::vector<Message>> drained_;   // per receiver scratch
  mutable std::mutex pool_mutex_;
  std::vector<Message> pool_;
  bool strict_drain_ = false;
  std::atomic<int> max_retries_{3};
  std::atomic<std::uint64_t> comm_retries_{0};
  std::atomic<std::uint64_t> wire_bytes_raw_{0};
  std::atomic<std::uint64_t> wire_bytes_bitmap_{0};
  std::atomic<std::uint64_t> wire_bytes_delta_{0};
  std::atomic<std::uint64_t> wire_encoded_{0};
  std::atomic<std::uint64_t> wire_decoded_{0};
  std::atomic<std::uint64_t> intra_bytes_{0};
  std::atomic<std::uint64_t> inter_bytes_{0};
  std::atomic<std::uint64_t> gateway_merges_{0};
  std::atomic<std::uint64_t> gateway_dedup_items_{0};
  /// Cheap hot-path flag mirroring two_level_.enabled; the full policy
  /// is only read when it is set, and only set between runs.
  std::atomic<bool> two_level_enabled_{false};
  TwoLevelPolicy two_level_;
  /// Per-gateway ledgers for the current superstep; they keep their
  /// capacity across supersteps. Guarded by relay_mutex_ (staging runs
  /// on the senders' comm streams).
  std::mutex relay_mutex_;
  std::vector<RelayLedger> relay_;
  /// Flush-only merge workspace (flush runs single-threaded in the
  /// superstep-close barrier).
  util::PodVector<VertexT> merge_scratch_;
  util::ThreadPool* host_pool_ = nullptr;
};

}  // namespace mgg::core
