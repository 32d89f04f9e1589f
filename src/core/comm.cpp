#include "core/comm.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "vgpu/fault.hpp"

namespace mgg::core {

std::string to_string(CommStrategy s) {
  switch (s) {
    case CommStrategy::kSelective: return "selective";
    case CommStrategy::kBroadcast: return "broadcast";
  }
  return "unknown";
}

std::string to_string(SyncMode m) {
  switch (m) {
    case SyncMode::kBspBarrier: return "bsp_barrier";
    case SyncMode::kEventPipeline: return "event_pipeline";
  }
  return "unknown";
}

std::string to_string(WireFormat f) {
  switch (f) {
    case WireFormat::kRawIds: return "raw";
    case WireFormat::kBitmap: return "bitmap";
    case WireFormat::kDeltaVarint: return "varint";
    case WireFormat::kAuto: return "auto";
  }
  return "unknown";
}

WireFormat parse_wire_format(const std::string& text) {
  if (text == "raw" || text == "raw_ids") return WireFormat::kRawIds;
  if (text == "bitmap") return WireFormat::kBitmap;
  if (text == "varint" || text == "delta_varint") {
    return WireFormat::kDeltaVarint;
  }
  if (text == "auto") return WireFormat::kAuto;
  throw Error(Status::kInvalidArgument,
              "unknown wire format '" + text +
                  "' (expected raw | bitmap | varint | auto)");
}

namespace wire {
namespace {

/// Zigzag map: signed delta -> unsigned varint payload, small
/// magnitudes (either sign) to small codes.
inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

inline void put_varint(util::PodVector<std::uint8_t>& out,
                       std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Encoded length of put_varint(v) without emitting it (the sizing
/// pass of the two-pass parallel varint encoder).
inline std::size_t varint_len(std::uint64_t v) noexcept {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// put_varint into a raw buffer at `p`; returns bytes written. Emits
/// exactly the bytes put_varint would push_back.
inline std::size_t put_varint_at(std::uint8_t* p, std::uint64_t v) noexcept {
  std::size_t i = 0;
  while (v >= 0x80) {
    p[i++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  p[i++] = static_cast<std::uint8_t>(v);
  return i;
}

/// LEB128 read with bounds checking; throws kInternal on truncation or
/// a >10-byte (i.e. corrupt) code.
inline std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    MGG_CHECK(pos < size, Status::kInternal,
              "wire: truncated varint payload");
    MGG_CHECK(shift < 64, Status::kInternal, "wire: varint overflows u64");
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

inline void put_u32(util::PodVector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline std::uint32_t get_u32(const std::uint8_t* data, std::size_t size,
                             std::size_t& pos) {
  MGG_CHECK(pos + 4 <= size, Status::kInternal,
            "wire: truncated bitmap header");
  const std::uint32_t v = static_cast<std::uint32_t>(data[pos]) |
                          static_cast<std::uint32_t>(data[pos + 1]) << 8 |
                          static_cast<std::uint32_t>(data[pos + 2]) << 16 |
                          static_cast<std::uint32_t>(data[pos + 3]) << 24;
  pos += 4;
  return v;
}

bool strictly_ascending(const util::PodVector<VertexT>& v) noexcept {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

/// Bitmap layout: [u32 n_items][u32 n_words][n_words * 8-byte LE words]
/// over the [0, max_id] ID range. Lossless only for strictly ascending
/// input (decode emits set bits in ascending order) — the caller
/// checked that.
void encode_bitmap(Message& msg, util::ThreadPool* pool) {
  const std::size_t n = msg.vertices.size();
  const std::uint64_t max_id = msg.vertices[n - 1];  // ascending: last
  const std::uint64_t n_words = max_id / 64 + 1;
  msg.wire.clear();
  msg.wire.reserve(8 + n_words * 8);
  put_u32(msg.wire, static_cast<std::uint32_t>(n));
  put_u32(msg.wire, static_cast<std::uint32_t>(n_words));
  const std::size_t base = msg.wire.size();
  msg.wire.resize(base + n_words * 8);
  // Parallel fill: chunk the *word* range (each word owns 8 output
  // bytes and the 64 IDs mapping into it), and hand each chunk the
  // vertex subrange landing in its words via binary search on the
  // (strictly ascending — the caller checked) ID sequence. Chunks
  // zero and set disjoint byte ranges, so the payload is byte-for-byte
  // what the sequential fill+set loop produces.
  constexpr std::size_t kWordGrain = 512;
  util::parallel_for(
      pool, static_cast<std::size_t>(n_words), kWordGrain,
      [&](std::size_t wb, std::size_t we, std::size_t /*chunk*/) {
        std::fill(msg.wire.begin() + static_cast<std::ptrdiff_t>(base + wb * 8),
                  msg.wire.begin() + static_cast<std::ptrdiff_t>(base + we * 8),
                  std::uint8_t{0});
        const VertexT* first = msg.vertices.data();
        const VertexT* last = first + n;
        const VertexT* lo = std::lower_bound(
            first, last, static_cast<VertexT>(wb * 64));
        const VertexT* hi =
            we * 64 > max_id
                ? last
                : std::lower_bound(lo, last, static_cast<VertexT>(we * 64));
        for (const VertexT* it = lo; it != hi; ++it) {
          const std::uint64_t id = *it;
          msg.wire[base + (id / 64) * 8 + (id % 64) / 8] |=
              static_cast<std::uint8_t>(1u << (id % 8));
        }
      });
}

/// Delta-varint layout: [varint n][zigzag(v[i] - v[i-1]) varints],
/// previous starting at 0. Order-preserving for arbitrary sequences.
void encode_delta_varint(Message& msg, util::ThreadPool* pool) {
  const std::size_t n = msg.vertices.size();
  msg.wire.clear();
  constexpr std::size_t kItemGrain = 4096;
  const std::size_t n_chunks = util::ThreadPool::chunk_count(n, kItemGrain);
  if (pool == nullptr || n_chunks == 1) {
    // Ascending dense runs collapse to 1 byte/vertex; reserve for that
    // common case and let push_back grow on adversarial input.
    msg.wire.reserve(10 + n * 2);
    put_varint(msg.wire, n);
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      put_varint(msg.wire, zigzag(cur - prev));
      prev = cur;
    }
    return;
  }
  // Two-pass parallel encode. Every delta depends only on vertices
  // [i-1] and [i], so a chunk starting at b seeds its running
  // `prev` from vertices[b-1] — no cross-chunk carry. Pass 1 sizes
  // each chunk's encoded bytes, a serial prefix fixes each chunk's
  // output offset, and pass 2 emits into disjoint ranges: the byte
  // stream is identical to the sequential encoder's.
  put_varint(msg.wire, n);
  const std::size_t header = msg.wire.size();
  std::size_t chunk_bytes[util::ThreadPool::kMaxChunks];
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    std::int64_t prev =
        b == 0 ? 0 : static_cast<std::int64_t>(msg.vertices[b - 1]);
    std::size_t bytes = 0;
    for (std::size_t i = b; i < e; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      bytes += varint_len(zigzag(cur - prev));
      prev = cur;
    }
    chunk_bytes[c] = bytes;
  });
  std::size_t offsets[util::ThreadPool::kMaxChunks];
  std::size_t total = header;
  for (std::size_t c = 0; c < n_chunks; ++c) {
    offsets[c] = total;
    total += chunk_bytes[c];
  }
  msg.wire.resize(total);
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = util::ThreadPool::chunk_begin(n, n_chunks, c);
    const std::size_t e = util::ThreadPool::chunk_begin(n, n_chunks, c + 1);
    std::int64_t prev =
        b == 0 ? 0 : static_cast<std::int64_t>(msg.vertices[b - 1]);
    std::uint8_t* out = msg.wire.data() + offsets[c];
    for (std::size_t i = b; i < e; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(msg.vertices[i]);
      out += put_varint_at(out, zigzag(cur - prev));
      prev = cur;
    }
  });
}

}  // namespace

WireFormat encode(Message& msg, WireFormat requested,
                  double density_threshold, std::size_t universe,
                  util::ThreadPool* pool) {
  if (requested == WireFormat::kRawIds || msg.vertices.empty()) {
    return WireFormat::kRawIds;
  }
  MGG_REQUIRE(msg.encoding == WireFormat::kRawIds,
              "wire::encode on an already-encoded message");
  const std::size_t n = msg.vertices.size();
  const std::size_t raw_bytes = n * sizeof(VertexT);
  const bool ascending = strictly_ascending(msg.vertices);

  WireFormat pick = requested;
  if (pick == WireFormat::kAuto) {
    // Density heuristic: a bitmap over the receiver's hosted-vertex
    // range pays off when the bucket covers at least
    // density_threshold of it — and is admissible only when the
    // sequence is ascending (dense-frontier advances emit ascending,
    // so dense supersteps qualify exactly when compression pays).
    const bool dense =
        universe > 0 &&
        static_cast<double>(n) >=
            density_threshold * static_cast<double>(universe);
    pick = (dense && ascending) ? WireFormat::kBitmap
                                : WireFormat::kDeltaVarint;
  }
  if (pick == WireFormat::kBitmap) {
    // Bitmap decode yields ascending order; a non-ascending sequence
    // would be reordered (or, with duplicates, lose items). Fall back
    // to the order-preserving format instead of silently corrupting.
    if (!ascending) {
      pick = WireFormat::kDeltaVarint;
    } else {
      const std::uint64_t n_words =
          static_cast<std::uint64_t>(msg.vertices[n - 1]) / 64 + 1;
      if (8 + n_words * 8 >= raw_bytes) pick = WireFormat::kDeltaVarint;
    }
  }
  if (pick == WireFormat::kBitmap) {
    encode_bitmap(msg, pool);
  } else {
    encode_delta_varint(msg, pool);
  }
  if (msg.wire.size() >= raw_bytes) {
    // Compression would inflate the payload (sparse adversarial
    // sequences with large alternating deltas); ship raw.
    msg.wire.clear();
    return WireFormat::kRawIds;
  }
  msg.encoding = pick;
  msg.wire_items = n;
  msg.vertices.clear();
  return pick;
}

void decode(Message& msg) {
  if (msg.encoding == WireFormat::kRawIds) return;
  const std::size_t n = msg.wire_items;
  const std::uint8_t* data = msg.wire.data();
  const std::size_t size = msg.wire.size();
  std::size_t pos = 0;
  msg.vertices.resize(n);
  if (msg.encoding == WireFormat::kBitmap) {
    const std::uint32_t n_items = get_u32(data, size, pos);
    const std::uint32_t n_words = get_u32(data, size, pos);
    MGG_CHECK(n_items == n, Status::kInternal,
              "wire: bitmap header item count mismatch");
    MGG_CHECK(pos + static_cast<std::size_t>(n_words) * 8 == size,
              Status::kInternal, "wire: bitmap payload size mismatch");
    std::size_t out = 0;
    for (std::uint32_t w = 0; w < n_words; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(data[pos + b]) << (b * 8);
      }
      pos += 8;
      const std::uint64_t word_base = static_cast<std::uint64_t>(w) * 64;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        MGG_CHECK(out < n, Status::kInternal,
                  "wire: bitmap has more set bits than items");
        msg.vertices[out++] = static_cast<VertexT>(word_base + bit);
        word &= word - 1;
      }
    }
    MGG_CHECK(out == n, Status::kInternal,
              "wire: bitmap has fewer set bits than items");
  } else {
    const std::uint64_t n_header = get_varint(data, size, pos);
    MGG_CHECK(n_header == n, Status::kInternal,
              "wire: varint header item count mismatch");
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      prev += unzigzag(get_varint(data, size, pos));
      MGG_CHECK(prev >= 0 && prev <= 0xFFFFFFFFll, Status::kInternal,
                "wire: decoded vertex out of VertexT range");
      msg.vertices[i] = static_cast<VertexT>(prev);
    }
    MGG_CHECK(pos == size, Status::kInternal,
              "wire: trailing bytes after varint payload");
  }
  msg.encoding = WireFormat::kRawIds;
  msg.wire.clear();
  msg.wire_items = 0;
}

}  // namespace wire

CommBus::CommBus(vgpu::Machine& machine)
    : machine_(&machine),
      locks_(machine.num_devices()),
      inboxes_(machine.num_devices()),
      drained_(machine.num_devices()),
      relay_(machine.num_devices()) {}

Message CommBus::acquire() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_.empty()) return Message{};
  Message message = std::move(pool_.back());
  pool_.pop_back();
  return message;
}

void CommBus::release(Message&& message) {
  message.recycle();
  std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(message));
}

std::size_t CommBus::pool_size() const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_.size();
}

double CommBus::consult_transfer_faults(int src, int dst,
                                        double& backoff_s) {
  // Fault consultation + bounded retry with modeled backoff.
  // Fault-free machines skip this entirely (null injector), so the
  // hot path and its modeled times are untouched.
  double slowdown = 1.0;
  vgpu::FaultInjector* injector = machine_->fault_injector();
  if (injector == nullptr) return slowdown;
  const int max_retries = max_retries_.load(std::memory_order_relaxed);
  int attempt = 0;
  for (;;) {
    const vgpu::TransferDecision decision = injector->on_transfer(src, dst);
    if (decision.permanent_fail) {
      throw Error(Status::kUnavailable, "permanent transfer fault on link " +
                                            std::to_string(src) + "->" +
                                            std::to_string(dst));
    }
    slowdown = decision.slowdown;
    if (!decision.transient_fail) return slowdown;
    if (attempt >= max_retries) {
      throw Error(Status::kUnavailable,
                  "transfer retries exhausted on link " +
                      std::to_string(src) + "->" + std::to_string(dst) +
                      " after " + std::to_string(attempt) + " retries");
    }
    // Modeled exponential backoff, charged by the caller as part of
    // this transfer's comm-timeline occupancy. The exponent is
    // clamped (1 << attempt is UB at attempt >= 64 and the modeled
    // seconds explode long before that) and the total is capped so a
    // high retry bound models a saturated retry loop, not
    // astronomical time.
    static constexpr double kBackoffBaseS = 50e-6;
    static constexpr int kMaxBackoffExponent = 20;
    static constexpr double kBackoffTotalCapFactor =
        static_cast<double>(1ULL << 22);
    const int exponent = std::min(attempt, kMaxBackoffExponent);
    backoff_s =
        std::min(backoff_s +
                     kBackoffBaseS * static_cast<double>(1ULL << exponent),
                 kBackoffBaseS * kBackoffTotalCapFactor);
    ++attempt;
    comm_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CommBus::push(int src, int dst, Message message) {
  MGG_REQUIRE(src >= 0 && src < machine_->num_devices(), "bad src GPU");
  MGG_REQUIRE(dst >= 0 && dst < machine_->num_devices(), "bad dst GPU");
  MGG_REQUIRE(src != dst, "self-push is a framework bug");
  if (message.empty()) {
    release(std::move(message));
    return;
  }
  message.src_gpu = src;

  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  vgpu::Device& sender = machine_->device(src);
  // Submit-time stamp of the sender's compute timeline: the modeled
  // transfer cannot start before the kernel that packaged its payload
  // finished, no matter when the comm-stream worker gets to the task.
  const double ready_s = sender.modeled_compute_time();
  sender.comm_stream().submit(
      [this, src, dst, epoch, ready_s, msg = std::move(message)]() mutable {
        if (epoch != epoch_.load(std::memory_order_acquire)) {
          // The run this push belongs to was reset while the task sat
          // on the comm stream; drop the stale payload.
          release(std::move(msg));
          return;
        }
        const bool cross_node =
            !machine_->interconnect().same_node(src, dst);
        // Two-level combine: a cross-node push is staged — the sender
        // pays the fast hop to its node's gateway for dst's node (and
        // that hop is the fault-injection surface), the gateway ledger
        // records the bucket for flush_relays(), and the message is
        // still delivered to dst unchanged (the correctness path; its
        // modeled inter-node cost is realized at the gateway flush).
        const bool staged = cross_node && two_level_enabled();
        const int hop_dst = staged ? elect_gateway(src, dst) : dst;
        double slowdown = 1.0;
        double backoff_s = 0.0;
        if (src != hop_dst) {
          try {
            slowdown = consult_transfer_faults(src, hop_dst, backoff_s);
          } catch (...) {
            release(std::move(msg));
            throw;
          }
        }
        const std::size_t items = msg.size();
        // A sender that is itself the gateway stages in place: no link
        // is crossed, so no bytes move — but the items are charged
        // here (and only here) so H item counts match the flat path
        // exactly, with the merged hop carrying items = 0.
        const std::size_t bytes =
            staged && src == hop_dst ? 0 : msg.payload_bytes();
        const double seconds =
            machine_->interconnect().transfer_seconds(src, hop_dst, bytes) *
                slowdown +
            backoff_s;
        const char* span = staged ? "push_relay"
                           : cross_node ? "push_inter_node"
                                        : "push";
        machine_->device(src).add_comm_cost(seconds, bytes, items, ready_s,
                                            span, hop_dst);
        if (bytes > 0) machine_->interconnect().record_transfer(bytes);
        // Every pushed byte is classified by link class: the staged
        // hop is intra-node by construction, so with two-level on the
        // inter-node share comes solely from the gateways' merged
        // pushes (and direct cross-node pushes when off).
        (staged || !cross_node ? intra_bytes_ : inter_bytes_)
            .fetch_add(bytes, std::memory_order_relaxed);
        switch (msg.encoding) {
          case WireFormat::kBitmap:
            wire_bytes_bitmap_.fetch_add(bytes, std::memory_order_relaxed);
            break;
          case WireFormat::kDeltaVarint:
            wire_bytes_delta_.fetch_add(bytes, std::memory_order_relaxed);
            break;
          default:
            wire_bytes_raw_.fetch_add(bytes, std::memory_order_relaxed);
            break;
        }
        // Counted per *pushed* message, not per wire::encode call: a
        // broadcast proto is encoded once but cloned to every peer,
        // and each clone is decoded on its receiver — counting here
        // keeps encoded_vertices == decoded_vertices exact.
        if (msg.encoding != WireFormat::kRawIds) {
          wire_encoded_.fetch_add(items, std::memory_order_relaxed);
        }
        if (staged) stage_relay(src, dst, hop_dst, msg);
        {
          std::lock_guard<std::mutex> lock(locks_[dst]);
          inboxes_[dst].push_back(std::move(msg));
        }
      });
}

void CommBus::set_two_level(TwoLevelPolicy policy) {
  if (policy.enabled) {
    MGG_REQUIRE(machine_->interconnect().has_nodes(),
                "two-level combine requires a node hierarchy");
    MGG_REQUIRE(static_cast<int>(policy.node_universe.size()) ==
                    machine_->num_devices(),
                "two-level policy needs one node universe per device");
  }
  {
    std::lock_guard<std::mutex> lock(relay_mutex_);
    two_level_ = std::move(policy);
  }
  two_level_enabled_.store(two_level_.enabled, std::memory_order_release);
}

int CommBus::elect_gateway(int src, int dst) const {
  const vgpu::Interconnect& net = machine_->interconnect();
  const int base = net.gateway(src, dst);
  const vgpu::FaultInjector* injector = machine_->fault_injector();
  const int lost = injector != nullptr ? injector->lost_device() : -1;
  if (lost < 0 || base != lost) return base;
  // Failover: re-elect the next live device of src's node,
  // deterministically (scan upward from the base election, wrapping
  // within the node). A single-device node has no one else to elect —
  // keep the base and let the transfer sites report the loss.
  const int node_size = net.node_size();
  const int node_base = (src / node_size) * node_size;
  for (int k = 1; k < node_size; ++k) {
    const int candidate = node_base + (base - node_base + k) % node_size;
    if (candidate != lost) return candidate;
  }
  return base;
}

void CommBus::stage_relay(int src, int dst, int gateway,
                          const Message& msg) {
  RelayEntry entry;
  {
    std::lock_guard<std::mutex> lock(relay_mutex_);
    if (!relay_entry_pool_.empty()) {
      entry = std::move(relay_entry_pool_.back());
      relay_entry_pool_.pop_back();
    }
  }
  entry.src = src;
  entry.dst = dst;
  entry.tag = msg.tag;
  entry.vertex_slots = msg.vertex_slots;
  entry.value_slots = msg.value_slots;
  entry.was_encoded = msg.encoding != WireFormat::kRawIds;
  if (entry.was_encoded) {
    // The sender compressed its bucket before the intra-node hop; the
    // gateway must decode to merge. Decode a scratch copy here (the
    // delivered message must stay encoded — the receiver's drain path
    // decodes and charges it exactly as in flat mode) and charge the
    // gateway's decode kernel at flush time.
    Message scratch;
    scratch.encoding = msg.encoding;
    scratch.wire = msg.wire;
    scratch.wire_items = msg.wire_items;
    wire::decode(scratch);
    entry.vertices = std::move(scratch.vertices);
  } else {
    entry.vertices = msg.vertices;
  }
  std::lock_guard<std::mutex> lock(relay_mutex_);
  relay_[gateway].push_back(std::move(entry));
}

void CommBus::flush_relays() {
  if (!two_level_enabled()) return;
  // Runs single-threaded in the superstep-close barrier completion,
  // after every sender's comm stream synchronized — no staging races
  // in; the lock is belt-and-braces against misuse.
  std::lock_guard<std::mutex> lock(relay_mutex_);
  for (std::size_t g = 0; g < relay_.size(); ++g) {
    auto& entries = relay_[g];
    if (entries.empty()) continue;
    // Deterministic flush order regardless of comm-stream scheduling:
    // groups by (dst, tag), senders within a group by src — the same
    // tag-sorted (src_gpu, tag) order the receiver's combine uses.
    std::sort(entries.begin(), entries.end(),
              [](const RelayEntry& a, const RelayEntry& b) {
                if (a.dst != b.dst) return a.dst < b.dst;
                if (a.tag != b.tag) return a.tag < b.tag;
                return a.src < b.src;
              });
    vgpu::Device& gw = machine_->device(static_cast<int>(g));
    for (const RelayEntry& e : entries) {
      if (e.was_encoded) {
        gw.add_kernel_cost(0, e.vertices.size(), 1, 1.0, "gateway_decode",
                           vgpu::TraceCategory::kCombine);
      }
    }
    for (std::size_t i = 0; i < entries.size();) {
      std::size_t j = i;
      std::size_t staged_items = 0;
      while (j < entries.size() && entries[j].dst == entries[i].dst &&
             entries[j].tag == entries[i].tag) {
        staged_items += entries[j].vertices.size();
        ++j;
      }
      const int dst = entries[i].dst;
      merge_scratch_.clear();
      merge_scratch_.reserve(staged_items);
      for (std::size_t k = i; k < j; ++k) {
        for (const VertexT v : entries[k].vertices) {
          merge_scratch_.push_back(v);
        }
      }
      if (two_level_.combine == TwoLevelPolicy::Combine::kDedupMin) {
        // The surviving key set of the (src, tag)-ordered min-combine
        // is exactly the sorted unique set; sorting also makes the
        // merged sequence ascending, so the bitmap re-encode is
        // admissible when the density pays.
        std::sort(merge_scratch_.begin(), merge_scratch_.end());
        const auto last =
            std::unique(merge_scratch_.begin(), merge_scratch_.end());
        merge_scratch_.resize(
            static_cast<std::size_t>(last - merge_scratch_.begin()));
      }
      const std::size_t merged_n = merge_scratch_.size();
      gateway_merges_.fetch_add(1, std::memory_order_relaxed);
      gateway_dedup_items_.fetch_add(staged_items - merged_n,
                                     std::memory_order_relaxed);
      // The merge pass touches every staged vertex once.
      gw.add_kernel_cost(0, staged_items, 1, 1.0, "gateway_merge",
                         vgpu::TraceCategory::kCombine);
      // Model the merged payload: the surviving vertices, one
      // associate entry of each slot per survivor (the combined
      // winners), re-encoded once against the destination node's
      // hosted universe.
      relay_scratch_.recycle();
      relay_scratch_.set_layout(entries[i].vertex_slots,
                                entries[i].value_slots, merged_n);
      std::copy(merge_scratch_.begin(), merge_scratch_.end(),
                relay_scratch_.vertices.begin());
      const WireFormat applied = wire::encode(
          relay_scratch_, two_level_.wire_format,
          two_level_.density_threshold, two_level_.node_universe[dst],
          host_pool_);
      if (applied != WireFormat::kRawIds) {
        gw.add_kernel_cost(0, merged_n, 1, 1.0,
                           applied == WireFormat::kBitmap
                               ? "wire_encode_bitmap"
                               : "wire_encode_varint",
                           vgpu::TraceCategory::kCombine);
      }
      const std::size_t bytes = relay_scratch_.payload_bytes();
      // The gateway hop is a first-class fault-injection surface,
      // retried and backed off like any direct push.
      double backoff_s = 0.0;
      const double slowdown =
          consult_transfer_faults(static_cast<int>(g), dst, backoff_s);
      const double seconds =
          machine_->interconnect().transfer_seconds(static_cast<int>(g),
                                                    dst, bytes) *
              slowdown +
          backoff_s;
      // items = 0: the staged hops already counted every item once.
      gw.add_comm_cost(seconds, bytes, 0, gw.modeled_compute_time(),
                       "push_inter_node", dst);
      machine_->interconnect().record_transfer(bytes);
      inter_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      switch (applied) {
        case WireFormat::kBitmap:
          wire_bytes_bitmap_.fetch_add(bytes, std::memory_order_relaxed);
          break;
        case WireFormat::kDeltaVarint:
          wire_bytes_delta_.fetch_add(bytes, std::memory_order_relaxed);
          break;
        default:
          wire_bytes_raw_.fetch_add(bytes, std::memory_order_relaxed);
          break;
      }
      i = j;
    }
    for (RelayEntry& e : entries) {
      e.vertices.clear();
      relay_entry_pool_.push_back(std::move(e));
    }
    entries.clear();
  }
}

std::vector<Message>& CommBus::drain(int dst) {
  MGG_CHECK(!strict_drain_ || drained_[dst].empty(), Status::kInternal,
            "CommBus::drain(" + std::to_string(dst) +
                "): previous drained batch was not recycled — call "
                "release_drained() after combining (strict pipeline "
                "drain protocol)");
  release_drained(dst);
  {
    std::lock_guard<std::mutex> lock(locks_[dst]);
    // Swap instead of move-and-clear: the inbox inherits the drained
    // batch's (emptied) storage, so both vectors keep their high-water
    // capacity across iterations.
    drained_[dst].swap(inboxes_[dst]);
  }
  // Inbox arrival order depends on comm-stream scheduling; sort by
  // (sender, tag) — unique per iteration — so the combine order, and
  // with it every downstream quantity (H included, for primitives
  // whose sends depend on combine order, e.g. SSSP), is reproducible
  // across runs.
  std::sort(drained_[dst].begin(), drained_[dst].end(),
            [](const Message& a, const Message& b) {
              return a.src_gpu != b.src_gpu ? a.src_gpu < b.src_gpu
                                            : a.tag < b.tag;
            });
  decode_batch(dst, drained_[dst]);
  return drained_[dst];
}

void CommBus::decode_batch(int dst, std::vector<Message>& batch) {
  // Stage the charge parameters first (decode resets encoding /
  // wire_items), decode — across messages in parallel when a host
  // pool is installed, since each message decodes into its own
  // buffers — then issue the modeled decode charges sequentially in
  // batch order. The receiver's kernel-charge sequence, and with it
  // every modeled time and counter, is bit-identical to the
  // sequential path at any pool width.
  struct Charge {
    std::size_t index;
    std::size_t items;
    const char* name;
  };
  std::vector<Charge> charges;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].encoding == WireFormat::kRawIds) continue;
    charges.push_back({i, batch[i].size(),
                       batch[i].encoding == WireFormat::kBitmap
                           ? "wire_decode_bitmap"
                           : "wire_decode_varint"});
  }
  if (charges.empty()) return;
  if (host_pool_ != nullptr && charges.size() > 1) {
    const std::size_t n_chunks =
        util::ThreadPool::chunk_count(charges.size(), 1);
    host_pool_->run_chunks(n_chunks, [&](std::size_t c) {
      const std::size_t b =
          util::ThreadPool::chunk_begin(charges.size(), n_chunks, c);
      const std::size_t e =
          util::ThreadPool::chunk_begin(charges.size(), n_chunks, c + 1);
      for (std::size_t k = b; k < e; ++k) wire::decode(batch[charges[k].index]);
    });
  } else {
    for (const Charge& c : charges) wire::decode(batch[c.index]);
  }
  for (const Charge& c : charges) {
    // Modeled decode kernel: one launch touching n vertices, charged
    // to the receiver's compute timeline alongside the combine work it
    // feeds. Identical across sync modes — per-batch and per-sender
    // drains decode the same message set exactly once.
    machine_->device(dst).add_kernel_cost(0, c.items, 1, 1.0, c.name,
                                          vgpu::TraceCategory::kCombine);
    wire_decoded_.fetch_add(c.items, std::memory_order_relaxed);
  }
}

std::vector<Message>& CommBus::drain_from(int dst, int src) {
  auto& batch = drained_[dst];
  // Unlike drain(), never silently recycle: the pipeline combine loop
  // alternates drain_from / release_drained per sender, and a live
  // batch here means the caller is still (logically) combining it.
  MGG_CHECK(batch.empty(), Status::kInternal,
            "CommBus::drain_from(" + std::to_string(dst) + ", " +
                std::to_string(src) +
                "): previous drained batch was not recycled — call "
                "release_drained() before the next drain in pipeline "
                "mode");
  {
    std::lock_guard<std::mutex> lock(locks_[dst]);
    // Stable partition: extract `src`'s messages, keep the rest in
    // arrival order. Both vectors retain their high-water capacity.
    // Guard the no-move case: self-move-assigning inbox[i] into itself
    // would leave the message's vectors empty (std::vector self-move
    // is destructive), silently dropping a peer's payload.
    auto& inbox = inboxes_[dst];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      if (inbox[i].src_gpu == src) {
        batch.push_back(std::move(inbox[i]));
      } else {
        if (kept != i) inbox[kept] = std::move(inbox[i]);
        ++kept;
      }
    }
    inbox.resize(kept);
  }
  // Within one sender, tags are unique per superstep; sorting by tag
  // reproduces the (src_gpu, tag) combine order the barrier schedule
  // gets from its full-inbox sort.
  std::sort(batch.begin(), batch.end(),
            [](const Message& a, const Message& b) { return a.tag < b.tag; });
  decode_batch(dst, batch);
  return batch;
}

void CommBus::release_drained(int dst) {
  auto& batch = drained_[dst];
  if (batch.empty()) return;
  std::lock_guard<std::mutex> lock(pool_mutex_);
  for (Message& message : batch) {
    message.recycle();
    pool_.push_back(std::move(message));
  }
  batch.clear();
}

void CommBus::reset() {
  // Synchronize every sender first: a push task still queued on a comm
  // stream would otherwise execute after the clear below and deliver a
  // previous run's message into the next run's inbox.
  for (int d = 0; d < machine_->num_devices(); ++d) {
    machine_->device(d).comm_stream().synchronize();
  }
  // Advance the epoch so any remaining straggler (defensive; the
  // synchronization above retires everything submitted so far) drops
  // its payload instead of delivering.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  {
    // Drop any staged relay buckets the retiring run never flushed
    // (e.g. a run aborted mid-superstep); their entry buffers return
    // to the free list.
    std::lock_guard<std::mutex> lock(relay_mutex_);
    for (auto& entries : relay_) {
      for (RelayEntry& e : entries) {
        e.vertices.clear();
        relay_entry_pool_.push_back(std::move(e));
      }
      entries.clear();
    }
  }
  for (int d = 0; d < machine_->num_devices(); ++d) {
    {
      std::lock_guard<std::mutex> lock(locks_[d]);
      drained_[d].insert(drained_[d].end(),
                         std::make_move_iterator(inboxes_[d].begin()),
                         std::make_move_iterator(inboxes_[d].end()));
      inboxes_[d].clear();
    }
    release_drained(d);
  }
}

}  // namespace mgg::core
