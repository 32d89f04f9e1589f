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

/// Encoded length of a varint code without emitting it (the sizing
/// pass behind plan() and the parallel encoder's chunk offsets).
inline std::size_t varint_len(std::uint64_t v) noexcept {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// LEB128 varint into a raw buffer at `p`; returns bytes written.
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

bool strictly_ascending(std::span<const VertexT> v) noexcept {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

/// Bytes of the zigzag-delta varints for ids[b, e), the running
/// `prev` seeded from ids[b-1] (0 at the start) — so chunks size
/// independently and their sum is the whole stream's size.
std::size_t delta_bytes(const VertexT* ids, std::size_t b, std::size_t e) {
  std::int64_t prev = b == 0 ? 0 : static_cast<std::int64_t>(ids[b - 1]);
  std::size_t bytes = 0;
  for (std::size_t i = b; i < e; ++i) {
    const std::int64_t cur = static_cast<std::int64_t>(ids[i]);
    bytes += varint_len(zigzag(cur - prev));
    prev = cur;
  }
  return bytes;
}

/// Bitmap layout: [u32 n_items][u32 n_words][n_words * 8-byte LE words]
/// over the [0, max_id] ID range. Lossless only for strictly ascending
/// input (decode emits set bits in ascending order) — plan() checked
/// that.
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
  // (strictly ascending) ID sequence. Chunks zero and set disjoint
  // byte ranges, so the payload is byte-for-byte what the sequential
  // fill+set loop produces.
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
/// `bytes` is plan()'s exact payload size, so the buffer is sized once.
void encode_delta_varint(Message& msg, std::size_t bytes,
                         util::ThreadPool* pool) {
  const std::size_t n = msg.vertices.size();
  const VertexT* ids = msg.vertices.data();
  msg.wire.resize(bytes);
  const std::size_t header = put_varint_at(msg.wire.data(), n);
  // Every delta depends only on ids[i-1] and ids[i], so a chunk
  // starting at b seeds its running `prev` from ids[b-1] — no
  // cross-chunk carry.
  auto emit = [&](std::size_t b, std::size_t e, std::uint8_t* out) {
    std::int64_t prev = b == 0 ? 0 : static_cast<std::int64_t>(ids[b - 1]);
    for (std::size_t i = b; i < e; ++i) {
      const std::int64_t cur = static_cast<std::int64_t>(ids[i]);
      out += put_varint_at(out, zigzag(cur - prev));
      prev = cur;
    }
  };
  constexpr std::size_t kItemGrain = 4096;
  const std::size_t n_chunks = util::ThreadPool::chunk_count(n, kItemGrain);
  if (pool == nullptr || n_chunks == 1) {
    emit(0, n, msg.wire.data() + header);
    return;
  }
  // Two-pass parallel encode: pass 1 sizes each chunk, a serial prefix
  // fixes each chunk's output offset, and pass 2 emits into disjoint
  // ranges — the byte stream is identical to the sequential one.
  std::size_t offsets[util::ThreadPool::kMaxChunks + 1];
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    offsets[c + 1] =
        delta_bytes(ids, util::ThreadPool::chunk_begin(n, n_chunks, c),
                    util::ThreadPool::chunk_begin(n, n_chunks, c + 1));
  });
  offsets[0] = header;
  for (std::size_t c = 0; c < n_chunks; ++c) offsets[c + 1] += offsets[c];
  pool->run_chunks(n_chunks, [&](std::size_t c) {
    emit(util::ThreadPool::chunk_begin(n, n_chunks, c),
         util::ThreadPool::chunk_begin(n, n_chunks, c + 1),
         msg.wire.data() + offsets[c]);
  });
}

}  // namespace

WirePlan plan(std::span<const VertexT> ids, WireFormat requested,
              double density_threshold, std::size_t universe) {
  const std::size_t n = ids.size();
  const WirePlan raw{WireFormat::kRawIds, n * sizeof(VertexT)};
  if (requested == WireFormat::kRawIds || n == 0) return raw;
  const bool ascending = strictly_ascending(ids);
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
  // Bitmap decode yields ascending order, so a non-ascending sequence
  // (which it would reorder or, with duplicates, shrink) and a bitmap
  // no smaller than raw both fall through to the order-preserving
  // varint.
  if (pick == WireFormat::kBitmap && ascending) {
    const std::size_t bytes =
        8 + (static_cast<std::size_t>(ids[n - 1]) / 64 + 1) * 8;
    if (bytes < raw.bytes) return {WireFormat::kBitmap, bytes};
  }
  // Varint inflates sparse adversarial sequences with large
  // alternating deltas; those ship raw.
  const std::size_t bytes = varint_len(n) + delta_bytes(ids.data(), 0, n);
  return bytes < raw.bytes ? WirePlan{WireFormat::kDeltaVarint, bytes} : raw;
}

WireFormat encode(Message& msg, WireFormat requested,
                  double density_threshold, std::size_t universe,
                  util::ThreadPool* pool) {
  const WirePlan p =
      plan(msg.vertices, requested, density_threshold, universe);
  if (p.format == WireFormat::kRawIds) return WireFormat::kRawIds;
  MGG_REQUIRE(msg.encoding == WireFormat::kRawIds,
              "wire::encode on an already-encoded message");
  if (p.format == WireFormat::kBitmap) {
    encode_bitmap(msg, pool);
  } else {
    encode_delta_varint(msg, p.bytes, pool);
  }
  msg.encoding = p.format;
  msg.wire_items = msg.vertices.size();
  msg.vertices.clear();
  return p.format;
}

void decode_into(const Message& msg, util::PodVector<VertexT>& out) {
  const std::size_t base = out.size();
  if (msg.encoding == WireFormat::kRawIds) {
    out.insert(out.end(), msg.vertices.begin(), msg.vertices.end());
    return;
  }
  const std::size_t n = msg.wire_items;
  const std::uint8_t* data = msg.wire.data();
  const std::size_t size = msg.wire.size();
  std::size_t pos = 0;
  out.resize(base + n);
  VertexT* ids = out.data() + base;
  if (msg.encoding == WireFormat::kBitmap) {
    const std::uint32_t n_items = get_u32(data, size, pos);
    const std::uint32_t n_words = get_u32(data, size, pos);
    MGG_CHECK(n_items == n, Status::kInternal,
              "wire: bitmap header item count mismatch");
    MGG_CHECK(pos + static_cast<std::size_t>(n_words) * 8 == size,
              Status::kInternal, "wire: bitmap payload size mismatch");
    std::size_t i = 0;
    for (std::uint32_t w = 0; w < n_words; ++w) {
      std::uint64_t word = 0;
      for (int b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(data[pos + b]) << (b * 8);
      }
      pos += 8;
      const std::uint64_t word_base = static_cast<std::uint64_t>(w) * 64;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        MGG_CHECK(i < n, Status::kInternal,
                  "wire: bitmap has more set bits than items");
        ids[i++] = static_cast<VertexT>(word_base + bit);
        word &= word - 1;
      }
    }
    MGG_CHECK(i == n, Status::kInternal,
              "wire: bitmap has fewer set bits than items");
  } else {
    const std::uint64_t n_header = get_varint(data, size, pos);
    MGG_CHECK(n_header == n, Status::kInternal,
              "wire: varint header item count mismatch");
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // A delta beyond +-(2^32 - 1) lands outside VertexT from any
      // in-range prev; rejecting it first keeps the sum from
      // overflowing int64 on a corrupt 10-byte code.
      const std::int64_t delta = unzigzag(get_varint(data, size, pos));
      MGG_CHECK(delta >= -0xFFFFFFFFll && delta <= 0xFFFFFFFFll,
                Status::kInternal, "wire: decoded vertex out of VertexT range");
      prev += delta;
      MGG_CHECK(prev >= 0 && prev <= 0xFFFFFFFFll, Status::kInternal,
                "wire: decoded vertex out of VertexT range");
      ids[i] = static_cast<VertexT>(prev);
    }
    MGG_CHECK(pos == size, Status::kInternal,
              "wire: trailing bytes after varint payload");
  }
}

void decode(Message& msg) {
  if (msg.encoding == WireFormat::kRawIds) return;
  msg.vertices.clear();
  decode_into(msg, msg.vertices);
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
        count_wire_bytes(msg.encoding, bytes);
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

void CommBus::count_wire_bytes(WireFormat format, std::size_t bytes) {
  switch (format) {
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
}

void CommBus::stage_relay(int src, int dst, int gateway,
                          const Message& msg) {
  // The gateway merges decoded IDs, so an encoded bucket is decoded
  // straight into the ledger (its gateway_decode kernel is charged at
  // flush); the delivered message stays encoded for the receiver's
  // drain, which decodes and charges it exactly as in flat mode.
  std::lock_guard<std::mutex> lock(relay_mutex_);
  RelayLedger& ledger = relay_[gateway];
  const std::size_t offset = ledger.ids.size();
  wire::decode_into(msg, ledger.ids);
  ledger.records.push_back({src, dst, msg.tag, msg.vertex_slots,
                            msg.value_slots, offset, msg.size(),
                            msg.encoding != WireFormat::kRawIds});
}

void CommBus::flush_relays() {
  if (!two_level_enabled()) return;
  // Runs single-threaded in the superstep-close barrier completion,
  // after every sender's comm stream synchronized — no staging races
  // in; the lock is belt-and-braces against misuse.
  std::lock_guard<std::mutex> lock(relay_mutex_);
  for (std::size_t g = 0; g < relay_.size(); ++g) {
    auto& [records, ids] = relay_[g];
    if (records.empty()) continue;
    // Deterministic flush order regardless of comm-stream scheduling:
    // groups by (dst, tag), senders within a group by src — the same
    // tag-sorted (src_gpu, tag) order the receiver's combine uses.
    std::sort(records.begin(), records.end(),
              [](const RelayRecord& a, const RelayRecord& b) {
                if (a.dst != b.dst) return a.dst < b.dst;
                if (a.tag != b.tag) return a.tag < b.tag;
                return a.src < b.src;
              });
    vgpu::Device& gw = machine_->device(static_cast<int>(g));
    for (const RelayRecord& r : records) {
      if (r.encoded) {
        gw.add_kernel_cost(0, r.items, 1, 1.0, "gateway_decode",
                           vgpu::TraceCategory::kCombine);
      }
    }
    for (std::size_t i = 0; i < records.size();) {
      const RelayRecord& head = records[i];
      const int dst = head.dst;
      merge_scratch_.clear();
      std::size_t j = i;
      for (; j < records.size() && records[j].dst == dst &&
             records[j].tag == head.tag;
           ++j) {
        const VertexT* part = ids.data() + records[j].offset;
        merge_scratch_.insert(merge_scratch_.end(), part,
                              part + records[j].items);
      }
      const std::size_t staged_items = merge_scratch_.size();
      // The surviving key set of the (src, tag)-ordered per-vertex
      // combine (first-writer / min / sum / OR — every in-tree
      // primitive's) is exactly the sorted unique set; sorting also
      // makes the merged sequence ascending, so a bitmap is
      // admissible when the density pays.
      std::sort(merge_scratch_.begin(), merge_scratch_.end());
      merge_scratch_.erase(
          std::unique(merge_scratch_.begin(), merge_scratch_.end()),
          merge_scratch_.end());
      const std::size_t merged_n = merge_scratch_.size();
      gateway_merges_.fetch_add(1, std::memory_order_relaxed);
      gateway_dedup_items_.fetch_add(staged_items - merged_n,
                                     std::memory_order_relaxed);
      // The merge pass touches every staged vertex once.
      gw.add_kernel_cost(0, staged_items, 1, 1.0, "gateway_merge",
                         vgpu::TraceCategory::kCombine);
      // Price the merged payload without building it: the surviving
      // vertices sized in the format wire::encode would pick against
      // the destination node's hosted universe, plus one associate
      // entry of each slot per survivor (the combined winners).
      const wire::WirePlan merged = wire::plan(
          merge_scratch_, two_level_.wire_format,
          two_level_.density_threshold, two_level_.node_universe[dst]);
      if (merged.format != WireFormat::kRawIds) {
        gw.add_kernel_cost(0, merged_n, 1, 1.0,
                           merged.format == WireFormat::kBitmap
                               ? "wire_encode_bitmap"
                               : "wire_encode_varint",
                           vgpu::TraceCategory::kCombine);
      }
      const std::size_t bytes =
          merged.bytes +
          merged_n * (static_cast<std::size_t>(head.vertex_slots) *
                          sizeof(VertexT) +
                      static_cast<std::size_t>(head.value_slots) *
                          sizeof(ValueT));
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
      count_wire_bytes(merged.format, bytes);
      i = j;
    }
    records.clear();
    ids.clear();
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
    // (e.g. a run aborted mid-superstep); the ledgers keep their
    // capacity.
    std::lock_guard<std::mutex> lock(relay_mutex_);
    for (RelayLedger& ledger : relay_) {
      ledger.records.clear();
      ledger.ids.clear();
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
