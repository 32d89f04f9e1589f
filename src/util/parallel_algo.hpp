// Deterministic parallel building blocks over the shared worker pool:
// a stable LSD radix sort of (key, payload) pairs and a stable
// compaction. Both follow thread_pool.hpp's rules — a fixed chunk plan,
// chunk-indexed state, chunk-ordered combines — so their output is the
// same at every pool width, including 1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/pod_vector.hpp"
#include "util/thread_pool.hpp"

namespace mgg::util {

/// Items per chunk of the passes below.
inline constexpr std::size_t kScanGrain = std::size_t{1} << 16;

/// Sort `keys` ascending and move payload[i] along with keys[i]; equal
/// keys keep their input order. Key is an unsigned integer type
/// (__uint128_t included).
///
/// Each pass orders one 11-bit digit. Digits that no two keys differ in
/// are skipped: a first pass ORs and ANDs every key, and each digit
/// window starts at the lowest differing bit above the previous one.
/// A pass counts digits per chunk, turns the counts into exclusive
/// offsets in (digit, chunk) order, and then each chunk scatters its
/// items in input order to its own offsets.
template <typename Key, typename Payload>
void radix_sort_pairs(PodVector<Key>& keys, PodVector<Payload>& payload,
                      ThreadPool* pool) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr int kKeyBits = static_cast<int>(sizeof(Key)) * 8;
  const std::size_t n = keys.size();
  if (n < 2) return;
  const std::size_t n_chunks = ThreadPool::chunk_count(n, kScanGrain);

  std::vector<Key> any(n_chunks, Key{0});
  std::vector<Key> all(n_chunks, static_cast<Key>(~Key{0}));
  parallel_for(pool, n, kScanGrain,
               [&](std::size_t begin, std::size_t end, std::size_t c) {
                 for (std::size_t i = begin; i < end; ++i) {
                   any[c] |= keys[i];
                   all[c] &= keys[i];
                 }
               });
  for (std::size_t c = 1; c < n_chunks; ++c) {
    any[0] |= any[c];
    all[0] &= all[c];
  }
  const Key varying = any[0] ^ all[0];

  PodVector<Key> key_out(n);
  PodVector<Payload> payload_out(n);
  std::vector<std::size_t> offsets(n_chunks * kBuckets);
  for (int shift = 0;; shift += kDigitBits) {
    while (shift < kKeyBits && ((varying >> shift) & 1) == 0) ++shift;
    if (shift >= kKeyBits) break;
    const auto digit = [shift](const Key& k) {
      return static_cast<std::size_t>(k >> shift) & (kBuckets - 1);
    };
    std::fill(offsets.begin(), offsets.end(), std::size_t{0});
    parallel_for(pool, n, kScanGrain,
                 [&](std::size_t begin, std::size_t end, std::size_t c) {
                   std::size_t* count = offsets.data() + c * kBuckets;
                   for (std::size_t i = begin; i < end; ++i) {
                     ++count[digit(keys[i])];
                   }
                 });
    std::size_t next = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        std::size_t& slot = offsets[c * kBuckets + d];
        const std::size_t count = slot;
        slot = next;
        next += count;
      }
    }
    parallel_for(pool, n, kScanGrain,
                 [&](std::size_t begin, std::size_t end, std::size_t c) {
                   std::size_t* at = offsets.data() + c * kBuckets;
                   for (std::size_t i = begin; i < end; ++i) {
                     const std::size_t to = at[digit(keys[i])]++;
                     key_out[to] = keys[i];
                     payload_out[to] = payload[i];
                   }
                 });
    keys.swap(key_out);
    payload.swap(payload_out);
  }
}

/// Stable compaction of [0, n): calls emit(i, rank) for every i with
/// keep(i), where rank is the number of kept items before i, and
/// returns the number kept. Chunks count their kept items first, so
/// each then writes its ranks independently; emit must not write
/// anything that keep or emit reads.
template <typename Keep, typename Emit>
std::size_t parallel_compact(ThreadPool* pool, std::size_t n, Keep keep,
                             Emit emit) {
  const std::size_t n_chunks = ThreadPool::chunk_count(n, kScanGrain);
  std::vector<std::size_t> first(n_chunks + 1, 0);
  parallel_for(pool, n, kScanGrain,
               [&](std::size_t begin, std::size_t end, std::size_t c) {
                 std::size_t kept = 0;
                 for (std::size_t i = begin; i < end; ++i) kept += keep(i);
                 first[c + 1] = kept;
               });
  for (std::size_t c = 0; c < n_chunks; ++c) first[c + 1] += first[c];
  parallel_for(pool, n, kScanGrain,
               [&](std::size_t begin, std::size_t end, std::size_t c) {
                 std::size_t rank = first[c];
                 for (std::size_t i = begin; i < end; ++i) {
                   if (keep(i)) emit(i, rank++);
                 }
               });
  return first[n_chunks];
}

}  // namespace mgg::util
