// Deterministic fault injection (robustness under §IV-C's "just
// enough" gamble and beyond).
//
// The paper's frameworks assume a fault-free single node; our ROADMAP
// north star is a production-scale service, which demands that
// transient faults — OOM from under-provisioned just-enough buffers,
// slow or dropped peer transfers, stalled handshakes, lost devices —
// be injectable, recoverable, and observable. This module is the
// *injection* half: a seeded `FaultPlan` compiled into a
// `FaultInjector` that the vgpu layer consults at well-defined sites.
// The *recovery* half lives in core (enactor grow-and-retry, comm
// retry/backoff, stop deadline, degraded re-enact).
//
// Determinism contract: every decision is a pure function of the plan
// and a per-site event counter — allocation events per device,
// kernel events per device, transfer events per (src, dst) link,
// handshake publishes per (src, dst) slot. Wall clock never enters a
// decision, so a failing run replays bit-identically from (plan,
// schedule). Counters are advanced atomically by whichever thread
// reaches the site (stream workers, control threads), which is exactly
// the ordering the enactor already makes deterministic per site.
//
// A transient spec with `count = k` fires on `k` consecutive events of
// its site starting at `at_event`, then clears — so a retry loop that
// consumes site events naturally outlasts it. A permanent spec fires
// on every event from `at_event` on and marks the device lost.
//
// Observation: when a Tracer is attached, every fired event records a
// zero-width span (category kFault) so chaos runs are attributable;
// `injected_count()` feeds RunStats::faults_injected.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vgpu/trace.hpp"

namespace mgg::vgpu {

enum class FaultKind : std::uint8_t {
  kAllocTransient,     ///< MemoryManager::allocate throws kOutOfMemory
  kAllocPermanent,     ///< ... on every allocation from at_event on
  kTransferTransient,  ///< comm push fails (retryable)
  kTransferPermanent,  ///< comm push fails for good (device lost)
  kTransferSlowdown,   ///< transfer takes `factor`x modeled time
  kKernelSlowdown,     ///< kernel takes `factor`x modeled time (straggler)
  kKernelFault,        ///< kernel faults: kUnavailable, device lost
  kHandshakeDrop,      ///< publish is swallowed; receiver stalls
};

const char* to_string(FaultKind kind);

/// One scripted fault. `device` / `peer` select the site (-1 = any);
/// `at_event` is the 0-based per-site event index of the first hit;
/// `count` is how many consecutive events it covers (ignored for
/// permanent kinds, which never clear); `factor` scales time for
/// slowdown kinds.
struct FaultSpec {
  FaultKind kind = FaultKind::kAllocTransient;
  int device = -1;             ///< source device, or -1 for any
  int peer = -1;               ///< transfer/handshake destination, or -1
  std::uint64_t at_event = 0;  ///< first per-site event index hit
  std::uint64_t count = 1;     ///< consecutive events covered (transient)
  double factor = 4.0;         ///< slowdown multiplier (>1)
};

/// An ordered list of FaultSpecs plus helpers to build one
/// deterministically from a seed or parse one from a flag string.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const noexcept { return specs.empty(); }

  /// Deterministic pseudo-random plan: 2-4 faults drawn from the
  /// transient/slowdown kinds (chaos default; permanent kinds are
  /// opt-in via parse or explicit specs), targeting random devices /
  /// links / event indices. Same (seed, num_devices) -> same plan.
  static FaultPlan from_seed(std::uint64_t seed, int num_devices);

  /// Parse "kind@device[>peer][#at_event][xcount][*factor]" specs
  /// separated by commas, e.g.
  ///   "alloc_transient@1#3x2,transfer_slowdown@0>2#0*8".
  /// Kind names match to_string(FaultKind) without the leading k, in
  /// snake_case. Throws Error(kInvalidArgument) on malformed input.
  static FaultPlan parse(const std::string& text);

  /// Round-trips through parse().
  std::string to_string() const;
};

/// Decision returned to MemoryManager::allocate.
struct AllocDecision {
  bool fail = false;
};

/// Decision returned to the comm layer for one transfer attempt.
struct TransferDecision {
  bool transient_fail = false;
  bool permanent_fail = false;
  double slowdown = 1.0;  ///< multiplier on modeled transfer seconds
};

/// Decision returned to Device::add_kernel_cost.
struct KernelDecision {
  bool fail = false;      ///< device faults (kUnavailable)
  double slowdown = 1.0;  ///< straggler multiplier on modeled seconds
};

/// Compiled, thread-safe fault plan. One instance is installed on a
/// Machine (Machine::set_fault_injector) and consulted by
/// MemoryManager, Device, CommBus and HandshakeTable. All methods are
/// safe to call concurrently; each advances its site counter exactly
/// once per call.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, int num_devices);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Consult + advance the per-device allocation event counter.
  AllocDecision on_alloc(int device);

  /// Consult + advance the per-(src, dst) transfer event counter.
  TransferDecision on_transfer(int src, int dst);

  /// Consult + advance the per-device kernel event counter.
  KernelDecision on_kernel(int device);

  /// Consult + advance the per-(src, dst) handshake event counter.
  /// True = the publish must be swallowed (the receiver stalls until
  /// the run's stop deadline passes).
  bool drop_handshake(int src, int dst);

  /// Total events fired so far (feeds RunStats::faults_injected).
  std::uint64_t injected_count() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Device marked lost by a permanent fault, or -1. Used by the
  /// degraded re-enact path to decide whether a kUnavailable error is
  /// an injector-authored device loss.
  int lost_device() const noexcept {
    return lost_device_.load(std::memory_order_relaxed);
  }

  /// Neutralize every permanent spec (degraded re-enact acknowledged
  /// the loss; the surviving devices must run fault-free) and clear
  /// the lost-device mark. Transient/slowdown specs stay armed but
  /// their sites restart from event 0, deterministically.
  void acknowledge_device_loss();

  /// Per-site event counts observed so far — lets tests discover
  /// event indices from a counting (empty-plan) run.
  std::uint64_t alloc_events(int device) const;
  std::uint64_t kernel_events(int device) const;
  std::uint64_t transfer_events(int src, int dst) const;
  std::uint64_t handshake_events(int src, int dst) const;

  /// Reset every site counter to 0 (fresh run against the same plan).
  void reset_counters();

  /// Observation-only: fired events record zero-width kFault spans.
  void set_tracer(Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_release);
  }

  int num_devices() const noexcept { return n_; }

 private:
  struct Site {
    std::atomic<std::uint64_t> count{0};
  };

  /// True if `spec` covers per-site event index `event` (which this
  /// call owns exclusively — the counter was fetch-added).
  static bool covers(const FaultSpec& spec, std::uint64_t event);

  void record_fault(const FaultSpec& spec, int device, int peer,
                    std::uint64_t event);

  std::size_t link_index(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  FaultPlan plan_;
  int n_;
  // One atomic counter per site. Sized at construction; never resized.
  std::unique_ptr<Site[]> alloc_sites_;      // [n]
  std::unique_ptr<Site[]> kernel_sites_;     // [n]
  std::unique_ptr<Site[]> transfer_sites_;   // [n*n]
  std::unique_ptr<Site[]> handshake_sites_;  // [n*n]
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<int> lost_device_{-1};
  /// Permanent specs neutralized by acknowledge_device_loss().
  std::atomic<bool> permanents_disarmed_{false};
  std::atomic<Tracer*> tracer_{nullptr};
};

/// Build an injector from the shared `--fault-plan` / `--fault-seed`
/// CLI flags (bench binaries and examples all accept both). An empty
/// plan text with seed 0 means "no injection" and returns nullptr.
/// A non-empty plan text (FaultPlan::parse syntax) wins over the
/// seed, which derives a plan via FaultPlan::from_seed. The caller
/// owns the injector and must keep it alive across the runs it arms.
std::unique_ptr<FaultInjector> make_injector_from_flags(
    const std::string& plan_text, std::uint64_t fault_seed, int num_devices);

/// Deterministic per-lane seed derivation for the serve layer: lane
/// `lane` of a service chaos-seeded with `base_seed` draws its own
/// FaultPlan::from_seed plan from this value, so a multi-lane run is
/// reproducible from (base_seed, lane) alone and lanes never share a
/// fault schedule.
std::uint64_t lane_fault_seed(std::uint64_t base_seed, int lane);

/// Per-lane variant of make_injector_from_flags for serve::QueryService
/// lanes. A scripted `plan_text` (FaultPlan::parse syntax) arms lane 0
/// only — a targeted scenario such as a permanent device loss takes
/// out exactly one lane — while a nonzero `fault_seed` derives an
/// independent deterministic transient plan for *every* lane via
/// lane_fault_seed (both may combine on lane 0). Returns nullptr when
/// the lane ends up with no faults to inject.
std::unique_ptr<FaultInjector> make_lane_injector_from_flags(
    const std::string& plan_text, std::uint64_t fault_seed, int lane,
    int num_devices);

}  // namespace mgg::vgpu
