// Point-to-point superstep handshakes for the event-driven pipeline
// (Config::sync_mode == SyncMode::kEventPipeline).
//
// One slot per (sender, receiver) pair holds the vgpu::Event the
// sender recorded on its comm stream after its last push to that
// receiver in the current superstep (cudaEventRecord on the transfer
// stream, in real-GPU terms). The receiver takes the event for its
// current superstep — blocking until the sender has published it —
// and then waits for it to fire via Stream::wait_event on its own
// compute stream (cudaStreamWaitEvent), at which point exactly that
// sender's messages for this superstep are in its inbox.
//
// The publish/take rendezvous replaces the BSP barrier A: a receiver
// synchronizes with each sender individually, so it can combine an
// early sender's messages while slow peers are still computing. The
// superstep counter makes the pairing explicit and self-checking: a
// slot never holds more than one event, because sender and receiver
// advance supersteps in lockstep through the remaining convergence
// barrier (the sender's superstep-k+1 publish happens after barrier B
// of superstep k, which the receiver only reached after taking the
// superstep-k event).
//
// Error stop: if a worker dies before publishing, every blocked (and
// future) take must still return, or the surviving receivers deadlock
// where the barrier schedule would have drained them through the
// barriers. abort() flips a flag that makes take() hand back pre-fired
// events; the enactor calls it from its error-recording path.
//
// Deadline stop: take() also waits against the run's StopDeadline, so
// a publish that never comes (a lost handshake, a straggler) turns
// into a kTimedOut error on the blocked receiver itself. Its worker
// records the error like any other, which aborts the table and drains
// every thread through the error stop above.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/stream.hpp"

namespace mgg::core {

/// The wall-clock instant at which an enactment must stop, and which
/// of its two limits sets it: the run budget
/// (EnactorBase::set_enact_deadline) or the stall window
/// (Config::watchdog_deadline_s, measured from the last superstep
/// close). EnactorBase recomputes it at run start and at every
/// superstep close. Default-constructed: never.
struct StopDeadline {
  using Clock = std::chrono::steady_clock;

  Clock::time_point at = Clock::time_point::max();
  double limit_s = 0;  ///< the limit that sets `at`, in seconds
  bool stall = false;  ///< `at` comes from the stall window

  bool armed() const { return at != Clock::time_point::max(); }

  /// Tighten to `from + seconds` if that is earlier; `seconds` <= 0
  /// contributes nothing. Budgets beyond ~30 years count as never.
  void limit(Clock::time_point from, double seconds, bool is_stall) {
    if (seconds <= 0 || seconds > 1e9) return;
    const Clock::time_point t =
        from + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
    if (t >= at) return;
    at = t;
    limit_s = seconds;
    stall = is_stall;
  }

  /// The kTimedOut error naming the limit that fired; `where` says
  /// where the run stood when it did.
  Error timed_out(const std::string& where) const {
    return Error(Status::kTimedOut,
                 (stall ? "no superstep closed within "
                        : "enactment deadline of ") +
                     std::to_string(limit_s) + " s exceeded " + where);
  }
};

class HandshakeTable {
 public:
  explicit HandshakeTable(int num_gpus)
      : n_(num_gpus),
        slots_(std::make_unique<Slot[]>(
            static_cast<std::size_t>(num_gpus) * num_gpus)) {}

  /// Install (or clear, with nullptr) a fault injector: a
  /// kHandshakeDrop spec swallows the matching publish(), stalling the
  /// receiver's take() until the run's StopDeadline passes (or another
  /// error aborts the table).
  /// Set by the enactor before the run's workers start.
  void set_fault_injector(vgpu::FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// New run: drop any leftover events (an aborted run may leave
  /// published-but-untaken slots) and clear the abort flag.
  void reset() {
    aborted_.store(false, std::memory_order_release);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
         ++i) {
      std::lock_guard<std::mutex> lock(slots_[i].mutex);
      slots_[i].armed = false;
      slots_[i].event = vgpu::Event{};
      slots_[i].superstep = 0;
    }
  }

  /// Sender side: hand superstep `superstep`'s (src -> dst) event to
  /// the receiver. The previous event must have been taken (the
  /// lockstep argument above); publishing over an untaken event is a
  /// protocol bug — except after abort(), where takers returned dummy
  /// events and stragglers may still publish into dead slots.
  void publish(int src, int dst, std::uint64_t superstep,
               vgpu::Event event) {
    if (vgpu::FaultInjector* injector =
            fault_injector_.load(std::memory_order_acquire)) {
      if (injector->drop_handshake(src, dst)) {
        // Swallowed publish: the receiver stalls in take() until its
        // deadline passes (or another error path calls abort()).
        return;
      }
    }
    Slot& s = slot(src, dst);
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      if (aborted_.load(std::memory_order_acquire)) return;
      MGG_ASSERT(!s.armed,
                 "handshake published over an untaken event (sender ran "
                 "two supersteps ahead of its receiver)");
      s.event = std::move(event);
      s.superstep = superstep;
      s.armed = true;
    }
    s.cv.notify_all();
  }

  /// Receiver side: block until the (src -> dst) event for `superstep`
  /// is published, then consume it. On an aborted run, returns a
  /// pre-fired event so the caller's stream wait cannot hang. Throws
  /// `stop.timed_out(...)` if `stop` passes first.
  vgpu::Event take(int src, int dst, std::uint64_t superstep,
                   const StopDeadline& stop = {}) {
    Slot& s = slot(src, dst);
    std::unique_lock<std::mutex> lock(s.mutex);
    const auto ready = [&] {
      return (s.armed && s.superstep == superstep) ||
             aborted_.load(std::memory_order_acquire);
    };
    if (!stop.armed()) {
      s.cv.wait(lock, ready);
    } else if (!s.cv.wait_until(lock, stop.at, ready)) {
      throw stop.timed_out("waiting for gpu " + std::to_string(src) +
                           "'s superstep-" + std::to_string(superstep) +
                           " handshake");
    }
    if (!s.armed || s.superstep != superstep) {
      vgpu::Event fired;
      fired.fire();
      return fired;
    }
    s.armed = false;
    return std::move(s.event);
  }

  /// Wake every blocked take() — present and future — with pre-fired
  /// events. Called when the run stops with an error.
  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_);
         ++i) {
      // Acquire/release the slot mutex so a taker between its predicate
      // check and its sleep cannot miss the notification.
      { std::lock_guard<std::mutex> lock(slots_[i].mutex); }
      slots_[i].cv.notify_all();
    }
  }

  bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::mutex mutex;
    std::condition_variable cv;
    vgpu::Event event;
    std::uint64_t superstep = 0;
    bool armed = false;
  };

  Slot& slot(int src, int dst) {
    return slots_[static_cast<std::size_t>(src) * n_ + dst];
  }

  int n_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> aborted_{false};
  std::atomic<vgpu::FaultInjector*> fault_injector_{nullptr};
};

}  // namespace mgg::core
