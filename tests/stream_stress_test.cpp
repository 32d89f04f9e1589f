// Concurrency stress tests for the stream/event machinery: random DAGs
// of cross-stream dependencies must respect happens-before, never
// deadlock, and never lose tasks. Also covers the comm-bus lifecycle
// against in-flight pushes riding on comm streams.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/handshake.hpp"
#include "primitives/multi_source.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "vgpu/stream.hpp"

namespace mgg {
namespace {

TEST(StreamStress, ManyTasksSingleStream) {
  vgpu::Stream stream("stress");
  std::atomic<int> counter{0};
  constexpr int kTasks = 5000;
  for (int i = 0; i < kTasks; ++i) {
    stream.submit([&counter] { counter.fetch_add(1); });
  }
  stream.synchronize();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(StreamStress, RandomCrossStreamDag) {
  // Build a random DAG: each "stage" appends one task per stream; with
  // probability 1/2 a stream first waits on an event recorded by a
  // random other stream in the previous stage. Each task records a
  // global sequence number; dependencies must be ordered.
  constexpr int kStreams = 6;
  constexpr int kStages = 60;
  util::Rng rng(2026);

  std::vector<std::unique_ptr<vgpu::Stream>> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(
        std::make_unique<vgpu::Stream>("s" + std::to_string(s)));
  }

  std::atomic<std::uint64_t> clock{0};
  // completion_tick[stage][stream]: the global tick when that task ran.
  std::vector<std::vector<std::uint64_t>> tick(
      kStages, std::vector<std::uint64_t>(kStreams, 0));
  struct Dep {
    int stage, stream, on_stream;
  };
  std::vector<Dep> deps;

  std::vector<vgpu::Event> previous_events(kStreams);
  for (int stage = 0; stage < kStages; ++stage) {
    std::vector<vgpu::Event> current_events(kStreams);
    for (int s = 0; s < kStreams; ++s) {
      if (stage > 0 && rng.next_bool(0.5)) {
        const int on =
            static_cast<int>(rng.next_below(kStreams));
        streams[s]->wait_event(previous_events[on]);
        deps.push_back({stage, s, on});
      }
      auto* slot = &tick[stage][s];
      streams[s]->submit(
          [slot, &clock] { *slot = clock.fetch_add(1) + 1; });
      current_events[s] = streams[s]->record_event();
    }
    previous_events = std::move(current_events);
  }
  for (auto& stream : streams) stream->synchronize();

  // In-stream order.
  for (int s = 0; s < kStreams; ++s) {
    for (int stage = 1; stage < kStages; ++stage) {
      EXPECT_LT(tick[stage - 1][s], tick[stage][s]);
    }
  }
  // Cross-stream dependency order: a task that waited on stream `on`'s
  // previous-stage event must run after that task.
  for (const auto& dep : deps) {
    EXPECT_LT(tick[dep.stage - 1][dep.on_stream],
              tick[dep.stage][dep.stream])
        << "stage " << dep.stage << " stream " << dep.stream << " on "
        << dep.on_stream;
  }
}

TEST(StreamStress, SynchronizeFromMultipleThreads) {
  vgpu::Stream stream("multi-sync");
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    stream.submit([&done] { done.fetch_add(1); });
  }
  std::vector<std::thread> waiters;
  waiters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&stream] { stream.synchronize(); });
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(done.load(), 200);
}

TEST(StreamStress, OversizedClosuresFallBackToHeapAndRun) {
  // A closure larger than Task's inline storage must box transparently.
  vgpu::Stream stream("big-closures");
  std::array<std::uint64_t, 64> payload{};  // 512 B > Task::kInlineBytes
  payload.fill(3);
  std::atomic<std::uint64_t> sum{0};
  static_assert(sizeof(payload) > vgpu::Task::kInlineBytes);
  for (int i = 0; i < 100; ++i) {
    stream.submit([payload, &sum] {
      for (const auto x : payload) sum.fetch_add(x);
    });
  }
  stream.synchronize();
  EXPECT_EQ(sum.load(), 100u * 64u * 3u);
}

// Regression: CommBus::reset() used to clear the inboxes without
// waiting for pushes still queued on sender comm streams; a delayed
// push task would then deliver the previous run's message into the
// next run's inbox. reset() must instead synchronize the in-flight
// push (and the epoch stamp drops any straggler).
TEST(StreamStress, CommResetDoesNotLeakInFlightPushes) {
  auto machine = test::test_machine(2);
  core::CommBus bus(machine);

  // Park the sender's comm stream behind an unfired gate, then queue a
  // push behind it so it is provably in flight when reset() starts.
  vgpu::Event gate;
  machine.device(0).comm_stream().wait_event(gate);
  core::Message msg = bus.acquire();
  msg.set_layout(0, 0, 1);
  msg.vertices[0] = 7;
  bus.push(0, 1, std::move(msg));

  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.fire();
  });
  bus.reset();  // must block on the parked push, not race past it
  opener.join();

  EXPECT_TRUE(bus.drain(1).empty()) << "stale message leaked into the "
                                       "post-reset inbox";
  EXPECT_EQ(bus.pool_size(), 1u);  // the payload was recycled, not lost
}

TEST(StreamStress, CommResetUnderConcurrentPushTraffic) {
  // Hammer reset() against senders pushing from their own threads; no
  // message may survive into the post-reset inboxes and none may leak
  // (every payload ends up back in the pool or delivered-and-drained).
  auto machine = test::test_machine(4);
  core::CommBus bus(machine);
  std::atomic<bool> stop{false};
  std::vector<std::thread> senders;
  for (int src = 0; src < 4; ++src) {
    senders.emplace_back([&, src] {
      util::Rng rng(src + 1);
      // Floor of 64 pushes even if stop is raised immediately (on a
      // loaded machine the reset loop can finish before this thread is
      // first scheduled), so the pool assertion below has substance.
      // Cap the total: reset() waits for the sender's comm stream to
      // quiesce, and an unbounded producer can starve that wait
      // forever under a serializing scheduler (ThreadSanitizer).
      for (int i = 0;
           i < 64 || (i < 8192 && !stop.load(std::memory_order_acquire));
           ++i) {
        const int dst = (src + 1 + static_cast<int>(rng.next_below(3))) % 4;
        core::Message m = bus.acquire();
        m.set_layout(0, 0, 8);
        bus.push(src, dst, std::move(m));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    bus.reset();
    // Fresh post-reset pushes may already be landing; just cycle the
    // drain path under contention (TSan covers the rest).
    for (int d = 0; d < 4; ++d) {
      bus.drain(d);
      bus.release_drained(d);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : senders) t.join();
  // With traffic quiesced, a reset must leave every inbox empty and
  // every payload accounted for in the pool.
  bus.reset();
  for (int d = 0; d < 4; ++d) {
    EXPECT_TRUE(bus.drain(d).empty());
  }
  EXPECT_GT(bus.pool_size(), 0u);
}

// The event-pipeline handshake protocol under adversarial timing:
// n workers run many supersteps in lockstep (convergence barrier
// only, like the pipeline enactor), each sleeping a random amount
// before producing, publishing per-peer comm-stream events and
// consuming peers' events via wait_event on its own compute stream.
// The payload cells are deliberately unsynchronized apart from the
// handshake itself, so any hole in the publish/take + record/wait
// happens-before chain shows up as a wrong value — and, under the
// TSan build this suite also runs in, as a data race.
TEST(StreamStress, HandshakeOrderingUnderRandomizedDelays) {
  constexpr int kGpus = 4;
  constexpr int kSupersteps = 150;
  auto machine = test::test_machine(kGpus);
  core::HandshakeTable table(kGpus);

  // mailbox[src][dst]: last value src's comm stream wrote for dst.
  std::uint64_t mailbox[kGpus][kGpus] = {};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<int> mismatches{0};
  std::barrier<> step_barrier(kGpus);

  auto worker = [&](int g) {
    util::Rng rng(1000 + g);
    vgpu::Device& dev = machine.device(g);
    for (std::uint64_t step = 0; step < kSupersteps; ++step) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.next_below(200)));
      for (int peer = 0; peer < kGpus; ++peer) {
        if (peer == g) continue;
        std::uint64_t* cell = &mailbox[g][peer];
        const std::uint64_t value = step * 1000 + static_cast<std::uint64_t>(g);
        dev.comm_stream().submit([cell, value] { *cell = value; });
        table.publish(g, peer, step, dev.comm_stream().record_event());
      }
      for (int src = 0; src < kGpus; ++src) {
        if (src == g) continue;
        dev.compute_stream().wait_event(table.take(src, g, step));
        dev.compute_stream().synchronize();
        if (mailbox[src][g] !=
            step * 1000 + static_cast<std::uint64_t>(src)) {
          mismatches.fetch_add(1);
        }
        verified.fetch_add(1);
      }
      dev.comm_stream().synchronize();
      step_barrier.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (int g = 0; g < kGpus; ++g) threads.emplace_back(worker, g);
  for (auto& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(verified.load(),
            static_cast<std::uint64_t>(kGpus) * (kGpus - 1) * kSupersteps);
}

// abort() racing blocked takers: every take must return (pre-fired)
// instead of deadlocking, no matter where in the superstep each taker
// was when the abort landed.
TEST(StreamStress, HandshakeAbortUnblocksAllTakers) {
  constexpr int kGpus = 4;
  core::HandshakeTable table(kGpus);
  std::atomic<int> returned{0};
  std::vector<std::thread> takers;
  for (int g = 1; g < kGpus; ++g) {
    takers.emplace_back([&, g] {
      // GPU 0 died before publishing superstep 5; these block.
      vgpu::Event e = table.take(0, g, 5);
      e.wait();  // pre-fired: must not hang
      returned.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  table.abort();
  for (auto& t : takers) t.join();
  EXPECT_EQ(returned.load(), kGpus - 1);
  // Late stragglers after the abort: publish is dropped, take returns
  // immediately.
  table.publish(1, 2, 7, vgpu::Event{});
  vgpu::Event late = table.take(3, 2, 9);
  late.wait();
  // A reset re-arms the table for the next run.
  table.reset();
  EXPECT_FALSE(table.aborted());
}

// Deadline stop: a take whose deadline has passed throws kTimedOut
// instead of blocking, unless its event is already published — then
// the event is handed over as usual.
TEST(StreamStress, HandshakeTakePastDeadlineTimesOutUnlessPublished) {
  core::HandshakeTable table(2);
  core::StopDeadline past;
  past.limit(core::StopDeadline::Clock::now() - std::chrono::seconds(1),
             0.001, /*is_stall=*/false);
  ASSERT_TRUE(past.armed());
  try {
    (void)table.take(0, 1, 0, past);
    FAIL() << "expected kTimedOut from an expired take";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kTimedOut) << e.what();
  }
  vgpu::Event published;
  published.fire();
  table.publish(1, 0, 0, std::move(published));
  vgpu::Event got = table.take(1, 0, 0, past);
  got.wait();  // the published (fired) event, not a timeout
  EXPECT_FALSE(table.aborted());
}

TEST(StreamStress, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    vgpu::Stream stream("drain");
    for (int i = 0; i < 500; ++i) {
      stream.submit([&ran] { ran.fetch_add(1); });
    }
    // No synchronize: the destructor must still run everything.
  }
  EXPECT_EQ(ran.load(), 500);
}

// Regression: destroying a stream whose worker was blocked inside
// wait_event on a never-fired event used to deadlock the destructor's
// join. Destruction must cancel the blocked wait, drain the remaining
// queue, and join.
TEST(StreamStress, DestructorReleasesWorkerBlockedInEventWait) {
  std::atomic<int> ran{0};
  {
    vgpu::Stream stream("blocked-wait");
    vgpu::Event never;  // nobody ever fires this
    stream.wait_event(never);
    stream.submit([&ran] { ran.fetch_add(1); });
    // Give the worker time to actually block inside the wait, so the
    // destructor exercises the cancel-a-parked-waiter path and not just
    // the flag check at task start.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(ran.load(), 1) << "queued work behind the cancelled wait "
                              "was lost";
}

// Injected-stall abort stressor: a fault injector swallows one
// handshake publish, stranding the receiver in take(); a control
// thread (standing in for a worker's error stop) aborts the table,
// which must release the stalled waiter — including the event wait it
// queued on its compute stream — and let every worker finish.
TEST(StreamStress, InjectedHandshakeStallAbortReleasesBlockedWaiters) {
  constexpr int kGpus = 3;
  auto machine = test::test_machine(kGpus);
  core::HandshakeTable table(kGpus);

  vgpu::FaultSpec drop;
  drop.kind = vgpu::FaultKind::kHandshakeDrop;
  drop.device = 0;  // the 0 -> 1 link's first publish is swallowed
  drop.peer = 1;
  drop.at_event = 0;
  drop.count = 1;
  vgpu::FaultPlan plan;
  plan.specs.push_back(drop);
  vgpu::FaultInjector injector(plan, kGpus);
  table.set_fault_injector(&injector);

  std::atomic<int> released{0};
  std::vector<std::thread> workers;
  for (int g = 0; g < kGpus; ++g) {
    workers.emplace_back([&, g] {
      vgpu::Device& dev = machine.device(g);
      for (int peer = 0; peer < kGpus; ++peer) {
        if (peer == g) continue;
        table.publish(g, peer, 0, dev.comm_stream().record_event());
      }
      for (int src = 0; src < kGpus; ++src) {
        if (src == g) continue;
        dev.compute_stream().wait_event(table.take(src, g, 0));
        dev.compute_stream().synchronize();
      }
      released.fetch_add(1);
    });
  }
  // GPU 1 is stalled in take(0, 1, 0) — its sender's publish was
  // dropped. After a grace period the control thread aborts.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(injector.injected_count(), 1u);
  table.abort();
  for (auto& t : workers) t.join();
  EXPECT_EQ(released.load(), kGpus);
  table.set_fault_injector(nullptr);
  table.reset();
  EXPECT_FALSE(table.aborted());
}

// Serving reuses one Problem/Enactor pair for many back-to-back
// enactments (reset + enact per batch). Pooled per-query state —
// frontier dense flags, operator dedup bitmaps, comm-bus epochs,
// mask/update words, per-slot depth/distance rows — must carry nothing
// across runs: every reused run must be bit-identical to a
// fresh-instance run of the same batch.
template <typename Problem, typename Enactor, typename RunFresh,
          typename ReadSlot>
void expect_reuse_matches_fresh(const graph::Graph& g, RunFresh run_fresh,
                                ReadSlot read_slot) {
  auto cfg = test::config_for(4);
  // Dense mode on: the dense frontier flags are exactly the kind of
  // pooled state a stale run could leak through.
  cfg.dense_threshold = 0.25;
  auto machine = test::test_machine(4);
  Problem problem(prim::kMaxBatchWidth);
  problem.init(g, machine, cfg);
  Enactor enactor(problem);
  const auto& pg = problem.partitioned();

  util::Rng rng(99);
  int round = 0;
  // Alternate widths so a wide run precedes a narrow one — stale
  // high-slot rows or value associates from a 64-wide batch would
  // corrupt the 1- or 7-wide batch after it.
  for (const std::size_t width : {64, 1, 64, 7, 64, 3}) {
    std::vector<VertexT> srcs;
    for (std::size_t i = 0; i < width; ++i) {
      srcs.push_back(static_cast<VertexT>(rng.next_below(g.num_vertices)));
    }
    enactor.reset(srcs);
    const auto reused_stats = enactor.enact();

    auto fresh_machine = test::test_machine(4);
    const auto fresh = run_fresh(g, srcs, fresh_machine, cfg);
    EXPECT_EQ(fresh.stats.iterations, reused_stats.iterations)
        << "round " << round;
    EXPECT_EQ(fresh.stats.total_edges, reused_stats.total_edges)
        << "round " << round;
    EXPECT_EQ(fresh.stats.total_comm_bytes, reused_stats.total_comm_bytes)
        << "round " << round;
    for (std::size_t slot = 0; slot < width; ++slot) {
      const auto want = fresh.slot(static_cast<int>(slot), g.num_vertices);
      for (VertexT v = 0; v < g.num_vertices; ++v) {
        ASSERT_EQ(want[v], read_slot(problem, pg.owner_of(v),
                                     static_cast<int>(slot),
                                     pg.host_local_of(v)))
            << "round " << round << " slot " << slot << " vertex " << v;
      }
    }
    ++round;
  }
}

TEST(StreamStress, BackToBackEnactmentsCarryNoState) {
  expect_reuse_matches_fresh<prim::MsBfsProblem, prim::MsBfsEnactor>(
      test::small_rmat(), prim::run_msbfs,
      [](const prim::MsBfsProblem& p, int gpu, int slot, VertexT lv) {
        return p.depth_at(gpu, slot, lv);
      });
}

TEST(StreamStress, BackToBackSsspEnactmentsCarryNoState) {
  expect_reuse_matches_fresh<prim::MsSsspProblem, prim::MsSsspEnactor>(
      test::small_weighted_rmat(), prim::run_msssp,
      [](const prim::MsSsspProblem& p, int gpu, int slot, VertexT lv) {
        return p.dist_at(gpu, slot, lv);
      });
}

}  // namespace
}  // namespace mgg
