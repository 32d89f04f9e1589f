// Unit tests for the virtual-GPU substrate: memory manager, streams &
// events, interconnect, cost model, machine presets.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "util/array1d.hpp"
#include "vgpu/cost.hpp"
#include "vgpu/device.hpp"
#include "vgpu/interconnect.hpp"
#include "vgpu/machine.hpp"
#include "vgpu/memory.hpp"
#include "vgpu/stream.hpp"

namespace mgg {
namespace {

TEST(MemoryManager, TracksCurrentAndPeak) {
  vgpu::MemoryManager mem(1 << 20);
  void* a = mem.allocate(1000, "a");
  void* b = mem.allocate(2000, "b");
  EXPECT_EQ(mem.current_bytes(), 3000u);
  EXPECT_EQ(mem.peak_bytes(), 3000u);
  mem.deallocate(a, 1000);
  EXPECT_EQ(mem.current_bytes(), 2000u);
  EXPECT_EQ(mem.peak_bytes(), 3000u);  // peak is sticky
  mem.deallocate(b, 2000);
}

TEST(MemoryManager, EnforcesCapacity) {
  vgpu::MemoryManager mem(1024);
  void* a = mem.allocate(1000, "big");
  EXPECT_THROW(mem.allocate(100, "overflow"), Error);
  try {
    mem.allocate(100, "overflow");
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
  }
  mem.deallocate(a, 1000);
  void* b = mem.allocate(100, "now fits");
  mem.deallocate(b, 100);
}

TEST(MemoryManager, PeakByNameBreakdown) {
  vgpu::MemoryManager mem(1 << 20);
  void* a = mem.allocate(500, "labels");
  void* b = mem.allocate(300, "frontier");
  const auto peaks = mem.peak_by_name();
  EXPECT_EQ(peaks.at("labels"), 500u);
  EXPECT_EQ(peaks.at("frontier"), 300u);
  mem.deallocate(a, 500);
  mem.deallocate(b, 300);
}

TEST(MemoryManager, ChargeWithoutAllocation) {
  vgpu::MemoryManager mem(1000);
  mem.charge(800, "subgraph");
  EXPECT_EQ(mem.current_bytes(), 800u);
  EXPECT_THROW(mem.charge(300, "too much"), Error);
  mem.uncharge(800);
  EXPECT_EQ(mem.current_bytes(), 0u);
}

TEST(MemoryManager, Array1DIntegration) {
  vgpu::MemoryManager mem(1 << 20);
  {
    util::Array1D<int> arr("labels", &mem);
    arr.allocate(100);
    EXPECT_EQ(mem.current_bytes(), 400u);
    arr.ensure_size(200);
    EXPECT_EQ(mem.current_bytes(), 800u);
  }
  EXPECT_EQ(mem.current_bytes(), 0u);  // RAII released
}

TEST(Stream, ExecutesInOrder) {
  vgpu::Stream stream("test");
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    stream.submit([&order, i] { order.push_back(i); });
  }
  stream.synchronize();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, EventCrossStreamDependency) {
  // cudaStreamWaitEvent semantics: consumer's later work runs only
  // after the producer's event fires, without blocking the host.
  vgpu::Stream producer("producer");
  vgpu::Stream consumer("consumer");
  std::atomic<int> value{0};

  producer.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    value.store(42);
  });
  vgpu::Event ready = producer.record_event();
  consumer.wait_event(ready);
  int seen = -1;
  consumer.submit([&] { seen = value.load(); });
  consumer.synchronize();
  EXPECT_EQ(seen, 42);
}

TEST(Stream, ExceptionSurfacesOnSynchronize) {
  vgpu::Stream stream("test");
  stream.submit([] { throw Error(Status::kInternal, "async boom"); });
  stream.submit([] {});  // later work still runs
  EXPECT_THROW(stream.synchronize(), Error);
  // The error is consumed; the stream is usable again.
  stream.submit([] {});
  EXPECT_NO_THROW(stream.synchronize());
}

TEST(Event, QueryAndFire) {
  vgpu::Event e;
  EXPECT_FALSE(e.query());
  e.fire();
  EXPECT_TRUE(e.query());
  e.wait();  // must not block after firing
}

TEST(Interconnect, PeerGroupsOfFour) {
  vgpu::Interconnect net(8, 4);
  EXPECT_TRUE(net.is_peer(0, 3));
  EXPECT_FALSE(net.is_peer(3, 4));
  EXPECT_GT(net.link(0, 1).bandwidth, net.link(0, 5).bandwidth);
  EXPECT_LT(net.link(0, 1).latency, net.link(0, 5).latency);
}

TEST(Interconnect, TransferCostLatencyPlusBandwidth) {
  vgpu::Interconnect net(2, 4);
  const auto link = net.link(0, 1);
  const double t = net.transfer_seconds(0, 1, 1 << 20);
  EXPECT_NEAR(t, link.latency + (1 << 20) / link.bandwidth, 1e-9);
  EXPECT_EQ(net.transfer_seconds(0, 0, 1 << 20), 0.0);
}

TEST(Interconnect, FaultInjectionMultipliers) {
  vgpu::Interconnect net(2, 4);
  const double base = net.transfer_seconds(0, 1, 1 << 24);
  net.set_volume_multiplier(4.0);
  const double quadrupled = net.transfer_seconds(0, 1, 1 << 24);
  EXPECT_GT(quadrupled, 3.5 * base);
  net.set_volume_multiplier(1.0);
  net.set_latency_multiplier(10.0);
  // Latency x10 barely moves a large transfer (the paper's finding).
  EXPECT_LT(net.transfer_seconds(0, 1, 1 << 24), 1.1 * base);
}

TEST(CostModel, SyncOverheadMatchesPaperRegime) {
  // Paper (§V-B): {66.8, 124, 142, 188} us per iteration for 1-4 GPUs
  // including a couple of kernel launches. The residual l(n) must show
  // a jump at 2 GPUs and grow monotonically.
  const double l1 = vgpu::sync_overhead_seconds(1);
  const double l2 = vgpu::sync_overhead_seconds(2);
  const double l3 = vgpu::sync_overhead_seconds(3);
  EXPECT_NEAR(l1, 60e-6, 10e-6);
  EXPECT_GT(l2 - l1, 30e-6);  // the inter-GPU jump
  EXPECT_GT(l3, l2);
}

TEST(CostModel, KernelCostScalesWithWork) {
  vgpu::Device dev(0, vgpu::GpuModel::k40());
  dev.add_kernel_cost(3'200'000'000ull, 0, 1);
  const auto c = dev.harvest_iteration();
  // 3.2e9 edges at 3.2e9 edges/s ~ 1 s (+ small ramp term).
  EXPECT_NEAR(c.compute_s, 1.0, 0.15);
  EXPECT_EQ(c.edges, 3'200'000'000ull);
  EXPECT_EQ(c.launches, 1u);
}

TEST(CostModel, TinyKernelCostsOnlyLaunch) {
  // §V-B regime: a 1-edge kernel must cost ~the launch overhead, not
  // a utilization penalty.
  vgpu::Device dev(0, vgpu::GpuModel::k40());
  dev.add_kernel_cost(1, 1, 1);
  const auto c = dev.harvest_iteration();
  EXPECT_LT(c.compute_s, 10e-6);
}

TEST(CostModel, WorkloadScaleMultipliesComputeNotLaunch) {
  vgpu::Device dev(0, vgpu::GpuModel::k40());
  dev.set_workload_scale(512.0);
  dev.add_kernel_cost(1'000'000, 0, 1);
  const auto scaled = dev.harvest_iteration();
  dev.set_workload_scale(1.0);
  dev.add_kernel_cost(512'000'000, 0, 1);
  const auto native = dev.harvest_iteration();
  EXPECT_NEAR(scaled.compute_s, native.compute_s, native.compute_s * 0.01);
}

TEST(CostModel, IdWidthScaling) {
  vgpu::IdWidthConfig id32{4, 4};
  vgpu::IdWidthConfig id64{8, 8};
  vgpu::IdWidthConfig mixed{4, 8};
  EXPECT_DOUBLE_EQ(id32.traffic_scale(), 1.0);
  EXPECT_DOUBLE_EQ(id64.traffic_scale(), 2.0);
  EXPECT_DOUBLE_EQ(mixed.traffic_scale(), 1.5);
}

TEST(CostModel, RunStatsGteps) {
  vgpu::RunStats stats;
  stats.modeled_compute_s = 0.5;
  stats.modeled_comm_s = 0.3;
  stats.modeled_overhead_s = 0.2;
  EXPECT_DOUBLE_EQ(stats.modeled_total_s(), 1.0);
  EXPECT_DOUBLE_EQ(stats.gteps(2e9), 2.0);
}

TEST(Machine, PresetsAndModels) {
  auto m = vgpu::Machine::create("p100", 4);
  EXPECT_EQ(m.num_devices(), 4);
  EXPECT_EQ(m.model().name, "P100");
  EXPECT_GT(m.model().edge_rate, vgpu::GpuModel::k40().edge_rate);
  EXPECT_THROW(vgpu::Machine::create("h100", 2), Error);
}

TEST(Machine, DeviceMemoryCapacityMatchesModel) {
  auto m = vgpu::Machine::create("k40", 1);
  EXPECT_EQ(m.device(0).memory().capacity_bytes(), 12ull << 30);
}

// ---------------------------------------------------------------------
// Accounting/validation regression tests (ISSUE 4 bugfix sweep).
// ---------------------------------------------------------------------

TEST(MemoryManager, HugeRequestFailsWithoutOverflow) {
  vgpu::MemoryManager mem(1024);
  void* a = mem.allocate(512, "half");
  // current_ + bytes would wrap std::size_t; the capacity check must
  // still classify this as out-of-memory, not wave it through.
  const std::size_t huge = std::numeric_limits<std::size_t>::max() - 100;
  EXPECT_THROW(mem.allocate(huge, "wrap"), Error);
  EXPECT_THROW(mem.charge(huge, "wrap"), Error);
  try {
    mem.charge(huge, "wrap");
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kOutOfMemory);
  }
  EXPECT_EQ(mem.current_bytes(), 512u);
  mem.deallocate(a, 512);
}

// AddressSanitizer's operator new reports an oversized request and
// aborts the process instead of throwing std::bad_alloc, so this check
// can only run in builds without it.
#ifndef __SANITIZE_ADDRESS__
TEST(MemoryManager, HostAllocationFailureRollsBackAccounting) {
  // Capacity admits the request, but the host has no exbibyte to give:
  // operator new throws and the accounting must roll back.
  vgpu::MemoryManager mem(std::numeric_limits<std::size_t>::max());
  EXPECT_THROW(mem.allocate(std::size_t{1} << 60, "absurd"),
               std::bad_alloc);
  EXPECT_EQ(mem.current_bytes(), 0u);
  EXPECT_EQ(mem.allocation_count(), 0u);
  // The manager stays usable afterwards.
  void* p = mem.allocate(64, "ok");
  EXPECT_EQ(mem.current_bytes(), 64u);
  mem.deallocate(p, 64);
}
#endif  // __SANITIZE_ADDRESS__

TEST(MemoryManager, UnderflowClampsAndCounts) {
  vgpu::MemoryManager mem(1 << 20);
  mem.charge(100, "c");
  mem.uncharge(200);  // more than was charged
  EXPECT_EQ(mem.current_bytes(), 0u);
  EXPECT_EQ(mem.underflow_count(), 1u);
  void* p = mem.allocate(50, "a");
  mem.deallocate(p, 80);  // mismatched size
  EXPECT_EQ(mem.current_bytes(), 0u);
  EXPECT_EQ(mem.underflow_count(), 2u);
  mem.reset_stats();
  EXPECT_EQ(mem.underflow_count(), 0u);
}

TEST(Interconnect, RejectsInvalidLinkParams) {
  vgpu::LinkParams bad_bw;
  bad_bw.bandwidth = 0;
  EXPECT_THROW(vgpu::Interconnect(4, 4, bad_bw), Error);
  bad_bw.bandwidth = -5e9;
  EXPECT_THROW(vgpu::Interconnect(4, 4, bad_bw), Error);
  bad_bw.bandwidth = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(vgpu::Interconnect(4, 4, bad_bw), Error);

  vgpu::LinkParams bad_lat;
  bad_lat.latency = -1e-6;
  EXPECT_THROW(
      vgpu::Interconnect(4, 4, vgpu::LinkParams::pcie_peer(), bad_lat),
      Error);
}

// The scale knobs are retuned from control threads while stream
// workers record kernel costs; both must go through Device's mutex.
// (Run under TSan by scripts/check.sh.)
TEST(CostModel, ConcurrentScaleUpdatesDoNotRace) {
  auto m = vgpu::Machine::create("k40", 1);
  auto& device = m.device(0);
  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      device.set_workload_scale(1.0 + 0.001 * (i % 7));
      device.set_id_scale(1.0 + 0.5 * (i % 2));
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        device.add_kernel_cost(100, 10);
        device.add_comm_cost(1e-6, 400, 100);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  tuner.join();
  const auto counters = device.harvest_iteration();
  EXPECT_EQ(counters.edges, 100u * 2000u * 4u);
  EXPECT_GT(counters.compute_s, 0.0);
}

}  // namespace
}  // namespace mgg
