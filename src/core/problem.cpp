#include "core/problem.hpp"

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mgg::core {

ProblemBase::~ProblemBase() {
  if (machine_ != nullptr) {
    for (int gpu = 0; gpu < static_cast<int>(graph_charges_.size()); ++gpu) {
      machine_->device(gpu).memory().uncharge(graph_charges_[gpu]);
    }
  }
}

std::shared_ptr<const part::PartitionedGraph> ProblemBase::partition(
    const graph::Graph& g, const Config& config) {
  util::WallTimer timer;
  // PartitionedGraph::build runs one task per part on the shared pool,
  // sized exactly as EnactorBase::enact sizes it.
  util::ThreadPool::shared().set_workers(
      util::ThreadPool::resolve_width(config.host_threads));
  const auto partitioner = part::make_partitioner(config.partitioner);
  auto assignment = partitioner->assign(g, config.num_gpus, config.seed);
  auto pg = std::make_shared<part::PartitionedGraph>(
      part::PartitionedGraph::build(g, std::move(assignment),
                                    config.num_gpus, config.duplication));
  MGG_LOG_INFO << "partitioned |V|=" << g.num_vertices
               << " |E|=" << g.num_edges << " across " << config.num_gpus
               << " GPUs (" << config.partitioner << ", "
               << part::to_string(config.duplication) << ") in "
               << timer.milliseconds() << " ms";
  return pg;
}

void ProblemBase::init(const graph::Graph& g, vgpu::Machine& machine,
                       const Config& config) {
  init(partition(g, config), machine, config);
}

void ProblemBase::init(std::shared_ptr<const part::PartitionedGraph> pg,
                       vgpu::Machine& machine, const Config& config) {
  MGG_REQUIRE(!initialized_, "Problem::init called twice");
  MGG_REQUIRE(config.num_gpus >= 1, "need at least one GPU");
  MGG_REQUIRE(config.num_gpus <= machine.num_devices(),
              "machine has fewer GPUs than requested");
  MGG_REQUIRE(config.comm != CommStrategy::kBroadcast ||
                  config.duplication == part::Duplication::kAll,
              "broadcast requires duplicate-all (receivers index by "
              "global vertex ID)");
  MGG_REQUIRE(pg != nullptr, "null partitioned graph");
  MGG_REQUIRE(pg->num_parts() == config.num_gpus,
              "partitioned graph's part count != config.num_gpus");
  MGG_REQUIRE(pg->duplication() == config.duplication,
              "partitioned graph's duplication strategy != config");
  config_ = config;
  machine_ = &machine;
  partitioned_ = std::move(pg);

  // Distribute: charge each device's memory for its CSR slice, exactly
  // what a real GPU would hold in DRAM. Each Problem sharing one
  // partition charges again — every query's working set really does
  // occupy the device in the serving model.
  graph_charges_.assign(config.num_gpus, 0);
  for (int gpu = 0; gpu < config.num_gpus; ++gpu) {
    const std::size_t bytes = partitioned_->sub(gpu).csr.storage_bytes();
    machine_->device(gpu).memory().charge(bytes, "subgraph");
    graph_charges_[gpu] = bytes;
  }

  // Primitive-specific per-GPU data.
  for (int gpu = 0; gpu < config.num_gpus; ++gpu) {
    init_data_slice(gpu);
  }
  initialized_ = true;
}

}  // namespace mgg::core
