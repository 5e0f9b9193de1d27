#include "core/allocation_strategies.h"

#include <utility>

#include "common/error.h"

namespace eta2::core {

RandomStrategy::RandomStrategy(const Eta2Config& config)
    : allocator_(alloc::RandomAllocator::Options{config.max_users_per_task}) {}

void RandomStrategy::allocate(StepContext& ctx) {
  require(ctx.rng != nullptr, "RandomStrategy: rng required");
  ctx.allocation = allocator_.allocate(ctx.problem, *ctx.rng);
}

MaxQualityStrategy::MaxQualityStrategy(const Eta2Config& config)
    : allocator_(alloc::MaxQualityAllocator::Options{
          config.epsilon, config.half_approx_pass}) {}

void MaxQualityStrategy::allocate(StepContext& ctx) {
  alloc::GreedyStats stats;
  ctx.allocation = allocator_.allocate(ctx.problem, &stats);
  ctx.health.greedy_selections += stats.selections;
  ctx.health.greedy_gain_evaluations += stats.gain_evaluations;
  ctx.health.greedy_heap_pops += stats.heap_pops;
}

namespace {
alloc::MinCostAllocator::Options min_cost_options(const Eta2Config& config) {
  alloc::MinCostAllocator::Options options;
  options.epsilon = config.epsilon;
  options.epsilon_bar = config.epsilon_bar;
  options.confidence_alpha = config.confidence_alpha;
  options.cost_per_iteration = config.cost_per_iteration;
  options.max_data_iterations = config.max_data_iterations;
  options.half_approx_pass = config.half_approx_pass;
  return options;
}
}  // namespace

MinCostStrategy::MinCostStrategy(const Eta2Config& config)
    : allocator_(min_cost_options(config)) {}

void MinCostStrategy::allocate(StepContext& ctx) {
  require(ctx.store != nullptr && ctx.mle != nullptr && ctx.collect != nullptr,
          "MinCostStrategy: store, mle and collect required");
  auto mc = allocator_.run(ctx.problem, ctx.task_domains, ctx.domain_count,
                           ctx.store->snapshot(), *ctx.mle, *ctx.collect);
  ctx.allocation = std::move(mc.allocation);
  ctx.observations = std::move(mc.observations);
  ctx.data_iterations = mc.data_iterations;
  // Degraded mode: Algorithm 2 ran out of budget/capacity with tasks still
  // below the quality requirement — report the shortfall on the ledger.
  ctx.health.quality_unmet_tasks = mc.tasks_unmet;
}

ReliabilityGreedyStrategy::ReliabilityGreedyStrategy(const Eta2Config& config)
    : allocator_(alloc::ReliabilityGreedyAllocator::Options{
          config.max_users_per_task}) {}

void ReliabilityGreedyStrategy::allocate(StepContext& ctx) {
  if (ctx.user_reliability.empty()) {
    // No reliability signal (e.g. driven straight by Eta2Server):
    // degenerate to uniform scores — pure coverage rounds.
    const std::vector<double> uniform(ctx.user_count(), 1.0);
    ctx.allocation = allocator_.allocate(ctx.problem, uniform);
    return;
  }
  require(ctx.user_reliability.size() == ctx.user_count(),
          "ReliabilityGreedyStrategy: reliability size mismatch");
  ctx.allocation = allocator_.allocate(ctx.problem, ctx.user_reliability);
}

}  // namespace eta2::core
