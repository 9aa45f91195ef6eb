#include "core/certified_partition.hpp"

#include <atomic>
#include <sstream>
#include <vector>

#include "mm/oracle.hpp"
#include "util/thread_pool.hpp"

namespace mmdiag {
namespace {

bool probe_component(SetBuilder& builder, const FaultFreeOracle& oracle,
                     const PartitionPlan& plan, std::uint32_t comp,
                     unsigned delta) {
  const auto result = builder.run_restricted(oracle, plan.seed_of(comp), delta,
                                             plan, comp);
  // Coverage proves the induced component is connected; the contributor
  // certificate proves a fault-free component will be recognised healthy.
  return result.all_healthy && result.members.size() == plan.component_size();
}

// What probing one plan cost: whether every checked component certified,
// and the look-ups the serial loop would have spent on it.
struct PlanVerdict {
  bool ok = true;
  std::uint64_t lookups = 0;
};

// Probes components [0, to_check) of `plan`, one builder per lane in use.
// Components are claimed in ascending order from a shared counter, so each
// lane-round is a wave of consecutive components, and once a component
// fails no later one is claimed. Every component below the first failure
// is still probed, so folding the verdicts in serial order — up to and
// including the first failure — gives exactly the serial loop's verdict
// and look-ups, whatever the lane count or schedule.
PlanVerdict probe_plan(const Graph& graph, ParentRule rule,
                       const PartitionPlan& plan, std::size_t to_check,
                       unsigned delta, ThreadPool* pool,
                       std::vector<std::unique_ptr<SetBuilder>>& builders) {
  // Lanes beyond what the makespan needs only cost builder scratch: 9
  // components on 4 lanes take 3 rounds either way, so 3 builders do. A
  // builder is made on its slot's first claim, so a pool that runs the
  // loop inline (it was busy) builds one.
  const std::size_t lanes = pool != nullptr ? pool->size() : 1;
  const std::size_t rounds = (to_check + lanes - 1) / lanes;
  const std::size_t slots = (to_check + rounds - 1) / rounds;
  if (builders.size() < slots) builders.resize(slots);

  struct Outcome {
    bool certified = false;
    std::uint64_t lookups = 0;
  };
  std::vector<Outcome> outcomes(to_check);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> first_failure{to_check};
  const auto lane = [&](unsigned, std::size_t slot) {
    std::unique_ptr<SetBuilder>& builder = builders[slot];
    const FaultFreeOracle oracle;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= to_check || c > first_failure.load(std::memory_order_relaxed)) {
        return;
      }
      if (!builder) builder = std::make_unique<SetBuilder>(graph, rule);
      const std::uint64_t before = oracle.lookups();
      outcomes[c].certified = probe_component(
          *builder, oracle, plan, static_cast<std::uint32_t>(c), delta);
      outcomes[c].lookups = oracle.lookups() - before;
      if (!outcomes[c].certified) {
        std::size_t seen = first_failure.load(std::memory_order_relaxed);
        while (c < seen && !first_failure.compare_exchange_weak(
                               seen, c, std::memory_order_relaxed)) {
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(slots, lane);
  } else {
    lane(0, 0);
  }

  PlanVerdict verdict;
  for (const Outcome& outcome : outcomes) {
    verdict.lookups += outcome.lookups;
    if (!outcome.certified) {
      verdict.ok = false;
      break;
    }
  }
  return verdict;
}

}  // namespace

CertifiedPartition find_certified_partition(const Topology& topology,
                                            const Graph& graph, unsigned delta,
                                            ParentRule rule, bool validate_all,
                                            ThreadPool* pool) {
  const auto plans = topology.partition_plans();
  std::vector<std::unique_ptr<SetBuilder>> builders;  // grown on demand
  std::uint64_t lookups = 0;
  std::ostringstream rejections;

  for (const auto& plan : plans) {
    if (plan->num_components() < static_cast<std::size_t>(delta) + 1) {
      rejections << "  " << plan->description() << ": only "
                 << plan->num_components() << " components (need "
                 << delta + 1 << ")\n";
      continue;
    }
    // A tree with more than delta internal nodes plus at least one leaf
    // needs at least delta+2 nodes; skip hopeless plans cheaply.
    if (plan->component_size() < static_cast<std::uint64_t>(delta) + 2) {
      rejections << "  " << plan->description() << ": components of "
                 << plan->component_size() << " nodes cannot exceed " << delta
                 << " contributors\n";
      continue;
    }
    const std::size_t to_check = validate_all ? plan->num_components() : 1;
    const PlanVerdict verdict =
        probe_plan(graph, rule, *plan, to_check, delta, pool, builders);
    lookups += verdict.lookups;
    if (verdict.ok) {
      CertifiedPartition cp;
      cp.plan = plan;
      cp.delta = delta;
      cp.rule = rule;
      cp.calibration_lookups = lookups;
      cp.fully_validated = validate_all;
      return cp;
    }
    rejections << "  " << plan->description()
               << ": fault-free component failed certification\n";
  }

  std::ostringstream msg;
  msg << topology.info().name << ": no partition plan certifies fault bound "
      << delta << " under rule " << to_string(rule) << "\n"
      << rejections.str();
  throw DiagnosisUnsupportedError(msg.str());
}

bool component_certifies(const Graph& graph, const PartitionPlan& plan,
                         std::uint32_t comp, unsigned delta, ParentRule rule) {
  SetBuilder builder(graph, rule);
  const FaultFreeOracle oracle;
  return probe_component(builder, oracle, plan, comp, delta);
}

}  // namespace mmdiag
