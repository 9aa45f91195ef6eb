#include "engine/calibration.hpp"

#include <stdexcept>

#include "util/timer.hpp"

namespace mmdiag {

std::shared_ptr<const Calibration> build_calibration(
    std::unique_ptr<const Topology> topology, unsigned delta, ParentRule rule,
    bool validate_all, GraphMode mode, DiagnosisModel model,
    ThreadPool* pool) {
  if (!topology) {
    throw std::invalid_argument("build_calibration: null topology");
  }
  if (delta == 0) {
    delta = topology->default_fault_bound();
    if (delta == 0) {
      throw DiagnosisUnsupportedError(
          topology->info().name +
          ": diagnosability is not established for these parameters (see "
          "§5's validity conditions); request an explicit delta");
    }
  }
  if (is_directed_model(model)) {
    if (mode == GraphMode::kImplicit) {
      throw std::invalid_argument(
          "build_calibration: directed (PMC/BGM) bundles read CSR adjacency; "
          "GraphMode::kImplicit is not available for model " +
          to_string(model));
    }
    // No Set_Builder certification: directed drivers deduce from per-arc
    // outcomes. The bundle is the graph plus the bound parameters.
    const Timer timer;
    auto calibration = std::make_shared<Calibration>();
    calibration->spec = topology->spec();
    calibration->topology = std::move(topology);
    calibration->model = model;
    calibration->graph = calibration->topology->build_graph(pool);
    calibration->partition.delta = delta;
    calibration->partition.rule = rule;
    calibration->build_seconds = timer.seconds();
    return calibration;
  }
  const bool implicit = resolve_implicit_mode(mode, topology->info());
  const Timer timer;
  auto calibration = std::make_shared<Calibration>();
  calibration->spec = topology->spec();
  calibration->topology = std::move(topology);
  if (implicit) {
    // No edges are ever materialised: the view computes adjacency on the
    // fly and the certification walk runs straight through it.
    calibration->implicit_view =
        std::make_shared<const ImplicitGraph>(calibration->topology);
    calibration->partition =
        find_certified_partition(*calibration->topology,
                                 *calibration->implicit_view, delta, rule,
                                 validate_all, pool);
  } else {
    calibration->graph = calibration->topology->build_graph(pool);
    calibration->partition =
        find_certified_partition(*calibration->topology, calibration->graph,
                                 delta, rule, validate_all, pool);
  }
  calibration->build_seconds = timer.seconds();
  return calibration;
}

}  // namespace mmdiag
