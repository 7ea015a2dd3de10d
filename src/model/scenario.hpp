// Evaluation scenarios (paper Table I) and the hardware reasoning behind
// them, so users can derive their own parameter sets from machine specs.
//
//   Scenario   D     delta   phi        R     alpha   n
//   Base       0     2 s     [0, 4]     4 s   10      324 x 32
//   Exa        60 s  30 s    [0, 60]    60 s  10      10^6
//
// Base reproduces Ni et al.'s setting: 512 MB per node, SSD-speed local
// checkpoint (~2 s), network upload ~4 s. Exa is the IESP "slim" exascale
// projection: 10^6 nodes, 64 GB/core-class memory per node behind a
// 1 TB/s/node network and 500 Gb/s local storage bus.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "model/parameters.hpp"

namespace dckpt::model {

struct Scenario {
  std::string name;
  Parameters params;       ///< phi defaults to 0; sweep with with_overhead()
  double phi_max = 0.0;    ///< largest phi considered (= R in the paper)
  double default_mtbf = 0.0;  ///< M used where figures fix it (7 h)

  /// Parameters at a given overhead ratio phi/R in [0, 1].
  Parameters at_phi_ratio(double ratio) const;
};

/// Table I "Base".
Scenario base_scenario();

/// Table I "Exa".
Scenario exa_scenario();

/// All paper scenarios.
std::vector<Scenario> paper_scenarios();

/// The scenario a --scenario value names: "base" or "exa". Throws
/// std::invalid_argument on any other name.
Scenario scenario_by_name(std::string_view name);

/// Derivation helper: buddy-checkpoint parameters from machine capabilities.
struct HardwareSpec {
  double checkpoint_bytes = 512.0 * 1024 * 1024;  ///< image size per node
  double local_bandwidth = 256.0 * 1024 * 1024;   ///< bytes/s to local store
  double network_bandwidth = 128.0 * 1024 * 1024; ///< bytes/s node-to-node
  double downtime = 0.0;                          ///< D
  double alpha = 10.0;
  std::uint64_t nodes = 1024;
  double node_mtbf_years = 10.0;  ///< individual node MTBF

  /// delta = bytes/local_bw, R = bytes/net_bw, M = node_mtbf / n.
  Parameters derive() const;
};

}  // namespace dckpt::model
