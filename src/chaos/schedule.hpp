// Chaos schedules: adversarial multi-failure injection plans against the
// runtime coordinators (1-D chain and 2-D grid).
//
// A ChaosSchedule is a named list of FailureInjections plus the seed that
// generated it (0 for hand-scripted plans), with a textual round-trip form
// -- the same grammar `runtime_demo --kill` and `dckpt chaos --schedule`
// speak, so every campaign run is reproducible from the command line:
//   step:node                  node loss (legacy form, unchanged)
//   step:corrupt:holder:owner  silently corrupt owner's committed image at
//                              rest on holder's store
//   step:torn:node             node's next refill delivery arrives torn
//   step:failxfer:node         node's next refill delivery fails outright
//   step:sdc:node              latent silent corruption of node's live
//                              memory (captured by later checkpoints; only
//                              valid when verification is enabled)
//   step:alarm:node            fault-predictor alarm: node is predicted to
//                              fail this step (proactive checkpoint fires
//                              before the step's losses)
//   step:alarm:node:window     same, predicting a loss anywhere within
//                              [step, step + window]
//   step:torndelta:node:depth  tear delta layer `depth` (1-based) of node's
//                              differential chain on its first replica
//                              holder (only valid when dcp is enabled)
//
// Three sources of schedules:
//   * scripted_schedules() -- the paper's named danger cases: failures
//     during the checkpoint exchange, double hits inside the
//     re-replication risk window, simultaneous losses across and within
//     groups, and back-to-back hits straddling the spare-allocation delay.
//     Takes the oracle's ShadowConfig, so it covers any runtime whose
//     protocol shape converts to one (both coordinators do).
//   * scripted_grid_schedules() -- the grid-specific danger families on
//     top of the generic set: rack-aligned buddy-group wipes (orthogonal
//     to the halo geometry), simultaneous losses along grid rows that span
//     several buddy groups, column wipes that take one member from many
//     racks, and vertical halo-neighbour double hits.
//   * random_schedule() -- seed-deterministic adversarial draws biased
//     toward the same timing windows (uniform placement almost never lands
//     inside a risk window by chance).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/shadow.hpp"
#include "model/spares.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/grid.hpp"

namespace dckpt::chaos {

struct ChaosSchedule {
  std::string name;  ///< scenario family label ("risk-window-buddy", ...)
  std::vector<runtime::FailureInjection> failures;
  std::uint64_t seed = 0;  ///< generator seed; 0 = hand-scripted

  /// Round-trip textual form, comma-separated ("" when empty). Node losses
  /// keep the legacy "step:node" form; the other kinds use
  /// "step:corrupt:holder:owner" / "step:torn:node" / "step:failxfer:node".
  std::string spec() const;

  /// Parses the textual form; every number is a whole unsigned decimal
  /// (util::parse_number). Throws std::invalid_argument naming the bad
  /// entry on malformed input (missing colon, non-numeric, unknown kind,
  /// trailing junk). CLI tools read it through CliParser::get_parsed, which
  /// turns that into the usual exit-2 `invalid value` report.
  static ChaosSchedule parse(const std::string& spec);
};

/// The scripted danger cases for `config` (every schedule valid for it):
/// single hits, exchange-window hits (when staging_steps > 0), same-group
/// double hits at the same step and inside the re-replication window,
/// cross-group simultaneous losses, repeated hits on one node, a
/// whole-group wipe, and the corruption/transfer-fault families
/// (corrupt-preferred-then-kill, corrupt-survivor-failover,
/// corrupt-both-replicas, latent-corruption-commit-heals,
/// torn-refill-in-risk-window, refill-retries-exhausted,
/// corrupt-refill-source). Survivable, failed-over and fatal plans are all
/// included -- the campaign's shadow oracle decides which is which.
std::vector<ChaosSchedule> scripted_schedules(const ShadowConfig& config);

/// The scripted set for the 2-D grid runtime: everything
/// scripted_schedules() produces for the grid's protocol shape, plus the
/// geometry-aware families ("rack-wipe", "grid-row-simultaneous",
/// "grid-column-simultaneous", "halo-neighbours-vertical",
/// "row-span-two-racks", "rack-straddles-rows" when the rack width does
/// not divide the row length). Buddy groups follow consecutive row-major
/// ids -- racks -- so these plans probe exactly the correlated,
/// topology-aligned failures the domain decomposition never sees.
std::vector<ChaosSchedule> scripted_grid_schedules(
    const runtime::GridConfig& config);

/// Seed-deterministic adversarial draw: picks 1..max_failures injections
/// using a mix of strategies (uniform, buddy hit inside the risk window,
/// simultaneous same/cross group, exchange window, repeat offender). The
/// same (config, seed, max_failures) triple always yields the same plan.
ChaosSchedule random_schedule(const ShadowConfig& config, std::uint64_t seed,
                              std::uint64_t max_failures = 4);

/// Maps the spare-pool model's expected replacement wait (Erlang-C, from
/// model/spares) plus detection time onto whole runtime steps of
/// `step_seconds` each -- the bridge between `model::SparePoolSpec` and
/// `RuntimeConfig::rereplication_delay_steps`. Always at least 1 step (a
/// pool never reacts faster than the step that detects the loss).
std::uint64_t spare_pool_delay_steps(const model::SparePoolSpec& spec,
                                     double platform_mtbf,
                                     double step_seconds);

}  // namespace dckpt::chaos
