#include "chaos/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ckpt/ring.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace dckpt::chaos {

namespace {

[[noreturn]] void bad_entry(std::string_view entry) {
  throw std::invalid_argument(
      "ChaosSchedule: bad entry '" + std::string(entry) +
      "' (want step:node, step:corrupt:holder:owner, step:torn:node, "
      "step:failxfer:node, step:sdc:node, step:alarm:node[:window] or "
      "step:torndelta:node:depth)");
}

std::uint64_t parse_field(std::string_view text, std::string_view entry) {
  const auto parsed = util::parse_number<std::uint64_t>(text);
  if (!parsed) bad_entry(entry);
  return parsed.value;
}

}  // namespace

std::string ChaosSchedule::spec() const {
  std::string text;
  for (const auto& failure : failures) {
    if (!text.empty()) text += ',';
    text += std::to_string(failure.step);
    switch (failure.kind) {
      case runtime::InjectionKind::NodeLoss:
        text += ':' + std::to_string(failure.node);
        break;
      case runtime::InjectionKind::CorruptReplica:
        text += ":corrupt:" + std::to_string(failure.node) + ':' +
                std::to_string(failure.owner);
        break;
      case runtime::InjectionKind::TornTransfer:
        text += ":torn:" + std::to_string(failure.node);
        break;
      case runtime::InjectionKind::FailTransfer:
        text += ":failxfer:" + std::to_string(failure.node);
        break;
      case runtime::InjectionKind::SilentError:
        text += ":sdc:" + std::to_string(failure.node);
        break;
      case runtime::InjectionKind::Alarm:
        text += ":alarm:" + std::to_string(failure.node);
        // The 3-field form round-trips a same-step prediction.
        if (failure.window > 0) text += ':' + std::to_string(failure.window);
        break;
      case runtime::InjectionKind::TornDelta:
        text += ":torndelta:" + std::to_string(failure.node) + ':' +
                std::to_string(failure.window);
        break;
    }
  }
  return text;
}

ChaosSchedule ChaosSchedule::parse(const std::string& spec) {
  if (spec.empty()) {
    throw std::invalid_argument("ChaosSchedule: empty spec");
  }
  ChaosSchedule schedule;
  schedule.name = "scripted";
  for (const std::string_view entry : util::split(spec, ',')) {
    const auto fields = util::split(entry, ':');
    const auto number = [&](std::size_t i) {
      return parse_field(fields[i], entry);
    };
    runtime::FailureInjection injection;
    if (fields.size() == 2) {
      injection.step = number(0);
      injection.node = number(1);
    } else if (fields.size() == 3 &&
               (fields[1] == "torn" || fields[1] == "failxfer" ||
                fields[1] == "sdc" || fields[1] == "alarm")) {
      injection.step = number(0);
      injection.kind = fields[1] == "torn"
                           ? runtime::InjectionKind::TornTransfer
                       : fields[1] == "failxfer"
                           ? runtime::InjectionKind::FailTransfer
                       : fields[1] == "sdc"
                           ? runtime::InjectionKind::SilentError
                           : runtime::InjectionKind::Alarm;
      injection.node = number(2);
    } else if (fields.size() == 4 &&
               (fields[1] == "alarm" || fields[1] == "torndelta")) {
      injection.step = number(0);
      injection.kind = fields[1] == "alarm" ? runtime::InjectionKind::Alarm
                                            : runtime::InjectionKind::TornDelta;
      injection.node = number(2);
      injection.window = number(3);
    } else if (fields.size() == 4 && fields[1] == "corrupt") {
      injection.step = number(0);
      injection.kind = runtime::InjectionKind::CorruptReplica;
      injection.node = number(2);
      injection.owner = number(3);
    } else {
      bad_entry(entry);
    }
    schedule.failures.push_back(injection);
  }
  return schedule;
}

std::vector<ChaosSchedule> scripted_schedules(const ShadowConfig& config) {
  const std::uint64_t interval = config.checkpoint_interval;
  const std::uint64_t total = config.total_steps;
  const std::uint64_t gs = config.topology == ckpt::Topology::Pairs ? 2 : 3;
  const auto step = [&](std::uint64_t s) {  // keep every plan executable
    return std::min(s, total - 1);
  };

  std::vector<ChaosSchedule> plans;
  const std::uint64_t c = step(2 * interval + config.staging_steps + 1);
  plans.push_back({"single-mid-run", {{c, 0}}, 0});
  plans.push_back({"before-first-commit", {{step(interval / 2), 0}}, 0});
  plans.push_back({"last-step", {{total - 1, 1}}, 0});
  if (config.staging_steps > 0) {
    // The exchange snapshotted at `interval` is still in flight.
    plans.push_back({"during-exchange", {{step(interval + 1), 1}}, 0});
  }
  plans.push_back({"same-step-group-double", {{c, 0}, {c, 1}}, 0});
  // Buddy hit one step after the rollback -- inside the re-replication
  // window whenever the configured delay exceeds the replayed distance.
  plans.push_back({"risk-window-buddy", {{c, 0}, {step(c + 1), 1}}, 0});
  if (config.rereplication_delay_steps > 0) {
    // Buddy hit well past the refill: the window must be closed again.
    plans.push_back(
        {"after-risk-window",
         {{c, 0},
          {step(c + interval + config.rereplication_delay_steps + 1), 1}},
         0});
  }
  if (config.nodes > gs) {
    plans.push_back({"cross-group-simultaneous", {{c, 0}, {c, gs}}, 0});
    plans.push_back(
        {"cross-group-staggered", {{c, 0}, {step(c + 1), gs + 1}}, 0});
  }
  plans.push_back({"repeat-offender", {{c, 0}, {step(c + interval), 0}}, 0});
  {
    ChaosSchedule wipe{"group-wipe", {}, 0};
    for (std::uint64_t member = 0; member < gs; ++member) {
      wipe.failures.push_back({c, member});
    }
    plans.push_back(std::move(wipe));
  }
  if (gs == 3) {
    plans.push_back({"triple-cascade",
                     {{c, 0}, {step(c + 1), 1}, {step(c + 2), 2}},
                     0});
  }

  // Corruption / transfer-fault families. groups.holders(node) is the
  // replica ladder: the victim's restore tries the local copy then the
  // preferred buddy (pairs) or the preferred then the secondary buddy
  // (triples).
  using runtime::InjectionKind;
  const ckpt::GroupAssignment groups(config.nodes, config.topology);
  const std::uint64_t pre = c > 0 ? c - 1 : 0;  // corruption before the kill
  // Corrupt the victim's image on its preferred buddy, then kill it: pairs
  // lose both replicas (local died with the node) -- fatal, degraded
  // continuation; triples fail over to the secondary and finish bit-exact.
  plans.push_back({"corrupt-preferred-then-kill",
                   {{pre, groups.preferred_buddy(0),
                     InjectionKind::CorruptReplica, 0},
                    {c, 0}},
                   0});
  if (config.nodes > gs) {
    // Corrupt the first replica a *survivor* consults, then kill a node in
    // another group: the survivor's rollback must skip the corrupt copy and
    // fail over to the next ladder rung. Survivable on both topologies.
    plans.push_back({"corrupt-survivor-failover",
                     {{pre, groups.holders(0)[0],
                       InjectionKind::CorruptReplica, 0},
                      {c, gs}},
                     0});
  }
  {
    // Every replica of the victim's image corrupted before the kill: the
    // ladder exhausts on either topology -- always fatal, always detected.
    ChaosSchedule both{"corrupt-both-replicas", {}, 0};
    for (const std::uint64_t holder : groups.holders(0)) {
      both.failures.push_back({pre, holder, InjectionKind::CorruptReplica, 0});
    }
    both.failures.push_back({c, 0});
    plans.push_back(std::move(both));
  }
  // Corruption planted, but the next committed exchange overwrites the
  // damaged slot before anything reads it: the later kill must recover
  // cleanly with zero detections -- latent corruption heals at commit.
  plans.push_back(
      {"latent-corruption-commit-heals",
       {{c, groups.preferred_buddy(0), InjectionKind::CorruptReplica, 0},
        {step(c + interval + config.staging_steps + 1), 0}},
       0});
  // The victim's refill delivery arrives torn: the receiver's hash check
  // rejects it and the retry (backoff) extends the risk window.
  plans.push_back({"torn-refill-in-risk-window",
                   {{c, 0, InjectionKind::TornTransfer, 0}, {c, 0}},
                   0});
  {
    // Every retry the policy allows fails outright: the refill is
    // abandoned and the store stays empty until the next commit.
    ChaosSchedule exhausted{"refill-retries-exhausted", {}, 0};
    for (std::uint64_t i = 0; i < config.transfer_retry.max_attempts; ++i) {
      exhausted.failures.push_back({c, 0, InjectionKind::FailTransfer, 0});
    }
    exhausted.failures.push_back({c, 0});
    plans.push_back(std::move(exhausted));
  }
  {
    // Kill a node, then corrupt one of its refill *sources* during the risk
    // window: the delivery must skip the corrupt source and re-file what it
    // can (partial refill -- some owners stay unavailable). The damaged
    // image is node 0's own (pairs) or the first one node 0 held for a peer
    // (triples), on its holder that survives the kill.
    const std::uint64_t owner = config.topology == ckpt::Topology::Pairs
                                    ? 0
                                    : groups.stored_for(0).front();
    const auto holders = groups.holders(owner);
    const std::uint64_t survivor = holders[0] == 0 ? holders[1] : holders[0];
    plans.push_back({"corrupt-refill-source",
                     {{c, 0},
                      {step(c + 1), survivor, InjectionKind::CorruptReplica,
                       owner}},
                     0});
  }

  // Silent-error families -- only when the config can detect them
  // (verify_every > 0), so existing configs keep their exact plan list.
  if (config.verify_every > 0) {
    using runtime::InjectionKind;
    const auto sdc = [&](std::uint64_t at, std::uint64_t node) {
      return runtime::FailureInjection{step(at), node,
                                       InjectionKind::SilentError, 0};
    };
    // One latent flip mid-period: the following commits capture it and the
    // next verification must either roll back past the corruption or
    // declare the detected loss fatal -- the ladder depth decides.
    plans.push_back({"sdc-single", {sdc(interval + 1, 0)}, 0});
    // Corruption before any commit exists: only the virtual initial entry
    // can save the run (and only while it is still inside the ladder).
    plans.push_back({"sdc-before-first-commit", {sdc(interval / 2, 0)}, 0});
    // A fail-stop loss lands while the corruption is still latent: the
    // rollback restores the tainted committed set, and the epoch must snap
    // back with it -- detection still happens at the next verification.
    plans.push_back({"sdc-then-kill", {sdc(c, 0), {step(c + 1), 0}}, 0});
    // Two nodes corrupted in one step: one verification, one rollback.
    plans.push_back({"sdc-double-node", {sdc(c, 0), sdc(c, 1)}, 0});
    // Corruption on the last executed step: only the end-of-run audit can
    // catch it -- nothing may escape into the final answer silently.
    plans.push_back({"sdc-last-step", {sdc(total - 1, 0)}, 0});
    // Repeated flips a period apart: epochs accumulate, every retained set
    // between them is tainted at a different level.
    plans.push_back({"sdc-repeat", {sdc(c, 0), sdc(c + interval, 0)}, 0});
  }

  // Fault-prediction families: alarms and the proactive checkpoints they
  // trigger. Valid under every config (no gating -- an alarm needs nothing
  // beyond an existing node and step).
  {
    using runtime::InjectionKind;
    const auto alarm = [&](std::uint64_t at, std::uint64_t node,
                           std::uint64_t window) {
      return runtime::FailureInjection{step(at), node, InjectionKind::Alarm,
                                       0, window};
    };
    // A true prediction: the alarm lands one step before the kill with a
    // window that covers it, so the proactive commit saves every step since
    // the last boundary and the scoreboard records a true prediction.
    plans.push_back({"alarm-predicts-kill", {alarm(pre, 0, 2), {c, 0}}, 0});
    // The just-in-time limit: alarm and loss in the same step. Alarms fire
    // at the top of the loop, before the step's losses, so even a window of
    // 0 commits ahead of the hit.
    plans.push_back({"alarm-same-step-kill", {alarm(c, 0, 0), {c, 0}}, 0});
    // False-alarm storm during a risk window: a kill opens the
    // re-replication window, then alarms hammer a survivor on consecutive
    // steps with no matching loss. Each proactive commit inside the window
    // closes it early -- the storm must not corrupt the refill bookkeeping,
    // and every alarm scores as false (the one real loss as missed).
    plans.push_back({"false-alarm-storm-risk-window",
                     {{c, 0},
                      alarm(c + 1, 1, 0),
                      alarm(c + 2, 1, 0),
                      alarm(c + 3, 1, 0)},
                     0});
    // Missed prediction at the commit boundary: the alarm fires on the
    // step right after a fresh periodic commit (when the exchange is
    // unstaged, skip-if-just-committed suppresses the proactive
    // checkpoint), and the kill arrives past the prediction window -- a
    // miss on the scoreboard either way.
    plans.push_back({"missed-prediction-at-commit-boundary",
                     {alarm(2 * interval, 1, 1),
                      {step(2 * interval + interval / 2 + 2), 1}},
                     0});
  }

  // Differential-chain families -- only when the config commits deltas
  // (dcp_stack_size > 1; a stack of 1 never grows a chain), so existing
  // configs keep their exact plan list. By step c the first full exchange
  // and at least one delta commit have both happened, so every ladder rung
  // carries a live chain.
  if (config.dcp_stack_size > 1) {
    using runtime::InjectionKind;
    // First rung of node 0's restore ladder (where TornDelta lands) and
    // the rung the walk falls back to.
    const auto [first_rung, second_rung] = groups.holders(0);
    const auto torn = [&](std::uint64_t at, std::uint64_t node,
                          std::uint64_t depth) {
      return runtime::FailureInjection{step(at), node,
                                       InjectionKind::TornDelta, 0, depth};
    };
    // Tear the oldest delta layer of the victim's chain on its first
    // ladder rung, then kill it: triples fail over to the secondary's
    // intact chain; pairs lose the torn local copy with the node and
    // recover cleanly from the buddy -- either way the replayed tip must
    // match the committed hash bit-exact.
    plans.push_back({"dcp-torn-then-kill", {torn(c, 0, 1), {c, 0}}, 0});
    if (config.nodes > gs) {
      // A survivor's own first rung is torn when a loss elsewhere forces
      // the coordinated rollback: the walk must detect the torn layer
      // mid-chain, count the failover, and replay the next rung's chain.
      plans.push_back(
          {"dcp-torn-survivor-failover", {torn(pre, 0, 1), {c, gs}}, 0});
    }
    // Corrupt the diff *base* under live deltas: the chain's stored base
    // hash must reject the rung before any replay touches the damage.
    plans.push_back({"dcp-corrupt-base-then-kill",
                     {{c, first_rung, InjectionKind::CorruptReplica, 0},
                      {c, 0}},
                     0});
    // Every rung poisoned a different way -- torn chain on the first,
    // corrupt base on the second: the ladder exhausts, always fatal,
    // always detected.
    plans.push_back({"dcp-chain-exhausted",
                     {torn(c, 0, 1),
                      {c, second_rung, InjectionKind::CorruptReplica, 0},
                      {c, 0}},
                     0});
    // Second group member hit right after a chain replay, while the
    // victim's refill is still pending: the risk-window logic must hold
    // with chains exactly as with full images, and the pending refill
    // forces the next commit back to a full exchange.
    plans.push_back(
        {"dcp-replay-in-risk-window", {{c, 0}, {step(c + 1), 1}}, 0});
    // Torn layer planted, but the next full exchange clears every chain
    // before anything replays it: the later kill must recover cleanly
    // with zero torn-chain detections -- latent tears heal at the full.
    plans.push_back(
        {"dcp-torn-heals-at-full",
         {torn(c, 0, 1),
          {step(c + config.dcp_stack_size * interval + 1), 0}},
         0});
  }

  for (const auto& plan : plans) {
    runtime::validate_injections(plan.failures, config);
  }
  return plans;
}

std::vector<ChaosSchedule> scripted_grid_schedules(
    const runtime::GridConfig& config) {
  const ShadowConfig shape(config);
  std::vector<ChaosSchedule> plans = scripted_schedules(shape);

  const std::uint64_t rows = config.grid_rows;
  const std::uint64_t cols = config.grid_cols;
  const std::uint64_t gs =
      config.topology == ckpt::Topology::Pairs ? 2 : 3;
  const std::uint64_t total = config.total_steps;
  const auto step = [&](std::uint64_t s) {  // keep every plan executable
    return std::min(s, total - 1);
  };
  const std::uint64_t c = step(2 * config.checkpoint_interval + 1);
  const auto node_at = [&](std::uint64_t r, std::uint64_t col) {
    return r * cols + col;
  };

  // Rack-aligned wipe of the group holding the grid's centre node: every
  // replica of every member lives inside the wiped rack, so the plan is
  // fatal no matter where the rack happens to sit in the domain -- buddy
  // assignment follows racks, not the halo geometry.
  {
    const std::uint64_t centre = node_at(rows / 2, cols / 2);
    const std::uint64_t rack = centre / gs;
    ChaosSchedule wipe{"rack-wipe", {}, 0};
    for (std::uint64_t member = 0; member < gs; ++member) {
      wipe.failures.push_back({c, rack * gs + member});
    }
    plans.push_back(std::move(wipe));
  }
  // A rack whose members straddle a grid-row boundary (exists whenever the
  // group size does not divide the row length): wiping it kills workers
  // that never exchange a halo, yet is just as fatal.
  if (cols % gs != 0) {
    for (std::uint64_t rack = 0; rack < shape.nodes / gs; ++rack) {
      if ((rack * gs) / cols != (rack * gs + gs - 1) / cols) {
        ChaosSchedule wipe{"rack-straddles-rows", {}, 0};
        for (std::uint64_t member = 0; member < gs; ++member) {
          wipe.failures.push_back({c, rack * gs + member});
        }
        plans.push_back(std::move(wipe));
        break;
      }
    }
  }
  // Simultaneous loss of a full grid row: spans cols/gs racks, so whenever
  // a whole rack fits inside the row the plan is fatal -- the correlated,
  // topology-aligned pattern of a real rack/PDU event.
  {
    ChaosSchedule row{"grid-row-simultaneous", {}, 0};
    for (std::uint64_t col = 0; col < cols; ++col) {
      row.failures.push_back({c, node_at(rows / 2, col)});
    }
    plans.push_back(std::move(row));
  }
  // Simultaneous loss of a full grid column: consecutive victims are a full
  // row length apart, so with cols >= gs every rack loses at most one
  // member and the rollback must recover all of them at once.
  if (rows > 1) {
    ChaosSchedule column{"grid-column-simultaneous", {}, 0};
    for (std::uint64_t r = 0; r < rows; ++r) {
      column.failures.push_back({c, node_at(r, cols / 2)});
    }
    plans.push_back(std::move(column));
    // The same column lost one node per step: every hit rolls back while
    // the previous victims' refills are still pending -- survivable (one
    // member per rack), but it drives the refill clock through repeated
    // rollbacks.
    ChaosSchedule staggered{"grid-column-staggered", {}, 0};
    for (std::uint64_t r = 0; r < rows; ++r) {
      staggered.failures.push_back({step(c + r), node_at(r, cols / 2)});
    }
    plans.push_back(std::move(staggered));
    // Two halo neighbours across a row boundary (ids a full row apart).
    plans.push_back({"halo-neighbours-vertical",
                     {{c, node_at(0, cols / 2)}, {c, node_at(1, cols / 2)}},
                     0});
  }
  // Two same-step losses inside one grid row but in different racks.
  if (cols > gs) {
    plans.push_back(
        {"row-span-two-racks", {{c, node_at(0, 0)}, {c, node_at(0, gs)}}, 0});
  }
  // One rack member lost, its rack-mate one step later: inside the
  // re-replication window whenever the delay exceeds the replay distance.
  {
    const std::uint64_t rack = node_at(rows / 2, cols / 2) / gs;
    plans.push_back({"rack-risk-window",
                     {{c, rack * gs}, {step(c + 1), rack * gs + 1}},
                     0});
  }
  // Corrupt the centre-rack base node's preferred replica, then kill it:
  // the grid analogue of corrupt-preferred-then-kill (fatal for pairs,
  // secondary failover for triples), placed on the rack the halo geometry
  // cares about least.
  {
    const ckpt::GroupAssignment groups(shape.nodes, shape.topology);
    const std::uint64_t base = (node_at(rows / 2, cols / 2) / gs) * gs;
    const std::uint64_t pre = c > 0 ? c - 1 : 0;
    plans.push_back({"rack-corrupt-preferred",
                     {{pre, groups.preferred_buddy(base),
                       runtime::InjectionKind::CorruptReplica, base},
                      {c, base}},
                     0});
  }

  for (const auto& plan : plans) {
    runtime::validate_injections(plan.failures, shape);
  }
  return plans;
}

ChaosSchedule random_schedule(const ShadowConfig& config, std::uint64_t seed,
                              std::uint64_t max_failures) {
  if (max_failures == 0) {
    throw std::invalid_argument("random_schedule: max_failures must be > 0");
  }
  util::Xoshiro256ss rng(seed);
  const std::uint64_t total = config.total_steps;
  const std::uint64_t interval = config.checkpoint_interval;
  const std::uint64_t gs = config.topology == ckpt::Topology::Pairs ? 2 : 3;
  const std::uint64_t groups = config.nodes / gs;
  const std::uint64_t window = std::max<std::uint64_t>(
      config.rereplication_delay_steps, 1);

  const auto any_step = [&] { return 1 + rng.next_below(total - 1); };
  const auto any_node = [&] { return rng.next_below(config.nodes); };
  const auto group_member = [&](std::uint64_t group, std::uint64_t index) {
    return group * gs + index;
  };

  const ckpt::GroupAssignment assignment(config.nodes, config.topology);
  ChaosSchedule schedule;
  schedule.name = "random";
  schedule.seed = seed;
  const std::uint64_t count = 1 + rng.next_below(max_failures);
  // The silent-error and torn-delta motifs only exist when the config can
  // express them; the draw range stays 7 otherwise, so pre-existing
  // (config, seed) pairs reproduce their exact historical plans. Slot 7 is
  // the silent-error motif; when verification is off the slot passes
  // through to the torn-delta motif instead.
  const std::uint64_t motifs = 7 + (config.verify_every > 0 ? 1 : 0) +
                               (config.dcp_stack_size > 1 ? 1 : 0);
  while (schedule.failures.size() < count) {
    std::uint64_t motif = rng.next_below(motifs);
    if (motif == 7 && config.verify_every == 0) motif = 8;
    switch (motif) {
      case 0: {  // uniform single
        schedule.failures.push_back({any_step(), any_node()});
        break;
      }
      case 1: {  // simultaneous hit inside one group
        const std::uint64_t group = rng.next_below(groups);
        const std::uint64_t first = rng.next_below(gs);
        const std::uint64_t second = (first + 1 + rng.next_below(gs - 1)) % gs;
        const std::uint64_t at = any_step();
        schedule.failures.push_back({at, group_member(group, first)});
        schedule.failures.push_back({at, group_member(group, second)});
        break;
      }
      case 2: {  // buddy hit around the re-replication window
        const std::uint64_t group = rng.next_below(groups);
        const std::uint64_t first = rng.next_below(gs);
        const std::uint64_t second = (first + 1 + rng.next_below(gs - 1)) % gs;
        const std::uint64_t at = any_step();
        const std::uint64_t gap = 1 + rng.next_below(window + 2);
        schedule.failures.push_back({at, group_member(group, first)});
        schedule.failures.push_back(
            {std::min(at + gap, total - 1), group_member(group, second)});
        break;
      }
      case 3: {  // just after a checkpoint boundary (exchange window)
        const std::uint64_t boundaries = std::max<std::uint64_t>(
            (total - 1) / interval, 1);
        const std::uint64_t boundary =
            interval * (1 + rng.next_below(boundaries));
        const std::uint64_t offset =
            rng.next_below(std::max<std::uint64_t>(config.staging_steps, 1) +
                           1);
        schedule.failures.push_back(
            {std::min(boundary + offset, total - 1), any_node()});
        break;
      }
      case 4: {  // repeat offender
        const std::uint64_t node = any_node();
        const std::uint64_t at = any_step();
        schedule.failures.push_back({at, node});
        schedule.failures.push_back(
            {std::min(at + 1 + rng.next_below(interval), total - 1), node});
        break;
      }
      case 5: {  // corrupt a replica of the victim, then kill it
        const std::uint64_t victim = any_node();
        const std::uint64_t holder =
            assignment.holders(victim)[rng.next_below(2)];
        const std::uint64_t at = any_step();
        schedule.failures.push_back(
            {at, holder, runtime::InjectionKind::CorruptReplica, victim});
        schedule.failures.push_back(
            {std::min(at + rng.next_below(2), total - 1), victim});
        break;
      }
      case 6: {  // kill with a transfer fault armed against the refill
        const std::uint64_t node = any_node();
        const std::uint64_t at = any_step();
        schedule.failures.push_back(
            {at, node,
             rng.next_below(2) == 0 ? runtime::InjectionKind::TornTransfer
                                    : runtime::InjectionKind::FailTransfer,
             0});
        schedule.failures.push_back({at, node});
        break;
      }
      case 7: {  // silent error, sometimes chased by a fail-stop loss
        const std::uint64_t node = any_node();
        const std::uint64_t at = any_step();
        schedule.failures.push_back(
            {at, node, runtime::InjectionKind::SilentError, 0});
        if (rng.next_below(2) == 0) {
          schedule.failures.push_back(
              {std::min(at + 1 + rng.next_below(interval), total - 1),
               any_node()});
        }
        break;
      }
      default: {  // torn delta layer at a random depth, then kill the owner
        const std::uint64_t node = any_node();
        const std::uint64_t at = any_step();
        const std::uint64_t depth =
            1 + rng.next_below(config.dcp_stack_size - 1);
        schedule.failures.push_back(
            {at, node, runtime::InjectionKind::TornDelta, 0, depth});
        schedule.failures.push_back(
            {std::min(at + rng.next_below(2), total - 1), node});
        break;
      }
    }
  }
  schedule.failures.resize(count);  // motifs may overshoot by one
  runtime::validate_injections(schedule.failures, config);
  return schedule;
}

std::uint64_t spare_pool_delay_steps(const model::SparePoolSpec& spec,
                                     double platform_mtbf,
                                     double step_seconds) {
  if (!(step_seconds > 0.0) || !std::isfinite(step_seconds)) {
    throw std::invalid_argument(
        "spare_pool_delay_steps: step_seconds must be > 0");
  }
  const double wait = model::effective_downtime(spec, platform_mtbf);
  const double steps = std::ceil(wait / step_seconds);
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(steps), 1);
}

}  // namespace dckpt::chaos
