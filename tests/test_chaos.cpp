// Chaos campaign engine tests: schedule grammar, shadow-oracle
// classification, the scripted danger cases, randomized campaigns
// (the ISSUE's 200-run zero-violation acceptance bar), command-line
// reproducibility, and thread-count-invariant JSONL export.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos/chaos_api.hpp"
#include "chaos_thread_parity.hpp"
#include "proptest.hpp"
#include "util/cli.hpp"

namespace {

using namespace dckpt;
using dckpt::ckpt::Topology;

chaos::ChaosCampaignConfig small_campaign(Topology topology) {
  chaos::ChaosCampaignConfig config;
  config.runtime.topology = topology;
  config.runtime.nodes = topology == Topology::Pairs ? 8 : 9;
  config.runtime.cells_per_node = 48;
  config.runtime.checkpoint_interval = 12;
  config.runtime.total_steps = 96;
  config.runtime.staging_steps = 4;
  // The refill clock also ticks during replay, so a second hit can only
  // land inside the window when the delay exceeds the replay distance
  // (staging + 2 here). 8 keeps the scripted risk-window cases in-window.
  config.runtime.rereplication_delay_steps = 8;
  config.random_runs = 0;
  config.threads = 2;
  return config;
}

// ----------------------------------------------------------- grammar

TEST(ChaosSchedule, SpecRoundTrips) {
  const auto schedule = chaos::ChaosSchedule::parse("25:0,26:1,90:7");
  EXPECT_EQ(schedule.failures.size(), 3u);
  EXPECT_EQ(schedule.failures[1].step, 26u);
  EXPECT_EQ(schedule.failures[1].node, 1u);
  EXPECT_EQ(schedule.spec(), "25:0,26:1,90:7");
  EXPECT_EQ(chaos::ChaosSchedule::parse(schedule.spec()).spec(),
            schedule.spec());
}

TEST(ChaosSchedule, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(chaos::ChaosSchedule::parse(""), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("banana"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse(":1"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:1,"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:1,,30:2"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("-3:1"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("2.5:1"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:1 "), std::invalid_argument);
}

TEST(ChaosSchedule, CorruptionGrammarRoundTrips) {
  using runtime::InjectionKind;
  const auto schedule =
      chaos::ChaosSchedule::parse("10:corrupt:1:0,12:torn:3,14:failxfer:2,20:5");
  ASSERT_EQ(schedule.failures.size(), 4u);
  EXPECT_EQ(schedule.failures[0].kind, InjectionKind::CorruptReplica);
  EXPECT_EQ(schedule.failures[0].node, 1u);   // holder
  EXPECT_EQ(schedule.failures[0].owner, 0u);
  EXPECT_EQ(schedule.failures[1].kind, InjectionKind::TornTransfer);
  EXPECT_EQ(schedule.failures[1].node, 3u);
  EXPECT_EQ(schedule.failures[2].kind, InjectionKind::FailTransfer);
  EXPECT_EQ(schedule.failures[3].kind, InjectionKind::NodeLoss);
  EXPECT_EQ(schedule.spec(), "10:corrupt:1:0,12:torn:3,14:failxfer:2,20:5");
  EXPECT_EQ(chaos::ChaosSchedule::parse(schedule.spec()).spec(),
            schedule.spec());
}

TEST(ChaosSchedule, CorruptionGrammarRejectsMalformedEntries) {
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:corrupt:1"),
               std::invalid_argument);  // missing owner
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:corrupt:x:0"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:torn"),
               std::invalid_argument);  // missing node
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:torn:1:2"),
               std::invalid_argument);  // trailing field
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:banana:1"),
               std::invalid_argument);  // unknown kind
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:failxfer:"),
               std::invalid_argument);
}

TEST(ChaosSchedule, AlarmGrammarRoundTrips) {
  using runtime::InjectionKind;
  const auto schedule =
      chaos::ChaosSchedule::parse("20:alarm:2,24:alarm:1:3,30:0");
  ASSERT_EQ(schedule.failures.size(), 3u);
  EXPECT_EQ(schedule.failures[0].kind, InjectionKind::Alarm);
  EXPECT_EQ(schedule.failures[0].node, 2u);
  EXPECT_EQ(schedule.failures[0].window, 0u);  // 3-field = same-step
  EXPECT_EQ(schedule.failures[1].kind, InjectionKind::Alarm);
  EXPECT_EQ(schedule.failures[1].node, 1u);
  EXPECT_EQ(schedule.failures[1].window, 3u);
  EXPECT_EQ(schedule.failures[2].kind, InjectionKind::NodeLoss);
  EXPECT_EQ(schedule.spec(), "20:alarm:2,24:alarm:1:3,30:0");
  EXPECT_EQ(chaos::ChaosSchedule::parse(schedule.spec()).spec(),
            schedule.spec());
}

TEST(ChaosSchedule, AlarmGrammarRejectsMalformedEntries) {
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:alarm"),
               std::invalid_argument);  // missing node
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:alarm:x"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:alarm:1:x"),
               std::invalid_argument);  // non-numeric window
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:alarm:1:2:3"),
               std::invalid_argument);  // trailing field
  EXPECT_THROW(chaos::ChaosSchedule::parse("10:alarm:"),
               std::invalid_argument);
}

TEST(ChaosOracle, AlarmScheduleMatchesRuntimeCounterForCounter) {
  // Counter parity on an alarm-heavy schedule mixing a predicted kill, a
  // false-alarm storm on a survivor and an unannounced loss -- the oracle
  // must mirror alarm firing, the proactive commit (and its effect on the
  // rollback resume step) and the prediction scoreboard exactly.
  auto config = small_campaign(Topology::Pairs);
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  using runtime::InjectionKind;
  chaos::ChaosSchedule schedule{
      "alarm-parity",
      {{30, 2, InjectionKind::Alarm, 0, 1},
       {31, 2},
       {33, 1, InjectionKind::Alarm, 0, 0},
       {34, 1, InjectionKind::Alarm, 0, 0},
       {50, 0}},
      0};
  const auto run = chaos::run_one(config, schedule, reference);
  EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated) << run.detail;
  EXPECT_EQ(run.report.alarms_raised, 3u);
  EXPECT_EQ(run.report.true_predictions, 1u);
  EXPECT_EQ(run.report.missed_failures, 1u);
  EXPECT_EQ(run.report.alarms_raised, run.predicted.alarms_raised);
  EXPECT_EQ(run.report.proactive_ckpts, run.predicted.proactive_ckpts);
  EXPECT_EQ(run.report.true_predictions, run.predicted.true_predictions);
  EXPECT_EQ(run.report.missed_failures, run.predicted.missed_failures);
}

TEST(ChaosScheduleDeathTest, CliParserExitsWithConvention) {
  // Same contract as CliParser's numeric getters: message to stderr,
  // exit(2).
  util::CliParser cli("dckpt chaos", "test");
  cli.add_option("schedule", "", "schedule");
  const std::array argv = {"dckpt chaos", "--schedule=banana"};
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EXIT(cli.get_parsed("schedule", chaos::ChaosSchedule::parse),
              testing::ExitedWithCode(2),
              "dckpt chaos: option --schedule: invalid value 'banana'");
}

TEST(ChaosSchedule, ParseRejectsTheHostileCorpusInEveryField) {
  // Every field is a whole unsigned decimal: each hostile token, put in
  // place of T, throws as a step, a node or the last field of an entry.
  const auto rejected = [](const std::string& spec) {
    try {
      chaos::ChaosSchedule::parse(spec);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  const proptest::Property<std::string> property =
      [&](const std::string& token) -> std::optional<std::string> {
    for (const char* form : {"T:0", "5:T", "5:sdc:T", "5:corrupt:1:T"}) {
      std::string spec = form;
      spec.replace(spec.find('T'), 1, token);
      if (!rejected(spec)) return "accepted '" + spec + "'";
    }
    return std::nullopt;
  };
  proptest::forall_tokens(proptest::hostile_number_tokens(), property);
}

TEST(ChaosSchedule, ValidateChecksRanges) {
  const auto config = small_campaign(Topology::Pairs).runtime;
  chaos::ChaosSchedule bad_node{"t", {{10, config.nodes}}, 0};
  EXPECT_THROW(runtime::validate_injections(bad_node.failures, config),
               std::invalid_argument);
  chaos::ChaosSchedule bad_step{"t", {{config.total_steps, 0}}, 0};
  EXPECT_THROW(runtime::validate_injections(bad_step.failures, config),
               std::invalid_argument);
  chaos::ChaosSchedule good{"t", {{config.total_steps - 1, 0}}, 0};
  EXPECT_NO_THROW(runtime::validate_injections(good.failures, config));
}

TEST(ChaosSchedule, ValidateChecksCorruptTargetHoldsTheReplica) {
  using runtime::InjectionKind;
  const auto config = small_campaign(Topology::Pairs).runtime;
  // Node 1 is node 0's pair buddy: a legal holder (so is node 0 itself).
  chaos::ChaosSchedule good{
      "t", {{10, 1, InjectionKind::CorruptReplica, 0}}, 0};
  EXPECT_NO_THROW(runtime::validate_injections(good.failures, config));
  // Node 2 is in another pair: it never holds node 0's image.
  chaos::ChaosSchedule wrong_holder{
      "t", {{10, 2, InjectionKind::CorruptReplica, 0}}, 0};
  EXPECT_THROW(runtime::validate_injections(wrong_holder.failures, config),
               std::invalid_argument);
  chaos::ChaosSchedule bad_owner{
      "t", {{10, 1, InjectionKind::CorruptReplica, config.nodes}}, 0};
  EXPECT_THROW(runtime::validate_injections(bad_owner.failures, config),
               std::invalid_argument);
}

TEST(ChaosSchedule, RandomSchedulesAreSeedDeterministicAndValid) {
  const auto config = small_campaign(Topology::Triples).runtime;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto a = chaos::random_schedule(config, seed);
    const auto b = chaos::random_schedule(config, seed);
    EXPECT_EQ(a.spec(), b.spec());
    EXPECT_EQ(a.seed, seed);
    EXPECT_GE(a.failures.size(), 1u);
    EXPECT_LE(a.failures.size(), 4u);
    EXPECT_NO_THROW(runtime::validate_injections(a.failures, config));
  }
  EXPECT_NE(chaos::random_schedule(config, 1).spec(),
            chaos::random_schedule(config, 2).spec());
}

TEST(ChaosSchedule, RandomScheduleNeedsAFailureBudget) {
  const auto config = small_campaign(Topology::Pairs).runtime;
  EXPECT_THROW(chaos::random_schedule(config, 1, 0), std::invalid_argument);
  EXPECT_EQ(chaos::random_schedule(config, 1, 1).failures.size(), 1u);
}

// ----------------------------------------------- scripted danger cases

std::map<std::string, chaos::ChaosRunResult> run_scripted(
    const chaos::ChaosCampaignConfig& config) {
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  std::map<std::string, chaos::ChaosRunResult> by_name;
  for (const auto& schedule : chaos::scripted_schedules(config.runtime)) {
    by_name[schedule.name] = chaos::run_one(config, schedule, reference);
  }
  return by_name;
}

TEST(ChaosScripted, PairsOutcomesMatchTheRiskModel) {
  const auto runs = run_scripted(small_campaign(Topology::Pairs));
  const auto outcome = [&](const std::string& name) {
    auto it = runs.find(name);
    EXPECT_NE(it, runs.end()) << name;
    return it == runs.end() ? chaos::ChaosOutcome::Violated
                            : it->second.outcome;
  };
  // No run may ever be violated -- that is the engine's whole invariant.
  for (const auto& [name, run] : runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << name << ": " << run.detail;
  }
  EXPECT_EQ(outcome("single-mid-run"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("before-first-commit"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("last-step"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("during-exchange"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("cross-group-simultaneous"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("cross-group-staggered"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("repeat-offender"), chaos::ChaosOutcome::Survived);
  // A second hit inside the group is fatal: simultaneously, inside the
  // re-replication window, or as a whole-group wipe.
  EXPECT_EQ(outcome("same-step-group-double"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("risk-window-buddy"), chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("group-wipe"), chaos::ChaosOutcome::FatalDetected);
  // Corruption families: pairs keep a single remote replica, so corrupting
  // it (or both copies) before the kill is fatal-but-detected; transfer
  // faults only delay the refill and stay survivable.
  EXPECT_EQ(outcome("corrupt-preferred-then-kill"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("corrupt-survivor-failover"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("corrupt-both-replicas"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("latent-corruption-commit-heals"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("torn-refill-in-risk-window"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("refill-retries-exhausted"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("corrupt-refill-source"), chaos::ChaosOutcome::Survived);
  // Past the refill the same double hit must be masked again.
  EXPECT_EQ(outcome("after-risk-window"), chaos::ChaosOutcome::Survived);
}

TEST(ChaosScripted, TriplesDieOnInGroupDoublesLikeTheRotationPredicts) {
  const auto runs = run_scripted(small_campaign(Topology::Triples));
  for (const auto& [name, run] : runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << name << ": " << run.detail;
  }
  const auto outcome = [&](const std::string& name) {
    return runs.at(name).outcome;
  };
  EXPECT_EQ(outcome("single-mid-run"), chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("cross-group-simultaneous"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("repeat-offender"), chaos::ChaosOutcome::Survived);
  // Rotation places the third member's two replicas exactly on the other
  // two members' stores, so *any* in-group double hit (simultaneous or
  // inside the window) destroys both copies of someone's image.
  EXPECT_EQ(outcome("same-step-group-double"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("risk-window-buddy"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("group-wipe"), chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("triple-cascade"), chaos::ChaosOutcome::FatalDetected);
  // Triples carry a second remote replica: a corrupt preferred image fails
  // over to the secondary instead of degrading the run.
  EXPECT_EQ(outcome("corrupt-preferred-then-kill"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("corrupt-survivor-failover"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("corrupt-both-replicas"),
            chaos::ChaosOutcome::FatalDetected);
  EXPECT_EQ(outcome("latent-corruption-commit-heals"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("torn-refill-in-risk-window"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("refill-retries-exhausted"),
            chaos::ChaosOutcome::Survived);
  EXPECT_EQ(outcome("corrupt-refill-source"), chaos::ChaosOutcome::Survived);
  {
    const auto& run = runs.at("corrupt-preferred-then-kill");
    EXPECT_EQ(run.report.failovers, 1u) << run.detail;
  }
  // Once the refill lands, the same double hit is masked again.
  EXPECT_EQ(outcome("after-risk-window"), chaos::ChaosOutcome::Survived);
}

TEST(ChaosScripted, FatalRunsReportCleanly) {
  const auto runs = run_scripted(small_campaign(Topology::Pairs));
  const auto& fatal = runs.at("risk-window-buddy");
  EXPECT_TRUE(fatal.report.fatal);
  EXPECT_NE(fatal.report.fatal_reason.find("no surviving replica"),
            std::string::npos);
  // Typed degraded-mode report: the run completed (no exception), carries
  // the fatal coordinates as fields, and the classifier matched them
  // against the oracle without string matching.
  EXPECT_TRUE(fatal.report.degraded);
  EXPECT_GT(fatal.report.degraded_steps, 0u);
  EXPECT_EQ(fatal.report.fatal_step, fatal.schedule.failures[1].step);
  EXPECT_TRUE(fatal.predicted.fatal);
  EXPECT_EQ(fatal.predicted.fatal_step, fatal.schedule.failures[1].step);
  EXPECT_EQ(fatal.report.fatal_node, fatal.predicted.fatal_node);
}

// --------------------------------------------------- randomized campaigns

TEST(ChaosCampaign, TwoHundredRandomRunsPairsNeverViolate) {
  auto config = small_campaign(Topology::Pairs);
  config.random_runs = 200;
  config.campaign_seed = 20260805;
  const auto summary = chaos::run_campaign(config);
  EXPECT_EQ(summary.runs.size(), 200u + chaos::scripted_schedules(
                                            config.runtime).size());
  EXPECT_EQ(summary.violated, 0u);
  for (const auto& run : summary.runs) {
    EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
        << run.schedule.name << " seed " << run.schedule.seed << ": "
        << run.detail << "\n  " << run.repro;
  }
  // The adversarial bias must actually reach both classes.
  EXPECT_GT(summary.survived, 0u);
  EXPECT_GT(summary.fatal_detected, 0u);
  EXPECT_EQ(summary.survived + summary.fatal_detected, summary.runs.size());
}

TEST(ChaosCampaign, TwoHundredRandomRunsTriplesNeverViolate) {
  auto config = small_campaign(Topology::Triples);
  config.random_runs = 200;
  config.campaign_seed = 20260805;
  const auto summary = chaos::run_campaign(config);
  EXPECT_EQ(summary.violated, 0u);
  EXPECT_GT(summary.survived, 0u);
  EXPECT_GT(summary.fatal_detected, 0u);
}

TEST(ChaosCampaign, SurvivedRunsAreHashVerified) {
  auto config = small_campaign(Topology::Pairs);
  config.random_runs = 40;
  const auto summary = chaos::run_campaign(config);
  for (const auto& run : summary.runs) {
    if (run.outcome != chaos::ChaosOutcome::Survived) continue;
    EXPECT_EQ(run.report.final_hash, summary.reference_hash);
    // Every recovery restored an image whose hash was re-checked against
    // the committed one inside rollback_all; a mismatch would have been
    // fatal, so reaching here with matching counters is the verification.
    EXPECT_EQ(run.report.recoveries, run.predicted.recoveries);
  }
}

// ------------------------------------------------------- reproducibility

TEST(ChaosCampaign, ReproCommandReproducesEveryRun) {
  auto config = small_campaign(Topology::Pairs);
  config.random_runs = 25;
  const auto summary = chaos::run_campaign(config);
  const std::uint64_t reference = summary.reference_hash;
  for (const auto& run : summary.runs) {
    // The repro line carries the schedule spec; replaying it through the
    // parser (the same path `dckpt chaos --schedule=` takes) must yield an
    // identical classification and report.
    EXPECT_NE(run.repro.find("dckpt chaos"), std::string::npos);
    EXPECT_NE(run.repro.find("--seed=" + std::to_string(run.schedule.seed)),
              std::string::npos);
    EXPECT_NE(run.repro.find("--schedule=" + run.schedule.spec()),
              std::string::npos);
    auto replay = chaos::ChaosSchedule::parse(run.schedule.spec());
    const auto again = chaos::run_one(config, replay, reference);
    EXPECT_EQ(again.outcome, run.outcome);
    EXPECT_EQ(again.report.final_hash, run.report.final_hash);
    EXPECT_EQ(again.report.steps_executed, run.report.steps_executed);
    EXPECT_EQ(again.report.risk_steps, run.report.risk_steps);
  }
}

TEST(ChaosCampaign, SummaryIsThreadCountInvariant) {
  // Satellite: byte-identical JSONL no matter how the campaign is spread
  // across workers.
  auto config = small_campaign(Topology::Pairs);
  config.random_runs = 30;
  std::string exports[3];
  const std::size_t threads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    config.threads = threads[i];
    std::ostringstream out;
    chaos::write_campaign_jsonl(out, chaos::run_campaign(config));
    exports[i] = out.str();
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
}

TEST(ChaosCampaign, ExportRoundTripsThroughJsonParser) {
  auto config = small_campaign(Topology::Triples);
  config.random_runs = 5;
  const auto summary = chaos::run_campaign(config);
  std::ostringstream out;
  chaos::write_campaign_jsonl(out, summary);
  const auto lines = dckpt::util::parse_jsonl(out.str());
  ASSERT_EQ(lines.size(), summary.runs.size() + 1);
  EXPECT_EQ(lines[0].at("record").as_string(), "chaos_campaign");
  EXPECT_EQ(lines[0].at("violated").as_number(), 0.0);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].at("record").as_string(), "chaos_run");
    EXPECT_EQ(lines[i].at("index").as_number(),
              static_cast<double>(i - 1));
    const std::string outcome = lines[i].at("outcome").as_string();
    EXPECT_TRUE(outcome == "survived" || outcome == "fatal-detected")
        << outcome;
    if (outcome == "survived") {
      EXPECT_EQ(lines[i].at("report").at("final_hash").as_string(),
                lines[0].at("reference_hash").as_string());
    }
  }
}

// ------------------------------------------- shadow-vs-runtime property

struct DifferentialCase {
  chaos::ChaosCampaignConfig config;
  chaos::ChaosSchedule schedule;
};

TEST(ChaosProperty, ShadowOracleMatchesRuntimeOnRandomConfigs) {
  // The campaign fixes one configuration; this forall also varies the
  // runtime shape (topology, staging, window width, interval) so the
  // oracle's control-flow mirror is exercised across the whole config
  // space, with the counter comparison as the equivalence check.
  proptest::ForallConfig forall_config;
  forall_config.seed = 0xd1ffe7;
  forall_config.iterations = 120;
  proptest::forall<DifferentialCase>(
      forall_config,
      [](proptest::Gen& gen) {
        DifferentialCase c;
        const bool pairs = gen.boolean();
        c.config.runtime.topology =
            pairs ? Topology::Pairs : Topology::Triples;
        c.config.runtime.nodes =
            (pairs ? 2 : 3) * gen.integer(1, 4);
        c.config.runtime.cells_per_node = 32;
        c.config.runtime.checkpoint_interval = gen.integer(3, 16);
        c.config.runtime.total_steps =
            c.config.runtime.checkpoint_interval * gen.integer(2, 6);
        c.config.runtime.staging_steps =
            gen.integer(0, c.config.runtime.checkpoint_interval);
        c.config.runtime.rereplication_delay_steps = gen.integer(0, 8);
        c.config.kernel = "counter";
        c.schedule = chaos::random_schedule(c.config.runtime,
                                            gen.rng()(), 5);
        return c;
      },
      [](const DifferentialCase& c) -> std::optional<std::string> {
        const std::uint64_t reference =
            chaos::reference_run(c.config).final_hash;
        const auto run = chaos::run_one(c.config, c.schedule, reference);
        if (run.outcome == chaos::ChaosOutcome::Violated) {
          return run.detail + " [" + run.repro + "]";
        }
        return std::nullopt;
      },
      // Shrink by dropping one failure at a time from the schedule.
      [](const DifferentialCase& c) {
        std::vector<DifferentialCase> candidates;
        for (std::size_t drop = 0; drop < c.schedule.failures.size();
             ++drop) {
          if (c.schedule.failures.size() == 1) break;
          DifferentialCase smaller = c;
          smaller.schedule.failures.erase(
              smaller.schedule.failures.begin() +
              static_cast<std::ptrdiff_t>(drop));
          candidates.push_back(std::move(smaller));
        }
        return candidates;
      },
      [](const DifferentialCase& c) {
        return chaos::repro_command(c.config, c.schedule);
      });
}

// ---------------------------------------------- silent-error detection

chaos::ChaosCampaignConfig sdc_campaign(Topology topology,
                                        std::uint64_t keep_last) {
  auto config = small_campaign(topology);
  config.runtime.verify_every = 4;
  config.runtime.keep_last = keep_last;
  return config;
}

TEST(ChaosSdc, GrammarRoundTripsAndValidates) {
  using runtime::InjectionKind;
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0,20:5");
  ASSERT_EQ(schedule.failures.size(), 2u);
  EXPECT_EQ(schedule.failures[0].kind, InjectionKind::SilentError);
  EXPECT_EQ(schedule.failures[0].node, 0u);
  EXPECT_EQ(schedule.spec(), "13:sdc:0,20:5");
  EXPECT_EQ(chaos::ChaosSchedule::parse(schedule.spec()).spec(),
            schedule.spec());
  EXPECT_THROW(chaos::ChaosSchedule::parse("13:sdc"), std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("13:sdc:0:1"),
               std::invalid_argument);
}

TEST(ChaosSdc, LatentStrikeSurvivesViaRollbackLadder) {
  // Strike at step 13 (period [12, 24)): commits at 24/36/48 capture the
  // taint, the commit at 12 predates it. The verification at step 48 (k = 4
  // periods of 12) walks the keep-last-3 ladder {36, 24, 12}: two tainted
  // rungs, then the clean one -> rollback depth 2, replay from step 12.
  const auto config = sdc_campaign(Topology::Pairs, 3);
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0");
  const auto run = chaos::run_one(config, schedule,
                                  chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived) << run.detail;
  EXPECT_EQ(run.report.sdc_injected, 1u);
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_EQ(run.report.rollback_depth, 2u);
  EXPECT_GT(run.report.verifications_run, 0u);
  EXPECT_EQ(run.report.replayed_steps, 36u);
}

TEST(ChaosSdc, RetentionTooShallowIsFatalButDetected) {
  // Same strike, keep-last-2: the ladder holds only tainted rungs when the
  // verification fires, so the runtime must accept the loss (degraded),
  // exactly as the oracle predicts -- detected, never silent.
  const auto config = sdc_campaign(Topology::Pairs, 2);
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0");
  const auto run = chaos::run_one(config, schedule,
                                  chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  EXPECT_EQ(run.report.sdc_injected, 1u);
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_TRUE(run.report.fatal);
}

TEST(ChaosSdc, RollbackPicksTheShallowestCleanSet) {
  // The verification at step 48 walks the keep-last-3 ladder {36, 24, 12}
  // newest first and keeps the first set captured before the strike: depth
  // 0 for a strike after the snapshot at 36, 1 after 24, 2 after 12. The
  // replay then runs from that set's step back to 48.
  const auto config = sdc_campaign(Topology::Triples, 3);
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  struct Case {
    const char* spec;
    std::uint64_t depth;
    std::uint64_t replayed;
  };
  for (const Case& c : {Case{"37:sdc:4", 0, 12}, Case{"25:sdc:4", 1, 24},
                        Case{"13:sdc:4", 2, 36}}) {
    const auto run =
        chaos::run_one(config, chaos::ChaosSchedule::parse(c.spec), reference);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived)
        << c.spec << ": " << run.detail;
    EXPECT_EQ(run.report.sdc_detected, 1u) << c.spec;
    EXPECT_EQ(run.report.rollbacks, 1u) << c.spec;
    EXPECT_EQ(run.report.rollback_depth, c.depth) << c.spec;
    EXPECT_EQ(run.report.replayed_steps, c.replayed) << c.spec;
  }
}

// A verification rollback that overlaps an unrefilled node loss: a corrupt
// buddy copy plus a loss of its owner leave node 0 lost (blank restart,
// fatal-detected), and a later silent error sends the verification back
// through the ladder while node 0 is still lost. The same schedules run as
// chain campaigns in scripts/chaos_smoke_campaigns.sh; this is the config
// `dckpt chaos` builds from their flags.
chaos::ChaosCampaignConfig lost_node_campaign(std::uint64_t verify_every,
                                              std::size_t keep_last,
                                              std::uint64_t delay) {
  chaos::ChaosCampaignConfig config;
  config.runtime.topology = Topology::Pairs;
  config.runtime.nodes = 4;
  config.runtime.cells_per_node = 64;
  config.runtime.checkpoint_interval = 4;
  config.runtime.total_steps = 40;
  config.runtime.rereplication_delay_steps = delay;
  config.runtime.verify_every = verify_every;
  config.runtime.keep_last = keep_last;
  config.random_runs = 0;
  config.threads = 2;
  return config;
}

chaos::ChaosRunResult run_lost_node(const chaos::ChaosCampaignConfig& config,
                                    const char* spec) {
  return chaos::run_one(config, chaos::ChaosSchedule::parse(spec),
                        chaos::reference_run(config).final_hash);
}

TEST(ChaosSdc, VerifiedRollbackReadmitsALostNodeAndRefillsAtOnce) {
  // The verification at step 12 cannot install the set of step 8 (node 0's
  // only copy is corrupt), so it drops one rung to the set of step 4. That
  // readmits node 0 after 4 degraded steps (8..11) and empties its store
  // (it was refilled at depth 0 only), which a zero delay refills inside
  // the rollback: one refill after the loss, one after the verification.
  const auto run = run_lost_node(lost_node_campaign(1, 2, 0),
                                 "9:corrupt:1:0,9:0,10:sdc:2");
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  EXPECT_EQ(run.report.fatal_node, 0u);
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_EQ(run.report.rollback_depth, 1u);
  EXPECT_EQ(run.report.degraded_steps, 4u);
  EXPECT_EQ(run.report.rereplications, 2u);
  EXPECT_EQ(run.report.risk_steps, 0u);
}

TEST(ChaosSdc, VerifiedRollbackReschedulesADelayedRefill) {
  // The same schedule with a 5-step refill delay: the loss's refill is
  // still pending when the verification rolls back, which cancels it and
  // schedules node 0's emptied store again. The commit at step 8 of the
  // replay re-creates every replica first, so no refill is ever delivered.
  const auto run = run_lost_node(lost_node_campaign(1, 2, 5),
                                 "9:corrupt:1:0,9:0,10:sdc:2");
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  EXPECT_EQ(run.report.rollback_depth, 1u);
  EXPECT_EQ(run.report.degraded_steps, 4u);
  EXPECT_EQ(run.report.rereplications, 0u);
  EXPECT_EQ(run.report.risk_steps, 8u);
}

TEST(ChaosSdc, RollbackToTheInitialEntryReadmitsALostNode) {
  // A silent error at step 1 taints every retained set, so the
  // verification at step 12 walks two rungs down to the virtual initial
  // entry while node 0 is lost: every node re-initializes, node 0 rejoins,
  // and the run replays from step 0.
  const auto run = run_lost_node(lost_node_campaign(3, 3, 0),
                                 "1:sdc:2,9:corrupt:1:0,9:0");
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  EXPECT_EQ(run.report.sdc_detected, 1u);
  EXPECT_EQ(run.report.rollback_depth, 2u);
  EXPECT_EQ(run.report.degraded_steps, 4u);
  EXPECT_EQ(run.report.rereplications, 1u);
}

TEST(ChaosSdc, ScriptedSdcFamiliesNeverViolate) {
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    const auto config = sdc_campaign(topology, 3);
    const auto runs = run_scripted(config);
    // Verification enabled adds the sdc-* scripted families.
    EXPECT_TRUE(runs.count("sdc-single"));
    EXPECT_TRUE(runs.count("sdc-before-first-commit"));
    for (const auto& [name, run] : runs) {
      EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
          << name << ": " << run.detail << "\n  " << run.repro;
    }
  }
}

TEST(ChaosSdc, RandomizedSdcCampaignNeverViolates) {
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    auto config = sdc_campaign(topology, 3);
    config.random_runs = 100;
    config.campaign_seed = 20260809;
    const auto summary = chaos::run_campaign(config);
    EXPECT_EQ(summary.violated, 0u);
    for (const auto& run : summary.runs) {
      EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
          << run.schedule.name << " seed " << run.schedule.seed << ": "
          << run.detail << "\n  " << run.repro;
    }
  }
}

// ----------------------------------------- mutation-style oracle checks
//
// classify_run with a deliberately tampered prediction: if flipping one
// oracle counter by one does NOT flip the outcome to Violated, that counter
// is not actually guarded by the classifier and a silent-survival bug could
// hide behind it. Each test tampers every entry of chaos::kOracleCounters.

TEST(ChaosSdcMutation, EachCounterIsGuardedOnSurvivableSchedule) {
  const auto config = sdc_campaign(Topology::Pairs, 3);
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0");
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  const auto predicted =
      chaos::predict_outcome(config.shadow(), schedule.failures);
  // Control: the untampered prediction classifies clean.
  const auto clean =
      chaos::classify_run(config, schedule, predicted, reference);
  ASSERT_EQ(clean.outcome, chaos::ChaosOutcome::Survived) << clean.detail;
  for (const auto& counter : chaos::kOracleCounters) {
    auto tampered = predicted;
    tampered.*(counter.field) += 1;
    const auto run =
        chaos::classify_run(config, schedule, tampered, reference);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated)
        << "counter " << counter.name
        << " not guarded: tampering it went unnoticed";
    EXPECT_NE(run.detail.find(counter.name), std::string::npos)
        << "violation detail should name the diverging counter; got: "
        << run.detail;
  }
}

TEST(ChaosSdcMutation, EachCounterIsGuardedOnFatalSchedule) {
  // Guard must hold on the degraded path too: the fatal-accept outcome
  // carries its own counter story (detections without a matching rollback).
  const auto config = sdc_campaign(Topology::Pairs, 2);
  const auto schedule = chaos::ChaosSchedule::parse("13:sdc:0");
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  const auto predicted =
      chaos::predict_outcome(config.shadow(), schedule.failures);
  const auto clean =
      chaos::classify_run(config, schedule, predicted, reference);
  ASSERT_EQ(clean.outcome, chaos::ChaosOutcome::FatalDetected)
      << clean.detail;
  for (const auto& counter : chaos::kOracleCounters) {
    auto tampered = predicted;
    tampered.*(counter.field) += 1;
    const auto run =
        chaos::classify_run(config, schedule, tampered, reference);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated)
        << "counter " << counter.name << " not guarded on the fatal path";
  }
}

// ------------------------------------ the runtime/oracle shared contract
//
// The oracle predicts a runtime::RunReport, the classifier and the JSONL
// export walk chaos::kOracleCounters, and both sides reject injections
// through runtime::validate_injections.

TEST(ChaosOracleCounters, CoverTwentySixFieldsInRunReportOrder) {
  // RunReport order keeps the counter a violation names first stable;
  // strictly rising offsets also mean no field is listed twice.
  ASSERT_EQ(std::size(chaos::kOracleCounters), 26u);
  const runtime::RunReport report;
  const auto* base = reinterpret_cast<const char*>(&report);
  std::ptrdiff_t previous = -1;
  for (const auto& counter : chaos::kOracleCounters) {
    const std::ptrdiff_t offset =
        reinterpret_cast<const char*>(&(report.*counter.field)) - base;
    EXPECT_GT(offset, previous) << counter.name;
    previous = offset;
  }
}

TEST(ChaosOracleCounters, ViolationNamesTheFirstDivergingCounter) {
  // Tamper each counter together with the last one: the diagnosis names
  // the earlier counter, with the runtime's and the oracle's values.
  const auto config = small_campaign(Topology::Pairs);
  const auto schedule = chaos::ChaosSchedule::parse("25:0");
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  const auto predicted =
      chaos::predict_outcome(config.shadow(), schedule.failures);
  const auto& last = std::end(chaos::kOracleCounters)[-1];
  for (const auto& counter : chaos::kOracleCounters) {
    auto tampered = predicted;
    tampered.*(counter.field) += 1;
    if (&counter != &last) tampered.*(last.field) += 1;
    const auto run =
        chaos::classify_run(config, schedule, tampered, reference);
    const std::uint64_t value = predicted.*(counter.field);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated) << counter.name;
    EXPECT_EQ(run.detail, "accounting diverges from the oracle (" +
                              std::string(counter.name) + ": runtime " +
                              std::to_string(value) + ", oracle " +
                              std::to_string(value + 1) + ")");
  }
}

TEST(ChaosOracle, PredictionLeavesUnmodeledFieldsAtDefaults) {
  // The oracle moves no data: bytes, COW copies, the final hash, the
  // degraded flag and the fatal reason are the runtime's alone to report.
  const auto config = small_campaign(Topology::Pairs).shadow();
  for (const bool fatal : {false, true}) {
    // 50:2,50:3 loses both members of a pair in one step.
    const auto schedule =
        chaos::ChaosSchedule::parse(fatal ? "50:2,50:3" : "25:0");
    const auto predicted = chaos::predict_outcome(config, schedule.failures);
    EXPECT_EQ(predicted.fatal, fatal);
    EXPECT_EQ(predicted.bytes_replicated, 0u);
    EXPECT_EQ(predicted.cow_copies, 0u);
    EXPECT_EQ(predicted.final_hash, 0u);
    EXPECT_FALSE(predicted.degraded);
    EXPECT_EQ(predicted.fatal_reason, "");
    if (fatal) {
      EXPECT_EQ(predicted.fatal_step, 50u);
      EXPECT_TRUE(predicted.fatal_node == 2 || predicted.fatal_node == 3)
          << predicted.fatal_node;
    }
  }
}

TEST(ChaosOracle, RejectsInjectionsWithTheRuntimesMessage) {
  // One validator: the oracle refuses what the runtime refuses, in the same
  // words (`dckpt chaos --schedule=999:0` prints the first one).
  const auto config = small_campaign(Topology::Triples).shadow();
  for (const char* spec : {"999:0", "10:9", "10:corrupt:0:0",
                           "10:corrupt:3:0", "10:sdc:0", "10:torndelta:0:1"}) {
    const auto failures = chaos::ChaosSchedule::parse(spec).failures;
    std::string want;
    try {
      runtime::validate_injections(failures, config);
    } catch (const std::invalid_argument& error) {
      want = error.what();
    }
    ASSERT_NE(want, "") << spec;
    try {
      (void)chaos::predict_outcome(config, failures);
      ADD_FAILURE() << spec << ": the oracle accepted it";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), want) << spec;
    }
  }
}

TEST(ChaosCampaign, ClassifyRejectsAnInvalidScheduleUpFront) {
  // A bad injection is the caller's error: classify_run throws the
  // validator's message before it runs anything, instead of reporting the
  // runtime's exception as a violation.
  const auto config = small_campaign(Topology::Pairs);
  const auto schedule = chaos::ChaosSchedule::parse("10:corrupt:2:0");
  const runtime::RunReport predicted;
  try {
    (void)chaos::classify_run(config, schedule, predicted, 0);
    ADD_FAILURE() << "classify_run accepted a target that holds nothing";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "FailureInjection: corrupt target does not hold the owner's "
              "replica");
  }
}

// classify_run's verdicts beyond the counter table: each tampers the
// prediction (or the reference) one way and expects the verdict that names
// that disagreement.

struct Verdict {
  chaos::ChaosCampaignConfig config = small_campaign(Topology::Pairs);
  std::uint64_t reference = chaos::reference_run(config).final_hash;

  chaos::ChaosRunResult classify(const std::string& spec,
                                 const runtime::RunReport& predicted,
                                 std::uint64_t reference_hash) const {
    return chaos::classify_run(config, chaos::ChaosSchedule::parse(spec),
                               predicted, reference_hash);
  }
  runtime::RunReport predict(const std::string& spec) const {
    return chaos::predict_outcome(config.shadow(),
                                  chaos::ChaosSchedule::parse(spec).failures);
  }
};

constexpr const char* kSurvivable = "17:0";
constexpr const char* kBuddyLoss = "17:0,18:1";  // inside 0's risk window

TEST(ChaosCampaign, ClassifierFlagsSurvivalOfAPredictedLoss) {
  const Verdict verdict;
  auto predicted = verdict.predict(kSurvivable);
  ASSERT_EQ(verdict.classify(kSurvivable, predicted, verdict.reference).outcome,
            chaos::ChaosOutcome::Survived);
  predicted.fatal = true;
  predicted.fatal_node = 1;
  const auto run = verdict.classify(kSurvivable, predicted, verdict.reference);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated);
  EXPECT_NE(run.detail.find("runtime claims survival"), std::string::npos)
      << run.detail;
}

TEST(ChaosCampaign, ClassifierFlagsAFinalStateOffTheReference) {
  const Verdict verdict;
  const auto predicted = verdict.predict(kSurvivable);
  const auto run =
      verdict.classify(kSurvivable, predicted, verdict.reference ^ 1);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated);
  EXPECT_NE(run.detail.find("final state diverges"), std::string::npos)
      << run.detail;
}

TEST(ChaosCampaign, ClassifierFlagsLossOnAPredictedSurvival) {
  const Verdict verdict;
  auto predicted = verdict.predict(kBuddyLoss);
  ASSERT_TRUE(predicted.fatal);
  ASSERT_EQ(verdict.classify(kBuddyLoss, predicted, verdict.reference).outcome,
            chaos::ChaosOutcome::FatalDetected);
  predicted.fatal = false;
  const auto run = verdict.classify(kBuddyLoss, predicted, verdict.reference);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated);
  EXPECT_NE(run.detail.find("lost data on a survivable schedule"),
            std::string::npos)
      << run.detail;
}

TEST(ChaosCampaign, ClassifierFlagsAWrongFatalReport) {
  const Verdict verdict;
  auto predicted = verdict.predict(kBuddyLoss);
  ASSERT_TRUE(predicted.fatal);
  predicted.fatal_step += 1;
  const auto run = verdict.classify(kBuddyLoss, predicted, verdict.reference);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated);
  EXPECT_NE(run.detail.find("wrong fatal report"), std::string::npos)
      << run.detail;
}

TEST(ChaosCampaign, ConfigRejectsKernelsTheTargetCannotRun) {
  auto config = small_campaign(Topology::Pairs);
  EXPECT_NO_THROW(config.validate());
  config.kernel = "banana";
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // The wave kernel packs two time levels per cell pair.
  config.kernel = "wave";
  EXPECT_NO_THROW(config.validate());
  config.runtime.cells_per_node = 47;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  // Grid campaigns run the one 2-D kernel.
  config = small_campaign(Topology::Pairs);
  runtime::GridConfig grid;
  grid.grid_rows = 2;
  grid.grid_cols = 2;
  config.grid = grid;
  EXPECT_NO_THROW(config.validate());
  config.kernel = "counter";
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ChaosCampaign, RandomRunsNeedAFailureBudget) {
  auto config = small_campaign(Topology::Pairs);
  config.max_failures = 0;
  EXPECT_NO_THROW(config.validate());  // scripted schedules only
  config.random_runs = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ChaosCampaign, KernelFactoriesBuildEveryNamedKernel) {
  EXPECT_EQ(chaos::make_kernel("heat")->name(), "heat-diffusion-1d");
  EXPECT_EQ(chaos::make_kernel("wave")->name(), "wave-1d-leapfrog");
  EXPECT_EQ(chaos::make_kernel("counter")->name(), "counter");
  EXPECT_THROW(chaos::make_kernel("banana"), std::invalid_argument);
  EXPECT_EQ(chaos::make_grid_kernel("heat")->name(), "heat-diffusion-2d");
  EXPECT_THROW(chaos::make_grid_kernel("wave"), std::invalid_argument);
}

TEST(ChaosExport, UnwritablePathIsAnError) {
  const chaos::ChaosCampaignSummary summary;
  EXPECT_THROW(
      chaos::save_campaign_jsonl("/nonexistent-dir/chaos.jsonl", summary),
      std::runtime_error);
}

TEST(ChaosExport, EachCounterIsExportedUnderItsOwnName) {
  // Distinct values, read back through an independent spelling of the
  // 26 fields: a table entry that pairs a name with the wrong field shows
  // up here even where a fixture reads 0 for both.
  chaos::ChaosRunResult run;
  std::uint64_t next = 1;
  for (const auto& counter : chaos::kOracleCounters) {
    run.predicted.*(counter.field) = next;
    run.report.*(counter.field) = 100 + next;
    ++next;
  }
  const auto field_values = [](const runtime::RunReport& r) {
    return std::map<std::string, std::uint64_t>{
        {"steps_executed", r.steps_executed},
        {"replayed_steps", r.replayed_steps},
        {"checkpoints", r.checkpoints},
        {"failures", r.failures},
        {"rollbacks", r.rollbacks},
        {"recoveries", r.recoveries},
        {"rereplications", r.rereplications},
        {"risk_steps", r.risk_steps},
        {"failovers", r.failovers},
        {"transfer_retries", r.transfer_retries},
        {"corrupt_images_detected", r.corrupt_images_detected},
        {"degraded_steps", r.degraded_steps},
        {"hash_verified_recoveries", r.hash_verified_recoveries},
        {"sdc_injected", r.sdc_injected},
        {"verifications_run", r.verifications_run},
        {"sdc_detected", r.sdc_detected},
        {"rollback_depth", r.rollback_depth},
        {"alarms_raised", r.alarms_raised},
        {"proactive_ckpts", r.proactive_ckpts},
        {"true_predictions", r.true_predictions},
        {"missed_failures", r.missed_failures},
        {"delta_commits", r.delta_commits},
        {"full_commits", r.full_commits},
        {"chain_replays", r.chain_replays},
        {"chain_replay_depth", r.chain_replay_depth},
        {"torn_chain_failovers", r.torn_chain_failovers},
    };
  };
  const auto record = chaos::to_json(run);
  for (const char* side : {"predicted", "report"}) {
    const auto& exported = record.at(side);
    const auto expected = field_values(
        std::string(side) == "predicted" ? run.predicted : run.report);
    ASSERT_EQ(expected.size(), std::size(chaos::kOracleCounters));
    for (const auto& [name, value] : expected) {
      ASSERT_TRUE(exported.contains(name)) << side << "." << name;
      EXPECT_EQ(exported.at(name).as_number(), static_cast<double>(value))
          << side << "." << name;
    }
  }
}

TEST(ChaosExport, FatalRecordsKeepTheirKeys) {
  // The prediction exports its fatal node under the older key and none of
  // the fields the oracle does not model; the runtime's report carries
  // those and its own fatal coordinates.
  const auto config = small_campaign(Topology::Pairs);
  const auto run =
      chaos::run_one(config, chaos::ChaosSchedule::parse("50:2,50:3"),
                     chaos::reference_run(config).final_hash);
  ASSERT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  const auto record = chaos::to_json(run);
  const auto& predicted = record.at("predicted");
  EXPECT_TRUE(predicted.at("fatal").as_bool());
  EXPECT_EQ(predicted.at("fatal_step").as_number(), 50.0);
  EXPECT_EQ(predicted.at("unrecoverable_node").as_number(),
            static_cast<double>(run.predicted.fatal_node));
  for (const char* key : {"fatal_node", "fatal_reason", "degraded",
                          "final_hash", "bytes_replicated", "cow_copies"}) {
    EXPECT_FALSE(predicted.contains(key)) << "predicted." << key;
  }
  const auto& report = record.at("report");
  EXPECT_TRUE(report.at("fatal").as_bool());
  EXPECT_TRUE(report.at("degraded").as_bool());
  EXPECT_EQ(report.at("fatal_node").as_number(),
            static_cast<double>(run.report.fatal_node));
  EXPECT_EQ(report.at("fatal_step").as_number(), 50.0);
  EXPECT_EQ(report.at("fatal_reason").as_string(), run.report.fatal_reason);
  EXPECT_FALSE(report.contains("unrecoverable_node"));
}

// ------------------------------------- differential checkpoints (dcp)

chaos::ChaosCampaignConfig dcp_campaign(Topology topology) {
  auto config = small_campaign(topology);
  // dcp composes with the blocking exchange only: chains hang off the
  // committed base, so no staging, no verification ladder, keep-last-1.
  config.runtime.staging_steps = 0;
  config.runtime.dcp_stack_size = 3;
  return config;
}

TEST(ChaosDcp, TornDeltaGrammarRoundTrips) {
  using runtime::InjectionKind;
  const auto schedule =
      chaos::ChaosSchedule::parse("25:torndelta:0:1,30:torndelta:3:2,40:1");
  ASSERT_EQ(schedule.failures.size(), 3u);
  EXPECT_EQ(schedule.failures[0].kind, InjectionKind::TornDelta);
  EXPECT_EQ(schedule.failures[0].node, 0u);
  EXPECT_EQ(schedule.failures[0].window, 1u);  // depth rides in window
  EXPECT_EQ(schedule.failures[1].window, 2u);
  EXPECT_EQ(schedule.failures[2].kind, InjectionKind::NodeLoss);
  EXPECT_EQ(schedule.spec(), "25:torndelta:0:1,30:torndelta:3:2,40:1");
  EXPECT_EQ(chaos::ChaosSchedule::parse(schedule.spec()).spec(),
            schedule.spec());
}

TEST(ChaosDcp, TornDeltaGrammarRejectsMalformedEntries) {
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:torndelta:0"),
               std::invalid_argument);  // missing depth
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:torndelta:0:x"),
               std::invalid_argument);
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:torndelta:0:1:2"),
               std::invalid_argument);  // trailing field
  EXPECT_THROW(chaos::ChaosSchedule::parse("25:torndelta:"),
               std::invalid_argument);
}

TEST(ChaosDcp, ValidateRequiresDcpAndBoundsTheDepth) {
  const auto dcp_config = dcp_campaign(Topology::Pairs).runtime;
  const auto plain_config = small_campaign(Topology::Pairs).runtime;
  const auto schedule = chaos::ChaosSchedule::parse("25:torndelta:0:1");
  EXPECT_NO_THROW(runtime::validate_injections(schedule.failures, dcp_config));
  // Without dcp there are no chains to tear.
  EXPECT_THROW(runtime::validate_injections(schedule.failures, plain_config),
               std::invalid_argument);
  // Depth 0 and depth >= K address no layer a K-chain can hold.
  EXPECT_THROW(runtime::validate_injections(
                   chaos::ChaosSchedule::parse("25:torndelta:0:0").failures,
                   dcp_config),
               std::invalid_argument);
  EXPECT_THROW(runtime::validate_injections(
                   chaos::ChaosSchedule::parse("25:torndelta:0:3").failures,
                   dcp_config),
               std::invalid_argument);
}

TEST(ChaosDcp, TornChainFailsOverCounterForCounter) {
  // Triples: tearing the sole delta layer on node 0's preferred holder
  // forces the post-kill recovery onto the secondary's intact chain -- one
  // torn-chain failover, with every dcp counter mirrored by the oracle.
  const auto config = dcp_campaign(Topology::Triples);
  const auto schedule = chaos::ChaosSchedule::parse("25:torndelta:0:1,25:0");
  const auto run = chaos::run_one(config, schedule,
                                  chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived) << run.detail;
  EXPECT_EQ(run.report.torn_chain_failovers, 1u);
  EXPECT_GT(run.report.delta_commits, 0u);
  EXPECT_GT(run.report.full_commits, 0u);
  EXPECT_GT(run.report.chain_replays, 0u);
  EXPECT_GE(run.report.chain_replay_depth, run.report.chain_replays);
  EXPECT_EQ(run.report.delta_commits, run.predicted.delta_commits);
  EXPECT_EQ(run.report.full_commits, run.predicted.full_commits);
  EXPECT_EQ(run.report.chain_replays, run.predicted.chain_replays);
  EXPECT_EQ(run.report.chain_replay_depth, run.predicted.chain_replay_depth);
  EXPECT_EQ(run.report.torn_chain_failovers,
            run.predicted.torn_chain_failovers);
}

TEST(ChaosDcp, CommitCadenceFollowsTheStack) {
  // K = 3: every third commit is full (the first exchange included), the
  // rest ship deltas -- 96 steps at interval 12 commit 7 times (steps
  // 12..84), split F D D F D D F: 3 full + 4 delta.
  const auto config = dcp_campaign(Topology::Pairs);
  const auto schedule = chaos::ChaosSchedule::parse("90:7");
  const auto run = chaos::run_one(config, schedule,
                                  chaos::reference_run(config).final_hash);
  EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived) << run.detail;
  EXPECT_EQ(run.report.delta_commits + run.report.full_commits, 7u);
  EXPECT_EQ(run.report.full_commits, 3u);
  EXPECT_EQ(run.report.delta_commits, run.predicted.delta_commits);
  EXPECT_EQ(run.report.full_commits, run.predicted.full_commits);
}

TEST(ChaosDcp, ScriptedDcpFamiliesNeverViolate) {
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    const auto runs = run_scripted(dcp_campaign(topology));
    // dcp enabled adds the dcp-* scripted families.
    EXPECT_TRUE(runs.count("dcp-torn-then-kill"));
    EXPECT_TRUE(runs.count("dcp-chain-exhausted"));
    EXPECT_TRUE(runs.count("dcp-torn-heals-at-full"));
    for (const auto& [name, run] : runs) {
      EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
          << name << ": " << run.detail << "\n  " << run.repro;
    }
    // Exhausting every rung's chain is fatal -- but detected, never silent.
    EXPECT_EQ(runs.at("dcp-chain-exhausted").outcome,
              chaos::ChaosOutcome::FatalDetected);
    // A full exchange clears the torn chain before the late kill lands.
    EXPECT_EQ(runs.at("dcp-torn-heals-at-full").outcome,
              chaos::ChaosOutcome::Survived);
  }
}

TEST(ChaosDcp, RandomizedDcpCampaignNeverViolates) {
  for (const Topology topology : {Topology::Pairs, Topology::Triples}) {
    auto config = dcp_campaign(topology);
    config.random_runs = 100;
    config.campaign_seed = 20260809;
    const auto summary = chaos::run_campaign(config);
    EXPECT_EQ(summary.violated, 0u);
    for (const auto& run : summary.runs) {
      EXPECT_NE(run.outcome, chaos::ChaosOutcome::Violated)
          << run.schedule.name << " seed " << run.schedule.seed << ": "
          << run.detail << "\n  " << run.repro;
    }
  }
}

TEST(ChaosDcpMutation, EachCounterIsGuardedOnTornChainSchedule) {
  const auto config = dcp_campaign(Topology::Triples);
  const auto schedule = chaos::ChaosSchedule::parse("25:torndelta:0:1,25:0");
  const std::uint64_t reference = chaos::reference_run(config).final_hash;
  const auto predicted =
      chaos::predict_outcome(config.shadow(), schedule.failures);
  const auto clean =
      chaos::classify_run(config, schedule, predicted, reference);
  ASSERT_EQ(clean.outcome, chaos::ChaosOutcome::Survived) << clean.detail;
  for (const auto& counter : chaos::kOracleCounters) {
    auto tampered = predicted;
    tampered.*(counter.field) += 1;
    const auto run =
        chaos::classify_run(config, schedule, tampered, reference);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Violated)
        << "counter " << counter.name
        << " not guarded: tampering it went unnoticed";
    EXPECT_NE(run.detail.find(counter.name), std::string::npos)
        << "violation detail should name the diverging counter; got: "
        << run.detail;
  }
}

// --------------------------------------------------- spare-pool bridge

TEST(ChaosSparePool, DelayStepsTrackTheErlangModel) {
  dckpt::model::SparePoolSpec spec;
  spec.spares = 4;
  spec.repair_time = 3600.0;
  spec.detection = 30.0;
  const double mtbf = 1800.0;
  const std::uint64_t fine = chaos::spare_pool_delay_steps(spec, mtbf, 10.0);
  const std::uint64_t coarse =
      chaos::spare_pool_delay_steps(spec, mtbf, 120.0);
  EXPECT_GE(fine, 1u);
  EXPECT_GE(coarse, 1u);
  EXPECT_GE(fine, coarse);  // finer steps -> more steps for the same wait
  // Ceil of the model's effective downtime, never rounded to zero.
  const double downtime = dckpt::model::effective_downtime(spec, mtbf);
  EXPECT_EQ(fine, static_cast<std::uint64_t>(std::ceil(downtime / 10.0)));
  // A big pool still costs at least the detection step.
  spec.spares = 1024;
  EXPECT_GE(chaos::spare_pool_delay_steps(spec, mtbf, 3600.0), 1u);
  EXPECT_THROW(chaos::spare_pool_delay_steps(spec, mtbf, 0.0),
               std::invalid_argument);
  EXPECT_THROW(chaos::spare_pool_delay_steps(spec, mtbf, -1.0),
               std::invalid_argument);
}

TEST(ChaosSparePool, DelayWidensTheObservedRiskWindow) {
  // End to end: the same buddy double hit is masked when the spare pool
  // refills quickly but fatal when the allocation delay keeps the window
  // open. The failure at 25 abandons the staged set and replays from step
  // 12, so the refill needs > 14 steps to still be pending at step 26.
  auto config = small_campaign(Topology::Pairs);
  chaos::ChaosSchedule schedule{"window-probe", {{25, 0}, {26, 1}}, 0};
  {
    auto c = config;
    c.runtime.rereplication_delay_steps = 2;
    const auto run =
        chaos::run_one(c, schedule, chaos::reference_run(c).final_hash);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::Survived) << run.detail;
  }
  {
    auto c = config;
    c.runtime.rereplication_delay_steps = 25;
    const auto run =
        chaos::run_one(c, schedule, chaos::reference_run(c).final_hash);
    EXPECT_EQ(run.outcome, chaos::ChaosOutcome::FatalDetected) << run.detail;
  }
}

// ------------------------------------- recovery at any thread count
//
// The dcp smoke configs and the sdc smoke config (verify_every 4,
// keep-last 3) at 1, 2 and 4 stepping threads (chaos_thread_parity.hpp):
// torn-layer and corrupt-copy failovers, exhausted ladders with blank
// restarts and verified rollbacks all run their per-node walks on the
// stepping pool.

void expect_chain_recovery_thread_invariant(Topology topology) {
  test::RecoveryPaths reached;
  test::expect_thread_count_invariant(dcp_campaign(topology), 20260812,
                                      reached);
  // Node 0 is lost at step 44 (every copy of its set of step 36 corrupt)
  // and still lost at the verification of step 48, which drops that set.
  const std::string lost_node_then_sdc =
      topology == Topology::Pairs
          ? "44:corrupt:1:0,44:0,45:sdc:2"
          : "44:corrupt:1:0,44:corrupt:2:0,44:0,45:sdc:4";
  test::expect_thread_count_invariant(sdc_campaign(topology, 3), 20260809,
                                      reached, {lost_node_then_sdc});
  EXPECT_GT(reached.failed_over, 0u);
  EXPECT_GT(reached.torn_failed_over, 0u);
  EXPECT_GT(reached.exhausted, 0u);
  EXPECT_GT(reached.verified_rollbacks, 0u);
  EXPECT_GT(reached.exhausted_then_verified, 0u);
}

TEST(ChaosThreadCount, PairsRecoveryMatchesAtOneTwoAndFourThreads) {
  expect_chain_recovery_thread_invariant(Topology::Pairs);
}

TEST(ChaosThreadCount, TriplesRecoveryMatchesAtOneTwoAndFourThreads) {
  expect_chain_recovery_thread_invariant(Topology::Triples);
}

}  // namespace
