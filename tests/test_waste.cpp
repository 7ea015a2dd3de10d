#include "model/waste.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "model/scenario.hpp"

namespace {

using namespace dckpt::model;

Parameters base_params(double phi = 1.0) {
  auto p = base_scenario().params;  // D=0 delta=2 R=4 alpha=10 n=324*32
  p.overhead = phi;
  p.mtbf = 7.0 * 3600.0;
  return p;
}

Parameters exa_params(double phi = 30.0) {
  auto p = exa_scenario().params;  // D=60 delta=30 R=60 alpha=10 n=1e6
  p.overhead = phi;
  p.mtbf = 7.0 * 3600.0;
  return p;
}

// ------------------------------------------------------------ period parts

TEST(PeriodPartsTest, DoubleDecomposition) {
  const auto p = base_params(1.0);  // theta = 4 + 10*3 = 34
  const auto parts = period_parts(Protocol::DoubleNbl, p, 100.0);
  EXPECT_DOUBLE_EQ(parts.part1, 2.0);
  EXPECT_DOUBLE_EQ(parts.part2, 34.0);
  EXPECT_DOUBLE_EQ(parts.part3, 64.0);
}

TEST(PeriodPartsTest, TripleDecomposition) {
  const auto p = base_params(1.0);
  const auto parts = period_parts(Protocol::Triple, p, 100.0);
  EXPECT_DOUBLE_EQ(parts.part1, 34.0);
  EXPECT_DOUBLE_EQ(parts.part2, 34.0);
  EXPECT_DOUBLE_EQ(parts.part3, 32.0);
}

TEST(PeriodPartsTest, RejectsTooShortPeriod) {
  const auto p = base_params(1.0);
  EXPECT_THROW(period_parts(Protocol::DoubleNbl, p, 30.0),
               std::invalid_argument);
  EXPECT_THROW(period_parts(Protocol::Triple, p, 60.0), std::invalid_argument);
}

TEST(WorkPerPeriodTest, MatchesPaperFormulas) {
  const auto p = base_params(1.0);
  // W = P - delta - phi for doubles.
  EXPECT_DOUBLE_EQ(work_per_period(Protocol::DoubleNbl, p, 100.0), 97.0);
  // W = P - 2 phi for triples.
  EXPECT_DOUBLE_EQ(work_per_period(Protocol::Triple, p, 100.0), 98.0);
  // DoubleBlocking: W = P - delta - R.
  EXPECT_DOUBLE_EQ(work_per_period(Protocol::DoubleBlocking, p, 100.0), 94.0);
}

// ----------------------------------------------- closed form F vs RE parts

class FailureCostConsistency
    : public ::testing::TestWithParam<std::tuple<Protocol, double, double>> {};

TEST_P(FailureCostConsistency, ClosedFormMatchesReDecomposition) {
  const auto [protocol, phi_ratio, period_scale] = GetParam();
  for (const auto& scenario : paper_scenarios()) {
    const auto params = scenario.at_phi_ratio(phi_ratio).with_mtbf(7 * 3600.0);
    const double lo = min_period(protocol, params);
    const double period = lo * period_scale;
    const double closed = expected_failure_cost(protocol, params, period);
    const double parts =
        expected_failure_cost_from_parts(protocol, params, period);
    EXPECT_NEAR(closed, parts, 1e-9 * std::max(1.0, closed))
        << protocol_name(protocol) << " " << scenario.name
        << " phi/R=" << phi_ratio << " P=" << period;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsGrid, FailureCostConsistency,
    ::testing::Combine(
        ::testing::Values(Protocol::DoubleBlocking, Protocol::DoubleNbl,
                          Protocol::DoubleBof, Protocol::Triple,
                          Protocol::TripleBof),
        ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 1.0),
        ::testing::Values(1.0, 1.5, 3.0, 10.0)));

// ------------------------------------------------- paper identities on F

TEST(FailureCostTest, NblMatchesEquation7) {
  const auto p = base_params(1.0);  // theta = 34
  const double period = 200.0;
  // F_nbl = D + R + theta + P/2 = 0 + 4 + 34 + 100.
  EXPECT_DOUBLE_EQ(expected_failure_cost(Protocol::DoubleNbl, p, period),
                   138.0);
}

TEST(FailureCostTest, BofMatchesEquation8) {
  const auto p = base_params(1.0);
  const double period = 200.0;
  // F_bof = D + 2R + theta - phi + P/2 = 0 + 8 + 34 - 1 + 100.
  EXPECT_DOUBLE_EQ(expected_failure_cost(Protocol::DoubleBof, p, period),
                   141.0);
}

TEST(FailureCostTest, TripleMatchesEquation14AndEqualsNbl) {
  // The paper observes F_nbl = F_tri for every P where both are defined.
  const auto p = exa_params(30.0);
  for (double period : {2000.0, 5000.0, 20000.0}) {
    EXPECT_DOUBLE_EQ(expected_failure_cost(Protocol::Triple, p, period),
                     expected_failure_cost(Protocol::DoubleNbl, p, period));
  }
}

TEST(FailureCostTest, BofMinusNblIsRMinusPhi) {
  for (const auto& scenario : paper_scenarios()) {
    for (double ratio : {0.0, 0.3, 0.8, 1.0}) {
      const auto p = scenario.at_phi_ratio(ratio).with_mtbf(7 * 3600.0);
      const double period = min_period(Protocol::DoubleNbl, p) * 4.0;
      const double diff =
          expected_failure_cost(Protocol::DoubleBof, p, period) -
          expected_failure_cost(Protocol::DoubleNbl, p, period);
      EXPECT_NEAR(diff, p.remote_blocking - p.overhead, 1e-9)
          << scenario.name << " ratio " << ratio;
    }
  }
}

// -------------------------------------------------------------- waste parts

TEST(WasteFaultFreeTest, MatchesPaperExpressions) {
  const auto p = base_params(1.0);
  // (delta + phi)/P.
  EXPECT_DOUBLE_EQ(waste_fault_free(Protocol::DoubleNbl, p, 100.0), 0.03);
  // 2 phi / P.
  EXPECT_DOUBLE_EQ(waste_fault_free(Protocol::Triple, p, 100.0), 0.02);
  // (delta + R)/P.
  EXPECT_DOUBLE_EQ(waste_fault_free(Protocol::DoubleBlocking, p, 100.0), 0.06);
}

TEST(WasteFaultFreeTest, TripleWithFullOverlapIsFree) {
  const auto p = base_params(0.0);
  const double period = min_period(Protocol::Triple, p) * 2.0;
  EXPECT_DOUBLE_EQ(waste_fault_free(Protocol::Triple, p, period), 0.0);
}

TEST(WasteTest, ProductComposition) {
  const auto p = base_params(2.0);
  const double period = 300.0;
  const double ff = waste_fault_free(Protocol::DoubleNbl, p, period);
  const double fail = waste_failure(Protocol::DoubleNbl, p, period);
  const double total = waste(Protocol::DoubleNbl, p, period);
  EXPECT_NEAR(total, ff + fail - ff * fail, 1e-12);
}

TEST(WasteTest, RejectsNonFiniteAndTooShortPeriods) {
  const auto p = base_params(1.0);
  const double inf = std::numeric_limits<double>::infinity();
  for (const Protocol protocol : kPaperProtocols) {
    const double too_short = 0.5 * min_period(protocol, p);
    for (const double period : {inf, std::nan(""), too_short}) {
      EXPECT_THROW(waste(protocol, p, period), std::invalid_argument)
          << protocol_name(protocol) << " at P = " << period;
      EXPECT_THROW(waste_fault_free(protocol, p, period),
                   std::invalid_argument)
          << protocol_name(protocol) << " at P = " << period;
    }
  }
}

TEST(WasteTest, BoundsRespected) {
  for (const auto& scenario : paper_scenarios()) {
    for (Protocol protocol : kAllProtocols) {
      for (double ratio : {0.0, 0.5, 1.0}) {
        for (double mtbf : {15.0, 600.0, 3600.0, 86400.0}) {
          const auto p = scenario.at_phi_ratio(ratio).with_mtbf(mtbf);
          const double period = min_period(protocol, p) * 2.0;
          const double w = waste(protocol, p, period);
          EXPECT_GE(w, 0.0);
          EXPECT_LE(w, 1.0);
        }
      }
    }
  }
}

TEST(WasteTest, TinyMtbfMeansNoProgress) {
  // The paper: at M = 15 s "no progress happens for any protocol".
  const auto p = base_params(2.0).with_mtbf(15.0);
  for (Protocol protocol : kPaperProtocols) {
    const double period = min_period(protocol, p);
    EXPECT_DOUBLE_EQ(waste(protocol, p, period), 1.0) << protocol_name(protocol);
  }
}

TEST(WasteTest, LargeMtbfWasteIsSmall) {
  // At M = 1 day the waste should be "almost 0" (paper Sec. VI-A) --
  // evaluated at a near-optimal period.
  const auto p = base_params(0.4).with_mtbf(86400.0);
  const double period = std::sqrt(2.0 * (p.local_ckpt + p.overhead) * p.mtbf);
  EXPECT_LT(waste(Protocol::DoubleNbl, p, period), 0.05);
}

TEST(WasteTest, MonotoneInMtbf) {
  const auto base = base_params(1.0);
  const double period = 500.0;
  double previous = 2.0;
  for (double mtbf : {120.0, 600.0, 3600.0, 8.0 * 3600.0, 86400.0}) {
    const double w = waste(Protocol::DoubleNbl, base.with_mtbf(mtbf), period);
    EXPECT_LT(w, previous) << "M=" << mtbf;
    previous = w;
  }
}

TEST(ExpectedMakespanTest, InflatesBaseTime) {
  const auto p = base_params(1.0);
  const double period = 300.0;
  const double t = expected_makespan(Protocol::DoubleNbl, p, period, 1e6);
  const double w = waste(Protocol::DoubleNbl, p, period);
  EXPECT_NEAR(t * (1.0 - w), 1e6, 1e-3);
  EXPECT_GT(t, 1e6);
}

TEST(ExpectedMakespanTest, InfiniteWhenNoProgress) {
  const auto p = base_params(2.0).with_mtbf(10.0);
  const double period = min_period(Protocol::DoubleNbl, p);
  EXPECT_TRUE(std::isinf(
      expected_makespan(Protocol::DoubleNbl, p, period, 1000.0)));
}

TEST(ExpectedMakespanTest, RejectsNegativeWork) {
  const auto p = base_params(1.0);
  EXPECT_THROW(expected_makespan(Protocol::DoubleNbl, p, 300.0, -1.0),
               std::invalid_argument);
}

// Re-execution expectations from the paper's Sec. III-A, literally.
TEST(ReExecutionTest, NblTermsMatchPaper) {
  const auto p = base_params(1.0);  // delta=2 theta=34
  const double period = 100.0;      // sigma = 64
  const auto re = expected_reexecution(Protocol::DoubleNbl, p, period);
  EXPECT_DOUBLE_EQ(re.re1, 34.0 + 64.0 + 1.0);         // theta+sigma+delta/2
  EXPECT_DOUBLE_EQ(re.re2, 34.0 + 64.0 + 2.0 + 17.0);  // +delta+theta/2
  EXPECT_DOUBLE_EQ(re.re3, 34.0 + 32.0);               // theta+sigma/2
}

TEST(ReExecutionTest, TripleTermsMatchPaper) {
  const auto p = base_params(1.0);  // theta=34
  const double period = 100.0;      // sigma = 32
  const auto re = expected_reexecution(Protocol::Triple, p, period);
  EXPECT_DOUBLE_EQ(re.re1, 68.0 + 32.0 + 17.0);  // 2theta+sigma+theta/2
  EXPECT_DOUBLE_EQ(re.re2, 51.0);                // 3theta/2
  EXPECT_DOUBLE_EQ(re.re3, 68.0 + 16.0);         // 2theta+sigma/2
}

}  // namespace
