// One waste function for every failure-model axis (model/waste.hpp): each
// axis alone against the values its former standalone function computed
// (recorded as hex-float literals from the last build that had them), and
// the composition order of two axes at once (docs/MODEL.md Sec. 5).
#include <gtest/gtest.h>

#include <string>

#include "model/model_api.hpp"

namespace {

using namespace dckpt::model;

struct ParityRow {
  Protocol protocol;
  double period;
  double weibull_low;   ///< shape 0.5 over a 50000 s horizon
  double weibull_high;  ///< shape 1.5 over a 50000 s horizon
  double sdc;
  double predictor_jit;       ///< window 0 (just in time)
  double predictor_windowed;  ///< window 60 s
  double dcp;
};

// Base scenario at phi/R = 0.25, M = 3600 s, 12 nodes.
constexpr ParityRow kParity[] = {
    {Protocol::DoubleBlocking, 100, 0x1.5de3a6c0480b8p-4, 0x1.22ff89af1641p-4,
     0x1.317648282f40cp-3, 0x1.1838a2e5f2d2p-4, 0x1.2d4d56338c8ap-4,
     0x1.0b082a2957a1p-5},
    {Protocol::DoubleBlocking, 400, 0x1.bd62bb71487dp-4, 0x1.ccbd0656bdf7p-5,
     0x1.8f45afd9ef418p-3, 0x1.493f82591b88p-5, 0x1.7a487eab1924p-5,
     0x1.fd1be14eaba6p-5},
    {Protocol::DoubleBlocking, 1200, 0x1.1f29797a4b252p-2,
     0x1.033dab75f1a84p-3, 0x1.e5a75e8023448p-2, 0x1.316392a7c489p-4,
     0x1.50b1c87b25b78p-4, 0x1.5d518bfbaad7p-3},
    {Protocol::DoubleNbl, 100, 0x1.26f8c44597c9p-4, 0x1.860d4c2c237ep-5,
     0x1.079b30680ee1p-3, 0x1.5210369b7cabp-5, 0x1.7eae49bd112ap-5,
     0x1.a66f4db71ccap-6},
    {Protocol::DoubleNbl, 400, 0x1.e3ba49b64232p-4, 0x1.c5faf0942d77p-5,
     0x1.8fe96945a6004p-3, 0x1.2324654b639p-5, 0x1.55b006043d88p-5,
     0x1.f6faf80ce7b2p-5},
    {Protocol::DoubleNbl, 1200, 0x1.2dedb8a46859p-2, 0x1.0bd6e8c462734p-3,
     0x1.e90b04da61f6ap-2, 0x1.32ec02f86219p-4, 0x1.52e0fa18574p-4,
     0x1.5e8bf6abe4cf8p-3},
    {Protocol::DoubleBof, 100, 0x1.2d6f87c7f6228p-4, 0x1.8b250dfa716ep-5,
     0x1.0a9a22220b3ap-3, 0x1.59f1e1af4d2dp-5, 0x1.868105ab52bap-5,
     0x1.bbc983deb8fap-6},
    {Protocol::DoubleBof, 400, 0x1.ea576f7269fd8p-4, 0x1.cb30f04841d3p-5,
     0x1.92e1745b93f1cp-3, 0x1.2b1dc421e3fcp-5, 0x1.5d99d92cc98fp-5,
     0x1.00dc682ea0e1p-4},
    {Protocol::DoubleBof, 1200, 0x1.2f9723fa36608p-2, 0x1.0d2616cc64574p-3,
     0x1.ea40f3a660ddcp-2, 0x1.36cee26cc1bf8p-4, 0x1.56bbaec2d23b8p-4,
     0x1.613c5ad19152cp-3},
    {Protocol::Triple, 100, 0x1.ff925fb97c99p-5, 0x1.359e96dac77dp-5,
     0x1.ea6bb8e7600cp-4, 0x1.01184c48a2e9p-5, 0x1.2e2c20459d38p-5,
     0x1.7afc935a6a16p-6},
    {Protocol::Triple, 400, 0x1.daa0f6b6b7b9p-4, 0x1.b27d2f16cecap-5,
     0x1.8bc2aa05571acp-3, 0x1.0f3da2cf201bp-5, 0x1.41e9db78f767p-5,
     0x1.f1c79c3fe25ap-5},
    {Protocol::Triple, 1200, 0x1.2d534b150a1eap-2, 0x1.0a5a309b7c694p-3,
     0x1.e8989bd9116aep-2, 0x1.2fc1a6276d848p-4, 0x1.4fbd72ecf22ap-4,
     0x1.5e2a1fcc44964p-3},
    {Protocol::TripleBof, 100, 0x1.0d964e7720018p-4, 0x1.407e44740d28p-5,
     0x1.f6df0930ee89p-4, 0x1.1151b7a096c2p-5, 0x1.3e4a29340292p-5,
     0x1.a639226c52dcp-6},
    {Protocol::TripleBof, 400, 0x1.e813e1afb33b8p-4, 0x1.bd15cb3a8227p-5,
     0x1.91c0913502da8p-3, 0x1.1f4d610fcd29p-5, 0x1.51db21b053c3p-5,
     0x1.03aa2f8ab684p-4},
    {Protocol::TripleBof, 1200, 0x1.30aadd25f35e6p-2, 0x1.0cfc471b0fe64p-3,
     0x1.eb05f3daa12dep-2, 0x1.378be09e59bf8p-4, 0x1.57777167a245p-4,
     0x1.638c548866054p-3},
};

Parameters parity_params() {
  Parameters params = base_scenario().at_phi_ratio(0.25).with_mtbf(3600.0);
  params.nodes = 12;
  return params;
}

const SdcSpec kSdc{2e-4, 10.0, 2};
const PredictorSpec kJustInTime{0.7, 0.6, 0.0, 5.0};
const PredictorSpec kWindowed{0.8, 0.7, 60.0, 10.0};

DcpSpec parity_dcp() {
  DcpSpec dcp;
  dcp.dirty_fraction = 0.1;
  dcp.stack_size = 6;
  dcp.hash_overhead = 0.02;
  return dcp;
}

TEST(ExtensionsParityTest, EveryAxisMatchesItsFormerFunction) {
  const auto params = parity_params();
  for (const auto& row : kParity) {
    const auto at = [&](const Extensions& ext) {
      return waste(row.protocol, params, row.period, ext);
    };
    SCOPED_TRACE(std::string(protocol_name(row.protocol)) +
                 " P=" + std::to_string(row.period));
    Extensions ext;  // one axis on at a time
    ext.weibull = {0.5, 50000.0};
    EXPECT_EQ(at(ext), row.weibull_low);
    ext.weibull = {1.5, 50000.0};
    EXPECT_EQ(at(ext), row.weibull_high);
    ext = {};
    ext.sdc = kSdc;
    EXPECT_EQ(at(ext), row.sdc);
    ext = {};
    ext.predictor = kJustInTime;
    EXPECT_EQ(at(ext), row.predictor_jit);
    ext.predictor = kWindowed;
    EXPECT_EQ(at(ext), row.predictor_windowed);
    ext = {};
    ext.dcp = parity_dcp();
    const double dcp = at(ext);
    if (row.protocol == Protocol::DoubleBof ||
        row.protocol == Protocol::TripleBof) {
      // The former dcp function grouped m (theta - phi) (and TripleBoF's
      // m (theta - 2 phi + phi theta / P)) apart from the paper's F. The
      // one F keeps Eq. 8's grouping, so that the paper's model stays
      // exact, and the dcp value of these two may move by a few ulps (at
      // most 8, 1.5e-15 relative, over both scenarios x 5 MTBFs x 6 phi/R
      // x 7 periods).
      EXPECT_NEAR(dcp, row.dcp, 1e-13 * row.dcp);
    } else {
      EXPECT_EQ(dcp, row.dcp);
    }
  }
}

TEST(ExtensionsParityTest, AxesSwitchedOffAreThePaperModel) {
  // Each axis's off switch (shape 1, verify_every 0, recall 0, stack 0)
  // leaves the paper's model bit for bit, whatever its other fields say.
  const auto params = parity_params();
  Extensions off;
  off.weibull = {1.0, 50000.0};
  off.sdc = {0.0, 10.0, 0};
  off.predictor = {0.7, 0.0, 60.0, 10.0};
  off.dcp = parity_dcp();
  off.dcp.stack_size = 0;
  for (const auto& row : kParity) {
    EXPECT_EQ(waste(row.protocol, params, row.period, off),
              waste(row.protocol, params, row.period));
    EXPECT_EQ(expected_failure_cost(row.protocol, params, row.period, off),
              expected_failure_cost(row.protocol, params, row.period));
  }
}

TEST(ExtensionsCompositionTest, SdcFactorFollowsTheDcpWaste) {
  // docs/MODEL.md Sec. 5: the dcp multipliers act inside F and W_ff, Eq. 5
  // composes them, and the silent-error factor then scales the survival,
  // with a verified rollback paying the dcp chain replay g on its R
  // transfers.
  const auto params = parity_params();
  const auto dcp = parity_dcp();
  const double g = recovery_multiplier(dcp);
  Extensions dcp_only;
  dcp_only.dcp = dcp;
  Extensions dcp_and_sdc = dcp_only;
  dcp_and_sdc.sdc = kSdc;
  const double k = static_cast<double>(kSdc.verify_every);
  for (const auto protocol : kAllProtocols) {
    for (const double period : {100.0, 400.0, 1200.0}) {
      const double inner = waste(protocol, params, period, dcp_only);
      const double rollback =
          recovery_transfers(protocol) * g * params.recovery();
      const double expected =
          1.0 - (1.0 - inner) * (1.0 - kSdc.verify_cost / (k * period)) *
                    (1.0 - kSdc.rate * (rollback + (k + 1.0) * period / 2.0));
      EXPECT_EQ(waste(protocol, params, period, dcp_and_sdc), expected)
          << protocol_name(protocol) << " P=" << period;
    }
  }
}

}  // namespace
