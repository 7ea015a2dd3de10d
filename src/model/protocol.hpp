// Protocol taxonomy for peer-to-peer in-memory checkpointing.
//
// The paper analyses a family of protocols sharing a three-part period
// P = (part1) + (part2) + sigma:
//
//   DoubleBlocking  Zheng/Shi/Kale 2004 [1]: local ckpt (delta), then a fully
//                   blocking buddy exchange (theta = theta_min, phi = theta_min).
//   DoubleNbl       Ni/Meneses/Kale 2012 [2]: buddy exchange overlapped with
//                   computation; after a failure the buddy copy is re-sent at
//                   overlapped speed theta(phi).
//   DoubleBof       this paper: like DoubleNbl in fault-free mode, but on
//                   failure both files are sent blocking in theta_min = R each.
//   Triple          this paper: processor triples; the local-checkpoint part
//                   is replaced by a second overlapped remote transfer.
//   TripleBof       variant mentioned in Sec. IV: blocking-on-failure triple
//                   (risk window D + 3R); waste model is our straightforward
//                   extension (add 2R blocking transfers, drop the 2*phi
//                   re-execution overhead).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace dckpt::model {

enum class Protocol {
  DoubleBlocking,
  DoubleNbl,
  DoubleBof,
  Triple,
  TripleBof,
};

/// All protocols, in presentation order.
inline constexpr std::array<Protocol, 5> kAllProtocols = {
    Protocol::DoubleBlocking, Protocol::DoubleNbl, Protocol::DoubleBof,
    Protocol::Triple, Protocol::TripleBof};

/// The three protocols compared in the paper's evaluation section.
inline constexpr std::array<Protocol, 3> kPaperProtocols = {
    Protocol::DoubleNbl, Protocol::DoubleBof, Protocol::Triple};

constexpr std::string_view protocol_name(Protocol p) noexcept {
  switch (p) {
    case Protocol::DoubleBlocking:
      return "DoubleBlocking";
    case Protocol::DoubleNbl:
      return "DoubleNBL";
    case Protocol::DoubleBof:
      return "DoubleBoF";
    case Protocol::Triple:
      return "Triple";
    case Protocol::TripleBof:
      return "TripleBoF";
  }
  return "?";
}

/// Number of processors per buddy group (2 for pairs, 3 for triples).
constexpr int group_size(Protocol p) noexcept {
  switch (p) {
    case Protocol::DoubleBlocking:
    case Protocol::DoubleNbl:
    case Protocol::DoubleBof:
      return 2;
    case Protocol::Triple:
    case Protocol::TripleBof:
      return 3;
  }
  return 2;
}

constexpr bool is_triple(Protocol p) noexcept { return group_size(p) == 3; }

/// Case-insensitive lookup by name ("doublenbl", "DoubleNBL", "triple",
/// ...); nullopt for unknown names. The CLI-facing inverse of
/// protocol_name().
std::optional<Protocol> protocol_from_name(std::string_view name) noexcept;

/// Like protocol_from_name but throws std::invalid_argument with the list
/// of valid names -- for command-line parsing.
Protocol parse_protocol_name(const std::string& name);

/// Number of blocking R transfers a recovery pays: the faulty node's own
/// image for every protocol, plus the buddy images a blocking-on-failure
/// variant re-sends (1 for DoubleNBL and Triple, 2 for DoubleBoF and
/// DoubleBlocking, 3 for TripleBoF).
constexpr int recovery_transfers(Protocol p) noexcept {
  switch (p) {
    case Protocol::DoubleNbl:
    case Protocol::Triple:
      return 1;
    case Protocol::DoubleBlocking:
    case Protocol::DoubleBof:
      return 2;
    case Protocol::TripleBof:
      return 3;
  }
  return 1;
}

/// True when failure recovery transfers run blocking at full network speed.
constexpr bool blocking_on_failure(Protocol p) noexcept {
  switch (p) {
    case Protocol::DoubleBlocking:
    case Protocol::DoubleBof:
    case Protocol::TripleBof:
      return true;
    case Protocol::DoubleNbl:
    case Protocol::Triple:
      return false;
  }
  return false;
}

}  // namespace dckpt::model
