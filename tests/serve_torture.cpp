// Fault-injecting torture harness for the poll()-based serve front end.
//
// Each scenario boots a real sim::Server on a loopback port and attacks
// it with adversarial clients: byte-at-a-time writers, CRLF and blank-line
// noise, newline-free floods, pipelined bursts past the shed limit, slow
// and stalled readers, mid-request disconnects, drains racing in-flight
// work, and a seeded fuzz mix. Scenarios assert EXACT counter values
// where the design makes them deterministic (single-segment pipelining
// guarantees parse order) and counter/observation parity where scheduling
// may vary (concurrent bursts). Reply correctness is checked byte-for-byte
// against an oracle EvalService fed the same lines in the same order.
//
// Deterministic by construction: `--seed` only feeds the fuzz scenario's
// generator. A global watchdog aborts the whole binary (exit 124) if any
// scenario wedges -- a hang is a failure, never a stuck CI lane.
//
// Usage: serve_torture [--seed N] [--scenario NAME] [--list]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/server.hpp"
#include "sim/service.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace {

using namespace dckpt;

struct Failure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void expect(bool ok, const std::string& what) {
  if (!ok) throw Failure(what);
}

sim::EvalServiceOptions torture_service_options() {
  sim::EvalServiceOptions options;
  options.default_trials = 25;  // sims answer in milliseconds
  return options;
}

sim::ServerOptions torture_server_options() {
  sim::ServerOptions options;
  options.read_idle_ms = 5000;
  options.write_stall_ms = 5000;
  return options;
}

/// Server under attack, on its own thread.
class Harness {
 public:
  explicit Harness(sim::ServerOptions options = torture_server_options())
      : service_(torture_service_options()), server_(service_, options) {
    expect(server_.start(), "server start failed");
    thread_ = std::thread([this] {
      exit_code_ = server_.run();
      done_.store(true);
    });
  }

  ~Harness() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  int port() const { return server_.port(); }
  bool exited() const { return done_.load(); }

  bool wait_exited(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!exited() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return exited();
  }

  /// Joins the loop; counters are race-free to read only after this.
  const sim::ServerCounters& stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    expect(exit_code_ == 0, "server run() exited nonzero");
    return server_.counters();
  }

 private:
  sim::EvalService service_;
  sim::Server server_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  int exit_code_ = -1;
};

/// Poll-guarded loopback client; every failure throws instead of hanging.
class Client {
 public:
  explicit Client(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    expect(fd_ >= 0, "client socket() failed");
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    expect(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0,
           "client connect() failed");
  }

  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_all(const std::string& data, std::size_t chunk = 0) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const std::size_t len = chunk == 0
                                  ? data.size() - sent
                                  : std::min(chunk, data.size() - sent);
      const auto wrote = ::send(fd_, data.data() + sent, len, MSG_NOSIGNAL);
      expect(wrote > 0, "client send() failed");
      sent += static_cast<std::size_t>(wrote);
    }
  }

  std::string read_line(int timeout_ms = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      expect(left > 0, "timed out waiting for a reply line");
      pollfd pfd{fd_, POLLIN, 0};
      expect(::poll(&pfd, 1, static_cast<int>(left)) > 0,
             "timed out waiting for a reply line");
      char chunk[4096];
      const auto got = ::recv(fd_, chunk, sizeof(chunk), 0);
      expect(got > 0, "connection closed while a reply was expected");
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  util::JsonValue read_json(int timeout_ms = 5000) {
    return util::parse_json(read_line(timeout_ms));
  }

  /// True once the server closed its end within the timeout.
  bool at_eof(int timeout_ms = 5000) {
    if (!buffer_.empty()) return false;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    char chunk[64];
    return ::recv(fd_, chunk, sizeof(chunk), 0) <= 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string sim_line(int seed) {
  return "EVAL kind=sim protocol=DoubleNBL mtbf=900 nodes=8 tbase=2000 "
         "period=100 trials=25 seed=" +
         std::to_string(seed);
}

std::vector<std::string> light_request_mix() {
  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    lines.push_back("EVAL kind=period protocol=Triple mtbf=" +
                    std::to_string(1800 + i * 250));
    lines.push_back("EVAL kind=waste protocol=DoubleNBL mtbf=" +
                    std::to_string(2400 + i * 300) + " period=600");
    lines.push_back("EVAL kind=risk protocol=Triple mtbf=3600 mission-hours=" +
                    std::to_string(12 + i));
  }
  // Repeats on purpose: the oracle must agree on cached=true replays too.
  lines.push_back("EVAL kind=period protocol=Triple mtbf=1800");
  lines.push_back("EVAL kind=waste protocol=DoubleNBL mtbf=2400 period=600");
  return lines;
}

/// Byte-compares each server reply with an oracle EvalService fed the
/// identical line sequence (valid on single-connection scenarios, where
/// arrival order -- hence cache state -- is fully determined).
void check_against_oracle(Client& client,
                          const std::vector<std::string>& lines) {
  sim::EvalService oracle(torture_service_options());
  for (const auto& line : lines) {
    const std::string got = client.read_line();
    const std::string want = oracle.handle_line(line);
    expect(got == want,
           "reply drifted from oracle for '" + line + "'\n  got:  " + got +
               "\n  want: " + want);
  }
}

// ------------------------------------------------------------- scenarios

/// One segment, forty mixed closed-form requests: every reply byte-equal
/// to the oracle, in request order.
void scenario_pipeline(std::uint64_t) {
  Harness harness;
  Client client(harness.port());
  const auto lines = light_request_mix();
  std::string batch;
  for (const auto& line : lines) batch += line + "\n";
  client.send_all(batch);
  check_against_oracle(client, lines);
  client.send_all("QUIT\n");
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  const auto& counters = harness.stop();
  expect(counters.accepted == 1, "accepted != 1");
  expect(counters.shed == 0, "light requests must never shed");
  expect(counters.disconnects == 0, "QUIT must not count as a disconnect");
}

/// The same mix dripped one byte per send(): framing must reassemble
/// identically.
void scenario_byte_at_a_time(std::uint64_t) {
  Harness harness;
  Client client(harness.port());
  const auto mix = light_request_mix();
  const std::vector<std::string> lines(mix.begin(), mix.begin() + 10);
  std::string batch;
  for (const auto& line : lines) batch += line + "\n";
  client.send_all(batch, /*chunk=*/1);
  check_against_oracle(client, lines);
  client.send_all("QUIT\n", /*chunk=*/1);
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  harness.stop();
}

/// CRLF terminators and blank-line noise: the parser strips both and the
/// replies still match the oracle of the clean lines.
void scenario_crlf_blank(std::uint64_t) {
  Harness harness;
  Client client(harness.port());
  const std::vector<std::string> lines = {
      "EVAL kind=period protocol=Triple mtbf=3600",
      "EVAL kind=waste protocol=DoubleNBL mtbf=2400 period=600",
      "EVAL kind=risk protocol=Triple mtbf=3600 mission-hours=24",
  };
  std::string batch = "\r\n\n\n";
  for (const auto& line : lines) batch += line + "\r\n\r\n\n";
  client.send_all(batch);
  check_against_oracle(client, lines);
  client.send_all("QUIT\r\n");
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  harness.stop();
}

/// Six unique heavy sims in one segment against queue_depth=2: the batch
/// parses before any job runs, so EXACTLY two are admitted and EXACTLY
/// four shed with code=busy -- and replies stay in request order.
void scenario_burst_shed(std::uint64_t) {
  auto options = torture_server_options();
  options.queue_depth = 2;
  Harness harness(options);
  Client client(harness.port());
  std::string batch;
  for (int seed = 1; seed <= 6; ++seed) batch += sim_line(seed) + "\n";
  client.send_all(batch + "QUIT\n");
  for (int i = 0; i < 2; ++i) {
    const auto v = client.read_json();
    expect(v.at("record").as_string() == "eval",
           "admitted sim " + std::to_string(i) + " did not answer eval");
  }
  for (int i = 0; i < 4; ++i) {
    const auto v = client.read_json();
    expect(v.at("record").as_string() == "eval_error" &&
               v.at("code").as_string() == "busy",
           "overflow sim " + std::to_string(i) + " was not shed with busy");
  }
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  const auto& counters = harness.stop();
  expect(counters.shed == 4, "shed != 4 (got " +
                                 std::to_string(counters.shed) + ")");
}

/// Eight concurrent clients burst three unique sims each. Scheduling
/// decides how many shed, so assert the parity invariant instead: the
/// busy replies the clients observe must equal the shed counter, and
/// every request gets exactly one reply.
void scenario_concurrent_burst(std::uint64_t) {
  auto options = torture_server_options();
  options.queue_depth = 2;
  Harness harness(options);
  constexpr int kClients = 8;
  constexpr int kPerClient = 3;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(harness.port()));
  }
  for (int c = 0; c < kClients; ++c) {
    std::string batch;
    for (int i = 0; i < kPerClient; ++i) {
      batch += sim_line(100 + c * kPerClient + i) + "\n";
    }
    clients[static_cast<std::size_t>(c)]->send_all(batch + "QUIT\n");
  }
  std::uint64_t evals = 0;
  std::uint64_t busy = 0;
  for (auto& client : clients) {
    for (int i = 0; i < kPerClient; ++i) {
      const auto v = client->read_json();
      if (v.at("record").as_string() == "eval") {
        ++evals;
      } else {
        expect(v.at("code").as_string() == "busy",
               "unexpected error code under concurrent burst");
        ++busy;
      }
    }
    expect(client->read_json().at("record").as_string() == "bye", "no bye");
  }
  const auto& counters = harness.stop();
  constexpr auto kRequests =
      static_cast<std::uint64_t>(kClients * kPerClient);
  expect(evals + busy == kRequests, "a request went unanswered");
  expect(busy == counters.shed,
         "busy replies (" + std::to_string(busy) +
             ") != shed counter (" + std::to_string(counters.shed) + ")");
  expect(evals >= 2, "the queue admitted fewer sims than its depth");
  expect(counters.accepted == static_cast<std::uint64_t>(kClients),
         "accepted != number of clients");
  expect(counters.peak_connections == static_cast<std::uint64_t>(kClients),
         "peak_connections wrong");
}

/// Five tagged overlong lines interleaved with valid work, plus a 64 KiB
/// newline-free flood on a second connection: exactly six overlong
/// rejections, all connections survive.
void scenario_overlong_flood(std::uint64_t) {
  auto options = torture_server_options();
  options.max_line = 256;
  Harness harness(options);
  Client client(harness.port());
  const std::string valid = "EVAL kind=period protocol=Triple mtbf=3600";
  std::string batch;
  for (int i = 0; i < 5; ++i) {
    batch += std::string(1000, 'x') + "\n" + valid + "\n";
  }
  client.send_all(batch);
  for (int i = 0; i < 5; ++i) {
    expect(client.read_json().at("code").as_string() == "overlong",
           "flood line " + std::to_string(i) + " not rejected as overlong");
    expect(client.read_json().at("record").as_string() == "eval",
           "valid line after flood line " + std::to_string(i) + " lost");
  }
  Client flooder(harness.port());
  flooder.send_all(std::string(65536, 'y'));  // no newline at all
  expect(flooder.read_json().at("code").as_string() == "overlong",
         "newline-free flood not rejected");
  flooder.send_all("\nQUIT\n");
  expect(flooder.read_json().at("record").as_string() == "bye", "no bye");
  client.send_all("QUIT\n");
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  const auto& counters = harness.stop();
  expect(counters.overlong_lines == 6,
         "overlong_lines != 6 (got " +
             std::to_string(counters.overlong_lines) + ")");
}

/// A reader that drains slowly through shrunken buffers: every one of the
/// 40 pipelined replies must arrive complete. This is the regression for
/// the short-write truncation bug in the pre-rewrite server.
void scenario_slow_reader(std::uint64_t) {
  auto options = torture_server_options();
  options.sndbuf = 4096;
  Harness harness(options);
  Client client(harness.port(), /*rcvbuf=*/2048);
  std::string batch;
  for (int i = 0; i < 40; ++i) batch += "STATS\n";
  client.send_all(batch);
  for (int i = 0; i < 40; ++i) {
    const auto v = client.read_json();
    expect(v.at("record").as_string() == "serve_stats",
           "reply " + std::to_string(i) + " truncated or lost");
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  client.send_all("QUIT\n");
  expect(client.read_json().at("record").as_string() == "bye", "no bye");
  const auto& counters = harness.stop();
  expect(counters.write_timeouts == 0, "slow reader must not be reaped");
}

/// A reader that stops draining entirely: the write-stall deadline reaps
/// it exactly once, observed through a well-behaved control connection.
void scenario_stall_reap(std::uint64_t) {
  auto options = torture_server_options();
  options.sndbuf = 4096;
  options.high_water = 8192;
  options.write_stall_ms = 100;
  Harness harness(options);
  Client wedged(harness.port(), /*rcvbuf=*/2048);
  std::string batch;
  for (int i = 0; i < 80; ++i) batch += "STATS\n";
  wedged.send_all(batch);  // and never read
  Client observer(harness.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double reaped = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    observer.send_all("STATS\n");
    reaped = observer.read_json().at("server").at("write_timeouts").as_number();
    if (reaped == 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  expect(reaped == 1.0, "stalled writer was not reaped");
  observer.send_all("QUIT\n");
  expect(observer.read_json().at("record").as_string() == "bye", "no bye");
  const auto& counters = harness.stop();
  expect(counters.write_timeouts == 1, "write_timeouts != 1");
  expect(counters.disconnects == 0, "a reap is a server-side close");
}

/// Three clients vanish mid-request (bytes sent, no newline, abrupt
/// close): the disconnect counter reaches exactly three.
void scenario_mid_disconnect(std::uint64_t) {
  Harness harness;
  for (int i = 0; i < 3; ++i) {
    Client rude(harness.port());
    rude.send_all("EVAL kind=per");  // an unfinished request
  }
  Client observer(harness.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double seen = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    observer.send_all("STATS\n");
    seen = observer.read_json().at("server").at("disconnects").as_number();
    if (seen == 3.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  expect(seen == 3.0, "disconnects != 3");
  observer.send_all("QUIT\n");
  expect(observer.read_json().at("record").as_string() == "bye", "no bye");
  harness.stop();
}

/// A client that connects and goes silent: the read-idle deadline closes
/// it with a best-effort typed farewell.
void scenario_read_idle(std::uint64_t) {
  auto options = torture_server_options();
  options.read_idle_ms = 60;
  Harness harness(options);
  Client client(harness.port());
  const auto farewell = client.read_json();
  expect(farewell.at("record").as_string() == "eval_error" &&
             farewell.at("code").as_string() == "timeout",
         "idle close did not send a typed timeout farewell");
  expect(client.at_eof(), "connection not closed after idle farewell");
  const auto& counters = harness.stop();
  expect(counters.read_timeouts == 1, "read_timeouts != 1");
}

/// DRAIN races an in-flight sim and a late request in one segment: the
/// sim completes (drained=1), the late request answers code=shutdown,
/// everything flushes, and run() exits on its own with code 0.
void scenario_drain(std::uint64_t) {
  Harness harness;
  Client client(harness.port());
  client.send_all(sim_line(42) + "\nDRAIN\nEVAL kind=period " +
                  "protocol=Triple mtbf=3600\n");
  expect(client.read_json().at("record").as_string() == "eval",
         "in-flight sim must complete across a drain");
  const auto ack = client.read_json();
  expect(ack.at("record").as_string() == "drain" &&
             ack.at("draining").as_bool(),
         "DRAIN not acknowledged");
  expect(client.read_json().at("code").as_string() == "shutdown",
         "post-drain request not rejected with code=shutdown");
  expect(client.at_eof(), "connection not closed after drain");
  expect(harness.wait_exited(), "run() did not exit after the drain");
  const auto& counters = harness.stop();
  expect(counters.drained == 1, "drained != 1");
}

/// --once: the server retires itself after its first connection closes.
void scenario_once(std::uint64_t) {
  auto options = torture_server_options();
  options.once = true;
  Harness harness(options);
  {
    Client client(harness.port());
    client.send_all("EVAL kind=period protocol=Triple mtbf=3600\nQUIT\n");
    expect(client.read_json().at("record").as_string() == "eval", "no eval");
    expect(client.read_json().at("record").as_string() == "bye", "no bye");
  }
  expect(harness.wait_exited(), "--once did not stop the server");
  harness.stop();
}

/// Seeded chaos: six connections each firing a random mix of valid
/// requests, garbage, oversize lines, noise bytes, and abrupt exits. The
/// invariant is liveness and protocol shape -- every completed line gets
/// exactly one JSON reply, and the server stays healthy throughout.
void scenario_fuzz(std::uint64_t seed) {
  auto options = torture_server_options();
  options.max_line = 512;
  options.queue_depth = 2;
  Harness harness(options);
  std::mt19937_64 rng(seed);
  for (int c = 0; c < 6; ++c) {
    Client client(harness.port());
    std::uniform_int_distribution<int> action(0, 5);
    int expected_replies = 0;
    std::string batch;
    bool abrupt = false;
    for (int i = 0; i < 30 && !abrupt; ++i) {
      switch (action(rng)) {
        case 0:
          batch += "EVAL kind=period protocol=Triple mtbf=" +
                   std::to_string(600 + (rng() % 6000)) + "\n";
          ++expected_replies;
          break;
        case 1:
          batch += sim_line(static_cast<int>(rng() % 8)) + "\n";
          ++expected_replies;  // eval or busy, either is one reply
          break;
        case 2:
          batch += "EVAL kind=" + std::string(1 + rng() % 8, 'z') + "\n";
          ++expected_replies;  // typed parse error
          break;
        case 3:
          batch += std::string(600 + rng() % 600, 'x') + "\n";
          ++expected_replies;  // typed overlong error
          break;
        case 4:
          batch += "\r\n\n";  // pure noise, no reply
          break;
        default:
          abrupt = (rng() % 4 == 0);  // sometimes vanish mid-session
          break;
      }
    }
    client.send_all(batch);
    for (int i = 0; i < expected_replies; ++i) {
      const auto v = client.read_json();
      const std::string record = v.at("record").as_string();
      expect(record == "eval" || record == "eval_error",
             "fuzz reply " + std::to_string(i) + " has record " + record);
    }
    if (abrupt) {
      client.close();
    } else {
      client.send_all("QUIT\n");
      expect(client.read_json().at("record").as_string() == "bye", "no bye");
    }
  }
  Client control(harness.port());
  control.send_all("HEALTH\nQUIT\n");
  expect(control.read_json().at("status").as_string() == "ok",
         "server unhealthy after fuzz");
  expect(control.read_json().at("record").as_string() == "bye", "no bye");
  harness.stop();
}

struct Scenario {
  const char* name;
  void (*run)(std::uint64_t seed);
};

constexpr Scenario kScenarios[] = {
    {"pipeline", scenario_pipeline},
    {"byte-at-a-time", scenario_byte_at_a_time},
    {"crlf-blank", scenario_crlf_blank},
    {"burst-shed", scenario_burst_shed},
    {"concurrent-burst", scenario_concurrent_burst},
    {"overlong-flood", scenario_overlong_flood},
    {"slow-reader", scenario_slow_reader},
    {"stall-reap", scenario_stall_reap},
    {"mid-disconnect", scenario_mid_disconnect},
    {"read-idle", scenario_read_idle},
    {"drain", scenario_drain},
    {"once", scenario_once},
    {"fuzz", scenario_fuzz},
};

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      const auto parsed = dckpt::util::parse_number<std::uint64_t>(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr,
                     "serve_torture: option --seed: invalid value '%s'\n",
                     argv[i]);
        return 2;
      }
      seed = parsed.value;
    } else if (arg == "--scenario" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--list") {
      for (const auto& scenario : kScenarios) std::puts(scenario.name);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: serve_torture [--seed N] [--scenario NAME] "
                   "[--list]\n");
      return 2;
    }
  }

  // A wedged scenario must fail loudly, not hang the suite.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(60));
    std::fputs("serve_torture: watchdog expired, aborting\n", stderr);
    ::_exit(124);
  }).detach();

  int failures = 0;
  int ran = 0;
  for (const auto& scenario : kScenarios) {
    if (!only.empty() && only != scenario.name) continue;
    ++ran;
    try {
      scenario.run(seed);
      std::printf("[ ok ] %s\n", scenario.name);
    } catch (const std::exception& error) {
      ++failures;
      std::printf("[FAIL] %s: %s\n", scenario.name, error.what());
    }
  }
  if (ran == 0) {
    std::fprintf(stderr, "no scenario named '%s'\n", only.c_str());
    return 2;
  }
  std::printf("%d/%d scenarios passed (seed %llu)\n", ran - failures, ran,
              static_cast<unsigned long long>(seed));
  return failures == 0 ? 0 : 1;
}
