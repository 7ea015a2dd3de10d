// Socket-level tests for the poll()-based serve front end (sim::Server):
// line framing across arbitrary recv boundaries, pipelining, CRLF and
// blank lines, the overlong-line guard, partial-write resumption (the
// short-write truncation regression), admission control / busy shedding,
// HEALTH/DRAIN, deadlines, and disconnect accounting. Each test runs a
// real server on an auto-picked loopback port with tight deadlines so the
// whole file stays in the fast lane. The campaign-scale adversarial
// harness is tests/serve_torture.cpp.
#include "sim/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/service.hpp"
#include "util/json.hpp"

namespace {

using namespace dckpt;

/// Server under test running on its own thread. Deadlines default tight
/// enough that nothing in this file waits longer than a few hundred ms.
class ServerFixture {
 public:
  explicit ServerFixture(sim::ServerOptions options = tight_options(),
                         sim::EvalServiceOptions service_options = {})
      : service_(service_options), server_(service_, options) {
    if (!server_.start()) throw std::runtime_error("server start failed");
    thread_ = std::thread([this] {
      exit_code_ = server_.run();
      done_.store(true);
    });
  }

  ~ServerFixture() { stop(); }

  static sim::ServerOptions tight_options() {
    sim::ServerOptions options;
    options.read_idle_ms = 2000;
    options.write_stall_ms = 2000;
    return options;
  }

  int port() const { return server_.port(); }

  /// Joins the loop (requesting a drain if still running) and returns the
  /// counters, which are only data-race-free to read after the join.
  const sim::ServerCounters& stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    EXPECT_EQ(exit_code_, 0);
    return server_.counters();
  }

  /// True once run() returned (the loop exited on its own).
  bool exited() const { return done_.load(); }

  /// Spins (bounded) until run() exits without a stop request, for tests
  /// where DRAIN or --once must stop the server by themselves.
  bool wait_exited(int timeout_ms = 2000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!exited() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return exited();
  }

 private:
  sim::EvalService service_;
  sim::Server server_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  int exit_code_ = -1;
};

/// Blocking loopback client with a poll()-guarded line reader so a server
/// bug shows up as a test failure, never a hang.
class Client {
 public:
  explicit Client(int port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket");
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      throw std::runtime_error("client connect");
    }
  }

  ~Client() { close(); }

  /// Turns off Nagle's algorithm on the client side, as a latency-minded
  /// client (and perfbench's) does.
  void set_nodelay() {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

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
      ASSERT_GT(wrote, 0) << "client send failed";
      sent += static_cast<std::size_t>(wrote);
    }
  }

  /// Next newline-terminated line (without the newline); empty string on
  /// EOF or timeout.
  std::string read_line(int timeout_ms = 2000) {
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
      if (left <= 0) return {};
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) return {};
      char chunk[4096];
      const auto got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  util::JsonValue read_json(int timeout_ms = 2000) {
    const std::string line = read_line(timeout_ms);
    if (line.empty()) {
      ADD_FAILURE() << "expected a reply line, got EOF/timeout";
      return {};
    }
    return util::parse_json(line);
  }

  /// True once the server closed its end (EOF within the timeout).
  bool at_eof(int timeout_ms = 2000) {
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

std::string sim_line(int seed, int trials = 25) {
  return "EVAL kind=sim protocol=DoubleNBL mtbf=900 nodes=8 tbase=2000 "
         "period=100 trials=" +
         std::to_string(trials) + " seed=" + std::to_string(seed);
}

TEST(Server, FramesRequestsSplitAcrossRecvBoundaries) {
  ServerFixture fixture;
  Client client(fixture.port());
  // One byte per segment: the classic torture test for line reassembly.
  client.send_all("EVAL kind=period protocol=Triple mtbf=3600\n", 1);
  const auto v = client.read_json();
  EXPECT_EQ(v.at("record").as_string(), "eval");
  EXPECT_EQ(v.at("kind").as_string(), "period");
  client.send_all("QUIT\n", 1);
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.disconnects, 0u);
}

TEST(Server, AnswersPipelinedRequestsInOrder) {
  ServerFixture fixture;
  Client client(fixture.port());
  std::string batch;
  for (int i = 0; i < 5; ++i) {
    batch += "EVAL kind=waste protocol=Triple mtbf=" +
             std::to_string(3600 + i * 100) + " period=600\n";
  }
  batch += "STATS\nQUIT\n";
  client.send_all(batch);
  for (int i = 0; i < 5; ++i) {
    const auto v = client.read_json();
    ASSERT_EQ(v.at("record").as_string(), "eval") << "reply " << i;
  }
  EXPECT_EQ(client.read_json().at("record").as_string(), "serve_stats");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  EXPECT_TRUE(client.at_eof());
  fixture.stop();
}

TEST(Server, AcceptsCrlfAndSkipsBlankLines) {
  ServerFixture fixture;
  Client client(fixture.port());
  client.send_all(
      "\r\n\nEVAL kind=period protocol=Triple mtbf=3600\r\n\r\nQUIT\r\n");
  EXPECT_EQ(client.read_json().at("record").as_string(), "eval");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  fixture.stop();
}

TEST(Server, OverlongLineAnswersTypedErrorAndConnectionSurvives) {
  auto options = ServerFixture::tight_options();
  options.max_line = 128;
  ServerFixture fixture(options);
  Client client(fixture.port());
  client.send_all(std::string(300, 'x') + "\n");
  const auto error = client.read_json();
  EXPECT_EQ(error.at("record").as_string(), "eval_error");
  EXPECT_EQ(error.at("code").as_string(), "overlong");
  // The same connection keeps working after the oversized line.
  client.send_all("EVAL kind=period protocol=Triple mtbf=3600\nQUIT\n");
  EXPECT_EQ(client.read_json().at("record").as_string(), "eval");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.overlong_lines, 1u);
}

TEST(Server, NewlineFreeFloodIsBoundedAndAnswered) {
  auto options = ServerFixture::tight_options();
  options.max_line = 256;
  ServerFixture fixture(options);
  Client client(fixture.port());
  // 64 KiB without a newline: the guard must fire exactly once, not per
  // chunk, and memory stays bounded by max_line + one read chunk.
  client.send_all(std::string(65536, 'y'));
  const auto error = client.read_json();
  EXPECT_EQ(error.at("code").as_string(), "overlong");
  client.send_all("\nSTATS\nQUIT\n");
  EXPECT_EQ(client.read_json().at("record").as_string(), "serve_stats");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.overlong_lines, 1u);
}

TEST(Server, ShedsHeavyWorkWithTypedBusyOnceQueueIsFull) {
  auto options = ServerFixture::tight_options();
  options.queue_depth = 1;
  ServerFixture fixture(options);
  Client client(fixture.port());
  // Three distinct uncached sims in one segment: the first fills the
  // bounded queue, the other two must shed with code=busy -- and the
  // replies still arrive in request order.
  client.send_all(sim_line(1) + "\n" + sim_line(2) + "\n" + sim_line(3) +
                  "\nQUIT\n");
  const auto first = client.read_json();
  EXPECT_EQ(first.at("record").as_string(), "eval");
  EXPECT_EQ(first.at("kind").as_string(), "sim");
  for (int i = 0; i < 2; ++i) {
    const auto busy = client.read_json();
    EXPECT_EQ(busy.at("record").as_string(), "eval_error");
    EXPECT_EQ(busy.at("code").as_string(), "busy");
  }
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.shed, 2u);
}

TEST(Server, CachedSimIsLightAndBypassesTheQueue) {
  auto options = ServerFixture::tight_options();
  options.queue_depth = 1;
  ServerFixture fixture(options);
  Client client(fixture.port());
  client.send_all(sim_line(7) + "\n");
  EXPECT_EQ(client.read_json().at("cached").as_bool(), false);
  // Replay plus a fresh heavy request in one segment: the cached replay
  // is light, so only the fresh sim occupies the queue -- nothing sheds.
  client.send_all(sim_line(7) + "\n" + sim_line(8) + "\nQUIT\n");
  EXPECT_EQ(client.read_json().at("cached").as_bool(), true);
  EXPECT_EQ(client.read_json().at("cached").as_bool(), false);
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.shed, 0u);
}

TEST(Server, RepliesKeepRequestOrderAcrossHeavyWork) {
  ServerFixture fixture;
  Client client(fixture.port());
  // A heavy sim followed by an instant closed-form query: the light reply
  // must wait behind the sim's pending slot.
  client.send_all(sim_line(11) +
                  "\nEVAL kind=period protocol=Triple mtbf=3600\nQUIT\n");
  EXPECT_EQ(client.read_json().at("kind").as_string(), "sim");
  EXPECT_EQ(client.read_json().at("kind").as_string(), "period");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  fixture.stop();
}

TEST(Server, LightReplyBehindASimIsNotHeldForTheDelayedAck) {
  ServerFixture fixture;
  Client client(fixture.port());
  client.set_nodelay();
  // A fresh connection ACKs at once (quick-ACK mode), which would hide
  // the stall; a few round trips move it to delayed ACKs.
  for (int i = 0; i < 20; ++i) {
    client.send_all("EVAL kind=period protocol=Triple mtbf=3600\n");
    ASSERT_EQ(client.read_json().at("kind").as_string(), "period");
  }
  // The light reply is queued behind the sim's and sent by its own send().
  // With Nagle on at the server it waits for the ACK of the sim reply,
  // which the client delays by at least 40 ms.
  client.send_all(sim_line(23, 10) + "\n");
  client.send_all("EVAL kind=waste protocol=Triple mtbf=3600 period=600\n");
  EXPECT_EQ(client.read_json().at("kind").as_string(), "sim");
  const auto sim_reply_at = std::chrono::steady_clock::now();
  EXPECT_EQ(client.read_json().at("kind").as_string(), "waste");
  const auto gap = std::chrono::steady_clock::now() - sim_reply_at;
  EXPECT_LT(gap, std::chrono::milliseconds(25));
  fixture.stop();
}

TEST(Server, ResumesShortWritesWithoutTruncation) {
  auto options = ServerFixture::tight_options();
  options.sndbuf = 4096;  // force partial send() under backpressure
  ServerFixture fixture(options);
  Client client(fixture.port(), /*rcvbuf=*/2048);
  // ~30 serve_stats replies (~500 bytes each) overflow the shrunken
  // buffers while the client is not reading; every reply must still
  // arrive complete once it does read. The pre-rewrite server truncated
  // here (send() treated as all-or-nothing).
  std::string batch;
  for (int i = 0; i < 30; ++i) batch += "STATS\n";
  client.send_all(batch);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 30; ++i) {
    const auto v = client.read_json();
    ASSERT_EQ(v.at("record").as_string(), "serve_stats")
        << "reply " << i << " truncated or lost";
  }
  client.send_all("QUIT\n");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.write_timeouts, 0u);
}

TEST(Server, ClosesIdleConnectionsWithTimeoutError) {
  auto options = ServerFixture::tight_options();
  options.read_idle_ms = 60;
  ServerFixture fixture(options);
  Client client(fixture.port());
  const auto farewell = client.read_json(/*timeout_ms=*/2000);
  EXPECT_EQ(farewell.at("record").as_string(), "eval_error");
  EXPECT_EQ(farewell.at("code").as_string(), "timeout");
  EXPECT_TRUE(client.at_eof());
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.read_timeouts, 1u);
  EXPECT_EQ(counters.disconnects, 0u);  // the server closed, not the peer
}

TEST(Server, ReapsStalledWritersAfterWriteDeadline) {
  auto options = ServerFixture::tight_options();
  options.sndbuf = 4096;
  options.high_water = 8192;
  options.write_stall_ms = 100;
  options.read_idle_ms = 10000;  // the stall must fire first
  ServerFixture fixture(options);
  Client client(fixture.port(), /*rcvbuf=*/2048);
  // Enough replies to wedge both socket buffers, then never read.
  std::string batch;
  for (int i = 0; i < 80; ++i) batch += "STATS\n";
  client.send_all(batch);
  // Never read. The replies wedge both socket buffers, the front slot
  // stops making progress, and the 100 ms stall deadline must reap the
  // connection. Poll the loop-thread-owned counter through a second,
  // well-behaved connection so there is no racy direct read.
  Client observer(fixture.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  double seen = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    observer.send_all("STATS\n");
    seen = observer.read_json().at("server").at("write_timeouts").as_number();
    if (seen == 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(seen, 1.0);
  observer.send_all("QUIT\n");
  EXPECT_EQ(observer.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.write_timeouts, 1u);
  EXPECT_EQ(counters.disconnects, 0u);  // a reap is a server-side close
}

TEST(Server, HealthReportsStatusAndDrainRejectsNewWork) {
  ServerFixture fixture;
  Client client(fixture.port());
  client.send_all("HEALTH\n");
  const auto health = client.read_json();
  EXPECT_EQ(health.at("record").as_string(), "health");
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("connections").as_number(), 1.0);
  // DRAIN + a late EVAL in one segment: the ack and the typed shutdown
  // rejection both flush before the server exits on its own.
  client.send_all("DRAIN\nEVAL kind=period protocol=Triple mtbf=3600\n");
  const auto drain = client.read_json();
  EXPECT_EQ(drain.at("record").as_string(), "drain");
  EXPECT_TRUE(drain.at("draining").as_bool());
  const auto rejected = client.read_json();
  EXPECT_EQ(rejected.at("record").as_string(), "eval_error");
  EXPECT_EQ(rejected.at("code").as_string(), "shutdown");
  EXPECT_TRUE(client.at_eof());
  EXPECT_TRUE(fixture.wait_exited()) << "DRAIN did not stop the server";
  fixture.stop();
}

TEST(Server, CountsMidRequestDisconnects) {
  ServerFixture fixture;
  {
    Client rude(fixture.port());
    rude.send_all("EVAL kind=per");  // no newline: an unfinished request
  }  // abrupt close
  // The disconnect counter is read through STATS (rendered on the loop
  // thread) so there is no racy direct access while the server runs.
  Client observer(fixture.port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  double seen = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    observer.send_all("STATS\n");
    const auto stats = observer.read_json();
    seen = stats.at("server").at("disconnects").as_number();
    if (seen == 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(seen, 1.0);
  observer.send_all("QUIT\n");
  EXPECT_EQ(observer.read_json().at("record").as_string(), "bye");
  const auto& counters = fixture.stop();
  EXPECT_EQ(counters.disconnects, 1u);
}

TEST(Server, QuitStopsParsingTrailingInput) {
  ServerFixture fixture;
  Client client(fixture.port());
  client.send_all("QUIT\nEVAL kind=period protocol=Triple mtbf=3600\n");
  EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  EXPECT_TRUE(client.at_eof());  // no reply for the post-QUIT request
  fixture.stop();
}

TEST(Server, OnceModeExitsAfterFirstConnectionCloses) {
  auto options = ServerFixture::tight_options();
  options.once = true;
  ServerFixture fixture(options);
  {
    Client client(fixture.port());
    client.send_all("EVAL kind=period protocol=Triple mtbf=3600\nQUIT\n");
    EXPECT_EQ(client.read_json().at("record").as_string(), "eval");
    EXPECT_EQ(client.read_json().at("record").as_string(), "bye");
  }
  EXPECT_TRUE(fixture.wait_exited()) << "--once did not stop the server";
  fixture.stop();
}

TEST(Server, OptionsAreValidated) {
  sim::EvalService service;
  sim::ServerOptions zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_THROW(sim::Server(service, zero_queue), std::invalid_argument);
  sim::ServerOptions bad_deadline;
  bad_deadline.read_idle_ms = 0;
  EXPECT_THROW(sim::Server(service, bad_deadline), std::invalid_argument);
  sim::ServerOptions bad_port;
  bad_port.port = 70000;
  EXPECT_THROW(sim::Server(service, bad_port), std::invalid_argument);
}

}  // namespace
