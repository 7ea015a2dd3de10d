// serve-mixed: an in-process sim::Server on loopback, driven by one client
// thread over four connections.
//
//   * Open loop: Poisson arrivals at a fixed rate; each request is timed
//     from when it was due, so a stall shows on every request behind it.
//   * Closed loop: four connections, one request outstanding on each; the
//     completed replies per second are the workload's throughput.
//
// Both phases draw from the same mix: ~85 % closed-form waste/period/risk
// requests from a key pool that fits the service's 1024-entry LRU, ~10 %
// repeats of a few kind=sim requests (cache hits after warm-up), and ~5 %
// fresh kind=sim requests with a unique seed, a quarter of them Weibull. Every
// reply is checked after the timed region against a direct
// EvalService::handle_line of the same line.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "model/model_api.hpp"
#include "sim/server.hpp"
#include "sim/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sim = dckpt::sim;

namespace {

constexpr std::size_t kConnections = 4;
// Open-loop arrival rate. With fresh sims 5 % of the traffic at a few ms
// each, the heavy queue stays far from its depth of 4, so the unmodified
// tree sheds nothing.
constexpr double kOpenRate = 400.0;
// The mix is stratified, so every seed gets exactly these shares: each
// block of 20 requests holds 17 light, 2 repeated-sim and 1 fresh-sim
// request in seeded order.
constexpr int kBlockLight = 17;
constexpr int kBlockRepeat = 2;
constexpr int kBlock = 20;
constexpr std::size_t kLightPool = 240;  // fits the 1024-entry LRU
constexpr std::size_t kRepeatPool = 6;
constexpr int kWeibullEvery = 4;  // one fresh sim in four is Weibull
// Weibull sims keep one failure stream per node; a small platform keeps
// them within a few times the cost of the exponential ones.
constexpr int kWeibullNodes = 108;
constexpr std::uint64_t kSimTrials = 400;  // the service default
constexpr int kSetupReps = 15;
constexpr int kTransportProbes = 400;
constexpr std::size_t kEngineJobs = 24;
// A reply not seen this long after the phase ends counts as missing.
constexpr auto kDrainGrace = std::chrono::seconds(10);

enum class Class { kLight, kCachedSim, kSim };

struct SimParams {
  std::string protocol;
  double mtbf = 0.0;
  int nodes = 0;  // 0 = scenario default
  bool weibull = false;
  std::uint64_t seed = 0;
};

struct Request {
  std::string line;
  std::string kind;
  Class cls = Class::kLight;
  SimParams sim;  ///< kSim only
};

const char* const kProtocols[] = {"DoubleBlocking", "DoubleNBL", "DoubleBoF",
                                  "Triple", "TripleBoF"};
const double kMtbfs[] = {7200.0, 14400.0, 25200.0, 43200.0, 86400.0};
const double kPhis[] = {0.1, 0.25, 0.5, 1.0};
const char* const kLightKinds[] = {"waste", "period", "risk"};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string sim_line(const SimParams& p) {
  std::string line = "EVAL kind=sim protocol=" + p.protocol +
                     " mtbf=" + fmt(p.mtbf) +
                     " seed=" + std::to_string(p.seed);
  if (p.weibull) {
    line += " weibull-shape=0.7 nodes=" + std::to_string(p.nodes);
  }
  return line;
}

/// The request mix of one run, all drawn from the seed. Requests live here
/// (pool entries, and fresh sims in a deque), so the client keeps pointers.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed) {
    std::vector<Request> all;
    for (const char* kind : kLightKinds) {
      for (const char* protocol : kProtocols) {
        for (const double mtbf : kMtbfs) {
          for (const double phi : kPhis) {
            Request r;
            r.kind = kind;
            r.line = std::string("EVAL kind=") + kind + " protocol=" +
                     protocol + " mtbf=" + fmt(mtbf) + " phi-ratio=" + fmt(phi);
            all.push_back(r);
          }
        }
      }
    }
    for (std::size_t i = 0; i < kLightPool; ++i) {
      std::swap(all[i], all[i + rng_.next_below(all.size() - i)]);
      pool_.push_back(all[i]);
    }
    for (std::size_t i = 0; i < kRepeatPool; ++i) {
      Request r;
      r.kind = "sim";
      r.cls = Class::kCachedSim;
      r.sim = draw_sim();
      r.line = sim_line(r.sim);
      pool_.push_back(r);
    }
  }

  /// The light keys and the repeated sims; the warm-up sends each once.
  const std::vector<Request>& pool() const noexcept { return pool_; }

  const Request* next() {
    const int slot = draw(block_, kBlock);
    if (slot < kBlockLight) return &pool_[rng_.next_below(kLightPool)];
    if (slot < kBlockLight + kBlockRepeat) {
      return &pool_[kLightPool + rng_.next_below(kRepeatPool)];
    }
    Request r;
    r.kind = "sim";
    r.cls = Class::kSim;
    r.sim = draw_sim();
    r.line = sim_line(r.sim);
    fresh_.push_back(std::move(r));
    return &fresh_.back();
  }

  double exponential_gap(double rate) {
    return -std::log(rng_.next_double_open_zero()) / rate;
  }

 private:
  /// Next slot of a stratum: a seeded permutation of 0..size-1, redrawn
  /// when used up.
  int draw(std::vector<int>& bag, int size) {
    if (bag.empty()) {
      for (int i = 0; i < size; ++i) bag.push_back(i);
      for (std::size_t i = bag.size() - 1; i > 0; --i) {
        std::swap(bag[i], bag[rng_.next_below(i + 1)]);
      }
    }
    const int slot = bag.back();
    bag.pop_back();
    return slot;
  }

  SimParams draw_sim() {
    SimParams p;
    p.protocol = kProtocols[rng_.next_below(std::size(kProtocols))];
    p.mtbf = kMtbfs[1 + rng_.next_below(3)];  // 14400 .. 43200
    p.weibull = draw(weibull_, kWeibullEvery) == 0;
    if (p.weibull) p.nodes = kWeibullNodes;
    p.seed = ++fresh_seed_ * 7919 + rng_.next_below(1000);
    return p;
  }

  dckpt::util::Xoshiro256ss rng_;
  std::vector<int> block_;
  std::vector<int> weibull_;
  std::uint64_t fresh_seed_ = 0;
  std::vector<Request> pool_;  ///< kLightPool light keys, then the repeats
  std::deque<Request> fresh_;
};

/// The service's SimConfig for a kind=sim request (what handle_eval builds).
EngineJob engine_job(const SimParams& p) {
  EngineJob job;
  job.config.protocol = dckpt::model::parse_protocol_name(p.protocol);
  job.config.params =
      dckpt::model::base_scenario().at_phi_ratio(0.25).with_mtbf(p.mtbf);
  if (p.nodes > 0) job.config.params.nodes = static_cast<std::uint64_t>(p.nodes);
  job.config.t_base = 100000.0;
  job.config.stop_on_fatal = false;
  job.config.period = dckpt::model::optimal_period_closed_form(
                          job.config.protocol, job.config.params)
                          .period;
  job.options.trials = kSimTrials;
  job.options.seed = p.seed;
  if (p.weibull) {
    job.options.weibull =
        dckpt::util::Weibull::from_mean(0.7, job.config.params.node_mtbf());
  }
  return job;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Client side of up to four connections, multiplexed on one thread.
/// Replies are matched to requests in per-connection send order.
class Client {
 public:
  using OnReply = std::function<void(std::size_t conn, std::size_t request,
                                     std::string&& text, Clock::time_point at)>;

  Client(int port, std::size_t connections) {
    for (std::size_t i = 0; i < connections; ++i) {
      conns_.push_back(Conn{connect_loopback(port), {}, {}, {}});
    }
  }
  ~Client() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::size_t size() const noexcept { return conns_.size(); }
  std::size_t outstanding() const noexcept { return outstanding_; }

  void send(std::size_t conn, std::size_t request, const std::string& line) {
    Conn& c = conns_[conn];
    c.out += line;
    c.out += '\n';
    c.waiting.push_back(request);
    ++outstanding_;
    flush(c);
  }

  /// Busy-polls for socket activity until `deadline`, then handles it.
  /// Spinning keeps the client's own wake-up latency out of the replies'
  /// timing and the arrivals punctual; it costs the client one core.
  void pump(Clock::time_point deadline, const OnReply& on_reply) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    int ready = 0;
    do {
      ready = ::poll(fds.data(), fds.size(), 0);
    } while (ready == 0 && Clock::now() < deadline);
    if (ready <= 0) return;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) flush(c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(i, on_reply);
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    std::deque<std::size_t> waiting;
  };

  void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) return;  // EAGAIN: POLLOUT resumes; errors show as missing
      c.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  void read(std::size_t index, const OnReply& on_reply) {
    Conn& c = conns_[index];
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) break;
      c.in.append(buf, static_cast<std::size_t>(n));
    }
    const auto now = Clock::now();
    std::size_t start = 0;
    for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = c.in.substr(start, nl - start);
      if (c.waiting.empty()) continue;  // unsolicited; the checks catch gaps
      const std::size_t request = c.waiting.front();
      c.waiting.pop_front();
      --outstanding_;
      on_reply(index, request, std::move(line), now);
    }
    c.in.erase(0, start);
  }

  std::vector<Conn> conns_;
  std::size_t outstanding_ = 0;
};

/// One in-process server on its own thread, plus the client's connections.
class Stack {
 public:
  Stack() : service_(sim::EvalServiceOptions{}), server_(service_, {}) {
    if (!server_.start()) throw std::runtime_error("server start failed");
    thread_ = std::thread([this] { (void)server_.run(); });
    client_ = std::make_unique<Client>(server_.port(), kConnections);
  }
  ~Stack() {
    client_.reset();  // closing the connections lets the drain finish
    server_.request_stop();
    thread_.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Client& client() { return *client_; }
  int port() const { return server_.port(); }

 private:
  sim::EvalService service_;
  sim::Server server_;
  std::thread thread_;
  std::unique_ptr<Client> client_;
};

std::string normalized(std::string reply) {
  const std::string hit = "\"cached\":true";
  if (const auto at = reply.find(hit); at != std::string::npos) {
    reply.replace(at, hit.size(), "\"cached\":false");
  }
  return reply;
}

using Answers = std::unordered_map<std::string, std::string>;

/// Expected answer of each line, from direct handle_line calls on fresh
/// services (four threads, one service each), with `cached` normalized.
Answers oracle(std::vector<std::string> lines) {
  std::vector<std::string> answers(lines.size());
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kConnections; ++w) {
    workers.emplace_back([&, w] {
      sim::EvalService service;
      for (std::size_t i = w; i < lines.size(); i += kConnections) {
        answers[i] = normalized(service.handle_line(lines[i]));
      }
    });
  }
  for (auto& t : workers) t.join();
  Answers out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out.emplace(std::move(lines[i]), std::move(answers[i]));
  }
  return out;
}

/// What the client keeps per request. Replies to pool requests are checked
/// on arrival; fresh-sim replies keep a hash for the oracle check after the
/// timed region. Only a wrong reply is kept whole, for the failure message.
struct Sent {
  const Request* request = nullptr;
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point replied{};
  std::size_t reply_hash = 0;  ///< fresh sims: hash of the normalized reply
  std::string wrong_reply;
  bool answered = false;
  bool ok = false;  ///< pool requests: matched the expected answer
};

using Sequence = std::vector<Sent>;

/// Files replies into a sequence, checking pool replies against `expected`.
/// `tamper` (self-test only) drops or alters the reply to request 7.
class Recorder {
 public:
  Recorder(const Answers& expected, std::string tamper)
      : expected_(expected), tamper_(std::move(tamper)) {}

  void operator()(Sent& s, std::size_t index, std::string&& text,
                  Clock::time_point at) const {
    if (index == 7 && tamper_ == "reply-drop") return;
    if (index == 7 && tamper_ == "reply-alter") {
      const auto digit = text.find_first_of("123456789");
      if (digit != std::string::npos) text[digit] = text[digit] == '9' ? '8' : '9';
    }
    s.replied = at;
    s.answered = true;
    if (s.request->cls == Class::kSim) {
      s.reply_hash = std::hash<std::string>{}(normalized(std::move(text)));
      return;
    }
    s.ok = normalized(text) == expected_.at(s.request->line);
    if (!s.ok) s.wrong_reply = std::move(text);
  }

 private:
  const Answers& expected_;
  std::string tamper_;
};

Client::OnReply into(Sequence& seq, const Recorder& record) {
  return [&seq, &record](std::size_t, std::size_t request, std::string&& text,
                         Clock::time_point at) {
    record(seq[request], request, std::move(text), at);
  };
}

/// Sends `seq` in order, `kConnections` outstanding at a time (warm-up).
void closed_burst(Client& client, Sequence& seq, const Recorder& record) {
  std::size_t next = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  const Client::OnReply on_reply = [&](std::size_t conn, std::size_t request,
                                       std::string&& text, Clock::time_point at) {
    record(seq[request], request, std::move(text), at);
    if (next < seq.size()) {
      seq[next].sent = Clock::now();
      client.send(conn, next, seq[next].request->line);
      ++next;
    }
  };
  for (std::size_t c = 0; c < client.size() && next < seq.size(); ++c, ++next) {
    seq[next].sent = Clock::now();
    client.send(c, next, seq[next].request->line);
  }
  while (client.outstanding() > 0 && Clock::now() < deadline) {
    client.pump(Clock::now() + std::chrono::milliseconds(50), on_reply);
  }
}

/// Open loop: Poisson arrivals precomputed from the seed.
Sequence open_loop(Client& client, Mix& mix, double duration_s,
                   const Recorder& record) {
  Sequence seq;
  std::vector<double> offsets;
  for (double t = mix.exponential_gap(kOpenRate); t < duration_s;
       t += mix.exponential_gap(kOpenRate)) {
    offsets.push_back(t);
    seq.emplace_back().request = mix.next();
  }
  const auto origin = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    seq[i].due = origin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offsets[i]));
  }
  const auto on_reply = into(seq, record);
  const auto hard_stop =
      origin +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(duration_s)) +
      kDrainGrace;
  std::size_t next = 0;
  while (next < seq.size() || client.outstanding() > 0) {
    if (Clock::now() > hard_stop) break;
    while (next < seq.size() && seq[next].due <= Clock::now()) {
      seq[next].sent = Clock::now();
      client.send(next % client.size(), next, seq[next].request->line);
      ++next;
    }
    const auto wake = next < seq.size()
                          ? seq[next].due
                          : Clock::now() + std::chrono::milliseconds(50);
    client.pump(std::min(wake, hard_stop), on_reply);
  }
  return seq;
}

/// Closed loop: one outstanding request per connection for `duration_s`.
/// Only what the checks and the rate need is kept, so the client's own
/// memory does not grow with the server's speed.
struct ClosedResult {
  std::vector<Clock::time_point> done;  ///< reply times, in arrival order
  Sequence fresh;                       ///< answered fresh-sim requests
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong pool replies and missing replies
  Clock::time_point start{};
  Clock::time_point stop_sending{};

  /// Replies per second: the median over runs of kRateChunk consecutive
  /// replies, which is robust to bursts of contention from other tenants.
  double rps() const { return median(chunk_rates()); }

  std::vector<double> chunk_rates() const {
    constexpr std::size_t kRateChunk = 1000;
    std::vector<double> rates;
    for (std::size_t i = kRateChunk; i < done.size(); i += kRateChunk) {
      rates.push_back(static_cast<double>(kRateChunk) /
                      seconds_between(done[i - kRateChunk], done[i]));
    }
    if (rates.empty() && done.size() > 1) {
      rates.push_back(static_cast<double>(done.size() - 1) /
                      seconds_between(done.front(), done.back()));
    }
    return rates;
  }
};

ClosedResult closed_loop(Client& client, Mix& mix, double duration_s,
                         const Recorder& record) {
  ClosedResult result;
  result.done.reserve(static_cast<std::size_t>(duration_s * 20000));
  result.start = Clock::now();
  result.stop_sending =
      result.start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));
  const auto hard_stop = result.stop_sending + kDrainGrace;
  std::vector<Sent> in_flight(client.size());
  const auto send_next = [&](std::size_t conn) {
    Sent& s = in_flight[conn];
    s = Sent{};
    s.request = mix.next();
    s.due = s.sent = Clock::now();
    client.send(conn, result.attempted++, s.request->line);
  };
  const Client::OnReply on_reply = [&](std::size_t conn, std::size_t request,
                                       std::string&& text, Clock::time_point at) {
    Sent& s = in_flight[conn];
    record(s, request, std::move(text), at);
    if (!s.answered) {
      ++result.failed;
    } else if (s.request->cls == Class::kSim) {
      result.fresh.push_back(s);
    } else if (!s.ok) {
      ++result.failed;
      std::cerr << "perfbench: closed: " << s.request->line
                << ": wrong reply: " << s.wrong_reply.substr(0, 120) << '\n';
    }
    if (at <= result.stop_sending) result.done.push_back(at);
    if (at < result.stop_sending) send_next(conn);
  };
  for (std::size_t c = 0; c < client.size(); ++c) send_next(c);
  while (client.outstanding() > 0 && Clock::now() < hard_stop) {
    client.pump(Clock::now() + std::chrono::milliseconds(50), on_reply);
  }
  result.failed += client.outstanding();  // never answered
  return result;
}

/// The serve_stats record, fetched over connection 0 of an idle client.
dckpt::util::JsonValue fetch_stats(Client& client) {
  std::string reply;
  bool answered = false;
  const Client::OnReply on_reply = [&](std::size_t, std::size_t,
                                       std::string&& text, Clock::time_point) {
    reply = std::move(text);
    answered = true;
  };
  client.send(0, 0, "STATS");
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!answered && Clock::now() < deadline) client.pump(deadline, on_reply);
  return dckpt::util::parse_json(reply);
}

struct PhaseCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Counts every request of a phase; a missing, malformed or wrong reply is
/// a failed operation. `fresh` holds the oracle answers of the fresh sims.
PhaseCounts check_phase(const Sequence& seq, const Answers& fresh,
                        const std::string& phase, Outcome& out) {
  PhaseCounts counts;
  for (const Sent& s : seq) {
    ++counts.attempted;
    std::string why;
    if (!s.answered) {
      why = "no reply";
    } else if (s.request->cls == Class::kSim
                   ? s.reply_hash !=
                         std::hash<std::string>{}(fresh.at(s.request->line))
                   : !s.ok) {
      why = "not the answer a direct handle_line gives: " +
            s.wrong_reply.substr(0, 120);
    }
    out.check(why.empty(), phase + ": " + s.request->line + ": " + why);
    if (!why.empty()) ++counts.failed;
  }
  return counts;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Latencies {
  std::vector<double> light;
  std::vector<double> sim;
  std::vector<double> lag;
};

Latencies open_latencies(const Sequence& seq) {
  Latencies l;
  for (const Sent& s : seq) {
    l.lag.push_back(ms(s.sent - s.due));
    if (!s.answered) continue;
    (s.request->cls == Class::kSim ? l.sim : l.light)
        .push_back(ms(s.replied - s.due));
  }
  return l;
}

/// Open loop, then closed loop, on one warmed stack.
struct Phases {
  Sequence open;
  ClosedResult closed;
  dckpt::util::JsonValue stats_open;
  dckpt::util::JsonValue stats_closed;
};

Phases run_phases(Stack& stack, Mix& mix, double seconds,
                  const Recorder& record) {
  Phases p;
  p.open = open_loop(stack.client(), mix, seconds * 0.5, record);
  p.stats_open = fetch_stats(stack.client());
  p.closed = closed_loop(stack.client(), mix, seconds * 0.5, record);
  p.stats_closed = fetch_stats(stack.client());
  return p;
}

/// Checks an open and a closed loop. The closed loop's pool replies and
/// missing replies were checked as they arrived; only its fresh sims wait
/// for the oracle.
std::pair<PhaseCounts, PhaseCounts> check_phases(const Phases& p,
                                                 const Answers& fresh,
                                                 Outcome& out) {
  const PhaseCounts open = check_phase(p.open, fresh, "open", out);
  PhaseCounts closed = check_phase(p.closed.fresh, fresh, "closed", out);
  out.attempt(p.closed.attempted - p.closed.fresh.size());
  for (std::uint64_t i = 0; i < p.closed.failed; ++i) {
    out.fail("closed: wrong or missing reply");
  }
  closed.attempted = p.closed.attempted;
  closed.failed += p.closed.failed;
  return {open, closed};
}

double stat(const dckpt::util::JsonValue& stats, const char* group,
            const char* key) {
  return stats.at(group).at(key).as_number();
}

/// Traced per-layer measurements of the serving path.
void serve_layers(Tracer& tracer, Stack& stack, const std::vector<Request>& pool,
                  const Phases& p, Outcome& out) {
  // Direct replay of the open-loop lines, in order, on a warmed service.
  sim::EvalService service;
  for (const Request& r : pool) (void)service.handle_line(r.line);
  std::vector<double> light_us, cached_us, sim_ms, classify_us;
  std::vector<double> service_s(p.open.size());
  for (std::size_t i = 0; i < p.open.size(); ++i) {
    const Request& r = *p.open[i].request;
    const std::uint64_t id = i + 1;
    {
      const auto start = Clock::now();
      Scope s(&tracer, "sim.service.classify_line", 0, id);
      (void)service.classify_line(r.line);
      classify_us.push_back(seconds_since(start) * 1e6);
    }
    const auto start = Clock::now();
    {
      Scope s(&tracer, "sim.service.handle_line", 0, id);
      (void)service.handle_line(r.line);
    }
    service_s[i] = seconds_since(start);
    switch (r.cls) {
      case Class::kLight: light_us.push_back(service_s[i] * 1e6); break;
      case Class::kCachedSim: cached_us.push_back(service_s[i] * 1e6); break;
      case Class::kSim: sim_ms.push_back(service_s[i] * 1e3); break;
    }
  }
  out.metric("sim.service.handle_line_us.light", median(light_us), "us");
  out.metric("sim.service.handle_line_us.cached_sim", median(cached_us), "us");
  out.metric("sim.service.handle_line_ms.sim", median(sim_ms), "ms");
  out.metric("sim.service.classify_line_us", median(classify_us), "us");

  // Queue wait: each light request's open-loop latency minus its own
  // service time.
  std::vector<double> wait_ms;
  for (std::size_t i = 0; i < p.open.size(); ++i) {
    const Sent& s = p.open[i];
    if (s.request->cls == Class::kSim || !s.answered) continue;
    wait_ms.push_back(ms(s.replied - s.due) - service_s[i] * 1e3);
  }
  out.metric("sim.server.queue_wait_ms.p50", quantile(wait_ms, 0.5), "ms");
  out.metric("sim.server.queue_wait_ms.p99", quantile(wait_ms, 0.99), "ms");

  // Transport: a cached line's round trip on an idle connection, minus its
  // handle_line time on a warmed service.
  const std::string probe = pool.front().line;
  std::vector<double> rtt_us, handle_us;
  bool answered = false;
  const Client::OnReply on_reply = [&](std::size_t, std::size_t, std::string&&,
                                       Clock::time_point) { answered = true; };
  for (int i = 0; i < kTransportProbes; ++i) {
    Scope s(&tracer, "sim.server.round_trip");
    const auto start = Clock::now();
    answered = false;
    stack.client().send(0, static_cast<std::size_t>(i), probe);
    while (!answered) {
      stack.client().pump(Clock::now() + std::chrono::milliseconds(50),
                          on_reply);
    }
    rtt_us.push_back(seconds_since(start) * 1e6);
  }
  for (int i = 0; i < kTransportProbes; ++i) {
    const auto start = Clock::now();
    Scope s(&tracer, "sim.service.handle_line");
    (void)service.handle_line(probe);
    handle_us.push_back(seconds_since(start) * 1e6);
  }
  out.metric("sim.server.transport_us", median(rtt_us) - median(handle_us),
             "us");

  const auto& stats = p.stats_closed;
  out.metric("sim.service.cache_hit_rate", stat(stats, "cache", "hit_rate"),
             "ratio");
  out.metric("sim.service.cache_evictions", stat(stats, "cache", "evictions"),
             "count");
  out.metric("sim.service.lane_occupancy", stat(stats, "kernel", "occupancy"),
             "ratio");
  out.metric("sim.server.shed", stat(stats, "server", "shed"), "count");
  out.metric("sim.service.errors", stats.at("errors").as_number(), "count");
  out.metric("client.generator_lag_ms.p99",
             quantile(open_latencies(p.open).lag, 0.99), "ms");

  std::vector<EngineJob> jobs;
  for (const Sent& s : p.open) {
    if (s.request->cls == Class::kSim && jobs.size() < kEngineJobs) {
      jobs.push_back(engine_job(s.request->sim));
    }
  }
  engine_layers(tracer, jobs, out);
}

}  // namespace

void run_serve_mixed(const Args& args, Outcome& out) {
  // Set-up: EvalService, Server::start and the connects, several times.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    const auto start = Clock::now();
    stack = std::make_unique<Stack>();
    setup_s.push_back(seconds_since(start));
  }

  // Expected answers of the pool lines, then the warm-up that caches them.
  Mix mix(args.seed);
  std::vector<std::string> pool_lines;
  for (const Request& r : mix.pool()) pool_lines.push_back(r.line);
  Answers expected;
  {
    sim::EvalService service;
    for (const std::string& line : pool_lines) {
      expected.emplace(line, normalized(service.handle_line(line)));
    }
  }
  const Recorder untampered(expected, "");
  Sequence warm(mix.pool().size());
  for (std::size_t i = 0; i < warm.size(); ++i) warm[i].request = &mix.pool()[i];
  closed_burst(stack->client(), warm, untampered);

  const Recorder record(expected, args.sabotage);
  std::unique_ptr<Tracer> tracer;
  Phases p;
  Phases plain;  // the untraced half of a traced run
  if (!args.trace) {
    p = run_phases(*stack, mix, args.seconds, record);
  } else {
    plain = run_phases(*stack, mix, args.seconds * 0.5, record);
    tracer = std::make_unique<Tracer>();
    p = run_phases(*stack, mix, args.seconds * 0.5, record);
    trace_overhead(plain.closed.rps(), p.closed.rps(), out);
    for (std::size_t i = 0; i < p.open.size(); ++i) {
      const Sent& s = p.open[i];
      if (!s.answered) continue;
      tracer->record("client.request", tracer->new_id(), 0, i + 1, s.due,
                     s.replied);
    }
  }

  // Sampled before the checks, which are not part of the workload.
  out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  // Fresh sims: every answer against a direct handle_line of its line.
  std::vector<std::string> fresh_lines;
  for (const Sequence* seq :
       {&p.open, &p.closed.fresh, &plain.open, &plain.closed.fresh}) {
    for (const Sent& s : *seq) {
      if (s.request->cls == Class::kSim) fresh_lines.push_back(s.request->line);
    }
  }
  const Answers fresh = oracle(std::move(fresh_lines));
  const PhaseCounts warm_counts = check_phase(warm, fresh, "warm-up", out);
  if (args.trace) (void)check_phases(plain, fresh, out);
  const auto [open_counts, closed_counts] = check_phases(p, fresh, out);

  const Latencies lat = open_latencies(p.open);
  const double rps = p.closed.rps();
  out.metric("setup_s", median(setup_s), "s");
  out.metric("ops_per_s", rps, "op/s");

  auto& r = out.report;
  r.set("serve_light_p50_ms", quantile(lat.light, 0.5));
  r.set("serve_light_p99_ms", quantile(lat.light, 0.99));
  r.set("serve_sim_p50_ms", quantile(lat.sim, 0.5));
  r.set("serve_sim_p99_ms", quantile(lat.sim, 0.99));
  r.set("serve_rps", rps);
  r.set("chunk_rate_p25", quantile(p.closed.chunk_rates(), 0.25));
  r.set("chunk_rate_p75", quantile(p.closed.chunk_rates(), 0.75));
  r.set("light_samples", static_cast<std::uint64_t>(lat.light.size()));
  r.set("sim_samples", static_cast<std::uint64_t>(lat.sim.size()));
  r.set("open_rate_per_s", kOpenRate);
  r.set("client.generator_lag_ms.p99", quantile(lat.lag, 0.99));
  const auto phase = [](const PhaseCounts& c, const dckpt::util::JsonValue* s) {
    auto v = dckpt::util::JsonValue::object();
    v.set("attempted", c.attempted);
    v.set("failed", c.failed);
    if (s != nullptr) v.set("shed", stat(*s, "server", "shed"));
    return v;
  };
  r.set("warm_up", phase(warm_counts, nullptr));
  r.set("open_loop", phase(open_counts, &p.stats_open));
  r.set("closed_loop", phase(closed_counts, &p.stats_closed));

  if (tracer) {
    serve_layers(*tracer, *stack, mix.pool(), p, out);
    finish_trace(*tracer, args, out);
  }
}

}  // namespace perfbench
