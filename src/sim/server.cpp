#include "sim/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dckpt::sim {

namespace {

/// A reply line never exceeds a few KiB, so one stack buffer per read is
/// plenty; level-triggered poll() re-arms for whatever is left.
constexpr std::size_t kReadChunk = 4096;

std::string first_token(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  in >> token;
  return token;
}

}  // namespace

void ServerOptions::validate() const {
  if (max_conns == 0) {
    throw std::invalid_argument("ServerOptions: zero max_conns");
  }
  if (max_line == 0) {
    throw std::invalid_argument("ServerOptions: zero max_line");
  }
  if (queue_depth == 0) {
    throw std::invalid_argument("ServerOptions: zero queue_depth");
  }
  if (high_water == 0) {
    throw std::invalid_argument("ServerOptions: zero high_water");
  }
  if (read_idle_ms <= 0 || write_stall_ms <= 0) {
    throw std::invalid_argument("ServerOptions: deadlines must be positive");
  }
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("ServerOptions: port out of range");
  }
}

Server::Server(EvalService& service, ServerOptions options)
    : service_(service), options_(options) {
  options_.validate();
  service_.set_transport_counters(&counters_);
}

Server::~Server() {
  service_.set_transport_counters(nullptr);
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (listener_ >= 0) ::close(listener_);
  if (stop_pipe_[0] >= 0) ::close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) ::close(stop_pipe_[1]);
}

std::int64_t Server::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Server::start() {
  listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener_ < 0) {
    std::perror("serve: socket");
    return false;
  }
  const int reuse = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  const int backlog =
      static_cast<int>(std::max<std::size_t>(options_.max_conns, 16));
  if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listener_, backlog) < 0) {
    std::perror("serve: bind/listen");
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  if (::pipe2(stop_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) {
    std::perror("serve: pipe2");
    ::close(listener_);
    listener_ = -1;
    return false;
  }
  return true;
}

void Server::request_stop() noexcept {
  if (stop_pipe_[1] < 0) return;
  const char byte = 's';
  // Async-signal-safe by construction: one write() on a pre-opened fd.
  [[maybe_unused]] const auto ignored = ::write(stop_pipe_[1], &byte, 1);
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listener_ >= 0) {
    ::close(listener_);  // new connections are refused from here on
    listener_ = -1;
  }
}

void Server::close_conn(std::uint64_t id, bool peer_initiated) {
  const auto it = conns_.find(id);
  if (it == conns_.end() || it->second.fd < 0) return;
  if (peer_initiated && !it->second.saw_quit) ++counters_.disconnects;
  ::close(it->second.fd);
  it->second.fd = -1;
  doomed_.push_back(id);
}

void Server::note_answered() {
  ++answered_;
  if (stats_hook_ && stats_every_ > 0 && answered_ % stats_every_ == 0) {
    stats_hook_();
  }
}

void Server::push_reply(Connection& conn, std::string reply) {
  reply += '\n';
  const bool had_flushable = !conn.output.empty();
  conn.ready_bytes += reply.size();
  OutSlot slot;
  slot.data = std::move(reply);
  slot.ready = true;
  conn.output.push_back(std::move(slot));
  ++conn.next_slot_id;
  if (!had_flushable) conn.last_progress_ms = now_ms();
  note_answered();
}

void Server::dispatch(Connection& conn, const std::string& line) {
  const std::string command = first_token(line);
  if (command == "HEALTH") {
    // Transport-level liveness: answered even while draining, never
    // counted as a service request (it asks about the server, not the
    // models).
    auto v = util::JsonValue::object();
    v.set("record", "health");
    v.set("status", draining_ ? "draining" : "ok");
    v.set("connections", static_cast<std::uint64_t>(conns_.size()));
    v.set("queued", static_cast<std::uint64_t>(jobs_.size()));
    push_reply(conn, v.dump());
    return;
  }
  if (command == "DRAIN") {
    begin_drain();
    auto v = util::JsonValue::object();
    v.set("record", "drain");
    v.set("draining", true);
    push_reply(conn, v.dump());
    return;
  }
  if (command == "QUIT") {
    conn.saw_quit = true;
    conn.closing = true;
    conn.input.clear();  // nothing after QUIT is answered
    push_reply(conn, service_.handle_line(line));
    return;
  }
  if (draining_ && command != "STATS") {
    push_reply(conn, eval_error_json(
                         "shutdown",
                         "server is draining; no new work accepted")
                         .dump());
    return;
  }
  if (command == "EVAL" &&
      service_.classify_line(line) == EvalService::RequestClass::kHeavy) {
    if (jobs_.size() >= options_.queue_depth) {
      ++counters_.shed;
      push_reply(conn,
                 eval_error_json(
                     "busy", "simulation queue is full; retry with backoff")
                     .dump());
      return;
    }
    Job job;
    job.conn_id = conn.id;
    job.slot_id = conn.next_slot_id;
    job.line = line;
    jobs_.push_back(std::move(job));
    conn.output.emplace_back();  // pending slot holds this reply's place
    ++conn.next_slot_id;
    ++conn.pending_jobs;
    return;
  }
  push_reply(conn, service_.handle_line(line));
}

void Server::parse_lines(Connection& conn) {
  while (conn.fd >= 0 && !conn.closing) {
    if (conn.discarding) {
      const std::size_t nl = conn.input.find('\n');
      if (nl == std::string::npos) {
        conn.input.clear();
        return;
      }
      conn.input.erase(0, nl + 1);
      conn.discarding = false;
      continue;
    }
    const std::size_t nl = conn.input.find('\n');
    if (nl == std::string::npos) {
      if (conn.input.size() > options_.max_line) {
        ++counters_.overlong_lines;
        push_reply(conn,
                   eval_error_json("overlong",
                                   "request line exceeds the line limit")
                       .dump());
        conn.input.clear();
        conn.discarding = true;
      }
      return;
    }
    if (nl > options_.max_line) {
      ++counters_.overlong_lines;
      push_reply(conn, eval_error_json("overlong",
                                       "request line exceeds the line limit")
                           .dump());
      conn.input.erase(0, nl + 1);
      continue;
    }
    std::string line = conn.input.substr(0, nl);
    conn.input.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank lines and bare CRLF are keepalives
    dispatch(conn, line);
  }
}

void Server::read_ready(Connection& conn) {
  if (conn.fd < 0 || conn.closing) return;
  char chunk[kReadChunk];
  const auto got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
  if (got > 0) {
    conn.last_read_ms = now_ms();
    conn.input.append(chunk, static_cast<std::size_t>(got));
    parse_lines(conn);
    return;
  }
  if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  // EOF or a hard error: the peer is gone. Anything still owed to this
  // connection (partial line, queued replies, in-flight jobs) is dropped;
  // job results for a dead connection evaporate at completion time.
  close_conn(conn.id, /*peer_initiated=*/true);
}

void Server::flush(Connection& conn) {
  while (conn.fd >= 0 && !conn.output.empty() && conn.output.front().ready) {
    OutSlot& slot = conn.output.front();
    while (slot.sent < slot.data.size()) {
      const auto wrote =
          ::send(conn.fd, slot.data.data() + slot.sent,
                 slot.data.size() - slot.sent, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close_conn(conn.id, /*peer_initiated=*/true);
        return;
      }
      // A short send is normal under backpressure: keep the remainder
      // queued and let the next POLLOUT continue exactly where we left
      // off (the pre-rewrite server treated any send() >= 0 as complete
      // and truncated replies here).
      slot.sent += static_cast<std::size_t>(wrote);
      conn.ready_bytes -= static_cast<std::size_t>(wrote);
      conn.last_progress_ms = now_ms();
    }
    conn.output.pop_front();
    ++conn.popped_slots;
  }
  if (conn.fd >= 0 && conn.closing && conn.output.empty()) {
    close_conn(conn.id, /*peer_initiated=*/false);
  }
}

void Server::accept_ready() {
  while (conns_.size() < options_.max_conns) {
    const int fd =
        ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a racing client that went away
    if (options_.sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf,
                   sizeof(options_.sndbuf));
    }
    // Each reply is its own send(): with Nagle on, a reply queued behind
    // one still unacknowledged waits out the client's delayed ACK (~40 ms).
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.last_read_ms = now_ms();
    conn.last_progress_ms = conn.last_read_ms;
    ++counters_.accepted;
    conns_.emplace(conn.id, std::move(conn));
    counters_.peak_connections =
        std::max(counters_.peak_connections,
                 static_cast<std::uint64_t>(conns_.size()));
  }
}

void Server::run_one_job() {
  if (jobs_.empty()) return;
  Job job = std::move(jobs_.front());
  jobs_.pop_front();
  const std::string reply = service_.handle_line(job.line);
  if (draining_) ++counters_.drained;
  const auto it = conns_.find(job.conn_id);
  if (it == conns_.end() || it->second.fd < 0) return;  // peer gone: drop
  Connection& conn = it->second;
  const std::size_t index =
      static_cast<std::size_t>(job.slot_id - conn.popped_slots);
  OutSlot& slot = conn.output[index];
  slot.data = reply + "\n";
  slot.ready = true;
  conn.ready_bytes += slot.data.size();
  conn.last_progress_ms = now_ms();
  --conn.pending_jobs;
  note_answered();
  flush(conn);
  // The loop was blocked while the simulation ran; restart every idle and
  // stall clock so other clients are not billed for our compute time.
  const std::int64_t now = now_ms();
  for (auto& [id, other] : conns_) {
    other.last_read_ms = now;
    other.last_progress_ms = now;
  }
}

void Server::sweep_deadlines() {
  const std::int64_t now = now_ms();
  for (auto& [id, conn] : conns_) {
    if (conn.fd < 0) continue;
    const bool flushable = !conn.output.empty() && conn.output.front().ready &&
                           conn.output.front().sent <
                               conn.output.front().data.size();
    if (flushable) {
      if (now - conn.last_progress_ms >= options_.write_stall_ms) {
        ++counters_.write_timeouts;
        close_conn(id, /*peer_initiated=*/false);
        continue;
      }
    } else {
      // Nothing to write (or we are waiting on our own job): the stall
      // clock only measures a peer that stopped draining its replies.
      conn.last_progress_ms = now;
    }
    if (draining_) {
      if (conn.pending_jobs == 0 && conn.output.empty()) {
        close_conn(id, /*peer_initiated=*/false);
      }
      continue;
    }
    if (conn.output.empty() && conn.pending_jobs == 0 &&
        now - conn.last_read_ms >= options_.read_idle_ms) {
      ++counters_.read_timeouts;
      // Best-effort farewell; the socket is idle so this almost always
      // fits in the send buffer whole.
      const std::string farewell =
          eval_error_json("timeout", "closing idle connection").dump() + "\n";
      [[maybe_unused]] const auto ignored =
          ::send(conn.fd, farewell.data(), farewell.size(), MSG_NOSIGNAL);
      close_conn(id, /*peer_initiated=*/false);
    }
  }
}

int Server::poll_timeout_ms() const {
  if (!jobs_.empty()) return 0;
  const std::int64_t now = now_ms();
  std::int64_t nearest = 1000;
  for (const auto& [id, conn] : conns_) {
    if (conn.fd < 0) continue;
    if (!conn.output.empty()) {
      nearest = std::min(
          nearest, conn.last_progress_ms + options_.write_stall_ms - now);
    } else if (!draining_ && conn.pending_jobs == 0) {
      nearest =
          std::min(nearest, conn.last_read_ms + options_.read_idle_ms - now);
    }
  }
  if (draining_) nearest = std::min<std::int64_t>(nearest, 50);
  return static_cast<int>(std::clamp<std::int64_t>(nearest, 0, 1000));
}

int Server::run() {
  if (listener_ < 0 && !draining_) return 1;
  std::uint64_t once_conn_id = 0;

  for (;;) {
    // Reap connections closed during the previous iteration.
    for (const std::uint64_t id : doomed_) conns_.erase(id);
    doomed_.clear();

    if (draining_ && jobs_.empty() && conns_.empty()) break;
    if (options_.once && once_conn_id != 0 &&
        conns_.find(once_conn_id) == conns_.end()) {
      begin_drain();
      continue;
    }

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;  // conn id per pollfd (0 = not a conn)
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    ids.push_back(0);
    const bool accepting = !draining_ && listener_ >= 0 &&
                           conns_.size() < options_.max_conns;
    if (accepting) {
      fds.push_back({listener_, POLLIN, 0});
      ids.push_back(0);
    }
    for (const auto& [id, conn] : conns_) {
      short events = 0;
      const bool paused = conn.ready_bytes >= options_.high_water;
      if (!draining_ && !conn.closing && !paused) events |= POLLIN;
      if (!conn.output.empty() && conn.output.front().ready) {
        events |= POLLOUT;
      }
      if (draining_ && !conn.closing) events |= POLLIN;  // detect peer exit
      fds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          poll_timeout_ms());
    if (rc < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      char drainbuf[64];
      while (::read(stop_pipe_[0], drainbuf, sizeof(drainbuf)) > 0) {
      }
      begin_drain();
    }
    std::size_t index = 1;
    if (accepting) {
      if (listener_ >= 0 && (fds[index].revents & POLLIN)) accept_ready();
      ++index;
    }
    for (; index < fds.size(); ++index) {
      const auto it = conns_.find(ids[index]);
      if (it == conns_.end() || it->second.fd < 0) continue;
      Connection& conn = it->second;
      const short revents = fds[index].revents;
      if (revents & POLLOUT) flush(conn);
      if (conn.fd >= 0 && (revents & (POLLIN | POLLHUP | POLLERR))) {
        if (draining_ || conn.closing) {
          // Input is not parsed anymore; we only care whether the peer
          // vanished while we flush.
          char sink[kReadChunk];
          const auto got = ::recv(conn.fd, sink, sizeof(sink), 0);
          if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR &&
                           errno != EWOULDBLOCK)) {
            close_conn(conn.id, /*peer_initiated=*/true);
          }
        } else {
          read_ready(conn);
        }
      }
      if (conn.fd >= 0) flush(conn);
    }

    run_one_job();
    sweep_deadlines();

    if (options_.once && once_conn_id == 0 && !conns_.empty()) {
      once_conn_id = conns_.begin()->first;
    }
  }
  return 0;
}

}  // namespace dckpt::sim
