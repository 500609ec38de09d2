#include "obs/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "obs/prometheus.h"
#include "obs/snapshot.h"
#include "telemetry/json.h"

namespace bitspread {
namespace obs {

namespace {

// Count of live servers in the process; exporter_active() for the benches.
std::atomic<int> g_active_servers{0};

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(sent);
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

bool send_chunk(int fd, const std::string& payload) {
  char head[32];
  std::snprintf(head, sizeof(head), "%zx\r\n", payload.size());
  return send_all(fd, head, std::strlen(head)) && send_all(fd, payload) &&
         send_all(fd, "\r\n", 2);
}

void set_timeout(int fd, int which, long seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

// "addr:port" | ":port" | "port" -> (addr, port); false on parse failure.
bool parse_listen(const std::string& spec, std::string& addr, int& port) {
  const std::size_t colon = spec.rfind(':');
  std::string host = colon == std::string::npos ? "" : spec.substr(0, colon);
  const std::string port_text =
      colon == std::string::npos ? spec : spec.substr(colon + 1);
  if (port_text.empty()) return false;
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0 || value > 65535) {
    return false;
  }
  addr = host.empty() ? "127.0.0.1" : host;
  port = static_cast<int>(value);
  return true;
}

JsonValue progress_json(const MetricsSnapshot& snapshot) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue("bitspread-progress/1"));
  doc.set("captured_ns", JsonValue(snapshot.captured_ns));
  doc.set("runs_started", JsonValue(snapshot.runs_started));
  doc.set("runs_finished", JsonValue(snapshot.runs_finished));
  JsonValue runs = JsonValue::array();
  for (const ProgressRecord& record : snapshot.runs) {
    JsonValue row = JsonValue::object();
    row.set("run", JsonValue(record.run_ordinal));
    row.set("engine",
            JsonValue(record.engine != nullptr ? record.engine : ""));
    row.set("active", JsonValue(record.active));
    row.set("faulty", JsonValue(record.faulty));
    row.set("round", JsonValue(record.round));
    row.set("max_rounds", JsonValue(record.max_rounds));
    row.set("remaining_rounds",
            JsonValue(record.max_rounds > record.round
                          ? record.max_rounds - record.round
                          : 0));
    row.set("ones", JsonValue(record.ones));
    row.set("n", JsonValue(record.n));
    row.set("x", JsonValue(record.n > 0
                               ? static_cast<double>(record.ones) /
                                     static_cast<double>(record.n)
                               : 0.0));
    row.set("rounds_per_sec", JsonValue(record.rounds_per_sec));
    row.set("drift_per_round", JsonValue(record.drift_per_round));
    row.set("eta_seconds", JsonValue(record.eta_seconds));
    row.set("fault_flips", JsonValue(record.fault_flips));
    row.set("recovery_segments", JsonValue(record.recovery_segments));
    row.set("checkpoints_written", JsonValue(record.checkpoint_slot));
    row.set("elapsed_seconds",
            JsonValue(record.publish_ns > record.start_ns
                          ? static_cast<double>(record.publish_ns -
                                                record.start_ns) *
                                1e-9
                          : 0.0));
    runs.push_back(std::move(row));
  }
  doc.set("runs", std::move(runs));
  return doc;
}

}  // namespace

bool exporter_active() noexcept {
  return g_active_servers.load(std::memory_order_relaxed) > 0;
}

// ---------------------------------------------------------------------------
// StreamHub

void StreamHub::on_round(std::uint64_t round, std::uint64_t ones,
                         std::uint64_t n) {
  if (inner_ != nullptr) inner_->on_round(round, ones, n);
  rounds_seen_.fetch_add(1, std::memory_order_relaxed);
  if (subscriber_count_.load(std::memory_order_relaxed) == 0) return;

  // Format once, fan out to every subscriber queue.
  char line[160];
  const double x =
      n > 0 ? static_cast<double>(ones) / static_cast<double>(n) : 0.0;
  std::snprintf(line, sizeof(line),
                "{\"round\":%llu,\"ones\":%llu,\"n\":%llu,\"x\":%.10g}",
                static_cast<unsigned long long>(round),
                static_cast<unsigned long long>(ones),
                static_cast<unsigned long long>(n), x);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Subscription>& sub : subscriptions_) {
    std::lock_guard<std::mutex> sub_lock(sub->mutex);
    if (sub->closed) continue;
    if (sub->lines.size() >= kQueueCap) {
      sub->lines.pop_front();
      ++sub->dropped;
    }
    sub->lines.emplace_back(line);
    sub->cv.notify_one();
  }
}

std::shared_ptr<StreamHub::Subscription> StreamHub::subscribe() {
  auto sub = std::make_shared<Subscription>();
  std::lock_guard<std::mutex> lock(mutex_);
  subscriptions_.push_back(sub);
  subscriber_count_.store(static_cast<int>(subscriptions_.size()),
                          std::memory_order_relaxed);
  return sub;
}

void StreamHub::unsubscribe(const std::shared_ptr<Subscription>& sub) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
    if (*it == sub) {
      subscriptions_.erase(it);
      break;
    }
  }
  subscriber_count_.store(static_cast<int>(subscriptions_.size()),
                          std::memory_order_relaxed);
}

void StreamHub::close_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Subscription>& sub : subscriptions_) {
    std::lock_guard<std::mutex> sub_lock(sub->mutex);
    sub->closed = true;
    sub->cv.notify_all();
  }
}

// ---------------------------------------------------------------------------
// IntrospectionServer

IntrospectionServer::IntrospectionServer(ServerOptions options)
    : options_(std::move(options)) {
  std::string addr_text;
  int want_port = 0;
  if (!parse_listen(options_.listen, addr_text, want_port)) {
    error_ = "cannot parse --listen='" + options_.listen +
             "' (want addr:port, :port, or port)";
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(want_port));
  if (::inet_pton(AF_INET, addr_text.c_str(), &addr.sin_addr) != 1) {
    error_ = "cannot parse listen address '" + addr_text + "' (IPv4 only)";
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    error_ = std::string("bind/listen ") + options_.listen + ": " +
             std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  address_ = addr_text;
  start_ns_ = telemetry::clock_now_ns();
  ok_ = true;
  g_active_servers.fetch_add(1, std::memory_order_relaxed);
  // CI and bitspread_top parse this line for the resolved ephemeral port.
  std::cerr << "[obs] listening on http://" << address_ << ":" << port_
            << " (/metrics /healthz /progress /stream)\n";
  accept_thread_ = std::thread([this] { accept_loop(); });
}

IntrospectionServer::~IntrospectionServer() { stop(); }

void IntrospectionServer::stop() {
  if (!ok_) return;
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Shutting the listen socket down unblocks accept(). It is closed only
  // once the accept thread has exited: accept_loop() reads listen_fd_, and a
  // closed fd number could be reused by another socket and accepted on.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // No handler can be added now; shutting down every open connection
  // unblocks in-flight reads/sends and stream waits.
  if (options_.hub != nullptr) options_.hub->close_all();
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (Handler& handler : handlers_) {
      const int fd = handler.fd->load(std::memory_order_relaxed);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  std::vector<Handler> handlers;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers.swap(handlers_);
  }
  for (Handler& handler : handlers) {
    if (handler.thread.joinable()) handler.thread.join();
  }
  g_active_servers.fetch_sub(1, std::memory_order_relaxed);
}

void IntrospectionServer::reap_finished_handlers() {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void IntrospectionServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listen socket shut down by stop().
    }
    reap_finished_handlers();
    set_timeout(fd, SO_RCVTIMEO, 2);
    set_timeout(fd, SO_SNDTIMEO, 5);
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    Handler handler;
    handler.done = std::make_shared<std::atomic<bool>>(false);
    handler.fd = std::make_shared<std::atomic<int>>(fd);
    auto done = handler.done;
    auto fd_slot = handler.fd;
    handler.thread = std::thread([this, fd, done, fd_slot] {
      handle_connection(fd);
      ::close(fd);
      fd_slot->store(-1, std::memory_order_relaxed);
      done->store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers_.push_back(std::move(handler));
  }
}

void IntrospectionServer::handle_connection(int fd) {
  // Read the request head (we never need a body).
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) return;
    request.append(buf, static_cast<std::size_t>(got));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 <= sp1) {
    send_all(fd, http_response(400, "Bad Request", "text/plain",
                               "malformed request line\n"));
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string query;
  if (const std::size_t qmark = target.find('?');
      qmark != std::string::npos) {
    query = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }
  if (method != "GET") {
    send_all(fd, http_response(405, "Method Not Allowed", "text/plain",
                               "GET only\n"));
    return;
  }

  scrapes_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry& registry = options_.registry != nullptr
                                  ? *options_.registry
                                  : MetricsRegistry::global();
  if (target == "/metrics") {
    const MetricsSnapshot snapshot = capture_metrics(registry);
    std::string body = to_exposition(snapshot);
    body += "# HELP bitspread_exporter_scrapes_total scrapes served by this "
            "exporter\n# TYPE bitspread_exporter_scrapes_total counter\n"
            "bitspread_exporter_scrapes_total ";
    body += std::to_string(scrapes_.load(std::memory_order_relaxed));
    body += '\n';
    send_all(fd, http_response(200, "OK",
                               "text/plain; version=0.0.4; charset=utf-8",
                               body));
  } else if (target == "/healthz") {
    const MetricsSnapshot snapshot = capture_metrics(registry);
    std::uint64_t active = 0;
    for (const ProgressRecord& record : snapshot.runs) {
      if (record.active) ++active;
    }
    JsonValue doc = JsonValue::object();
    doc.set("status", JsonValue("ok"));
    doc.set("uptime_seconds",
            JsonValue(static_cast<double>(telemetry::clock_now_ns() -
                                          start_ns_) *
                      1e-9));
    doc.set("scrapes", JsonValue(scrapes_.load(std::memory_order_relaxed)));
    doc.set("stream_available", JsonValue(options_.hub != nullptr));
    doc.set("runs_active", JsonValue(active));
    doc.set("runs_started", JsonValue(snapshot.runs_started));
    doc.set("runs_finished", JsonValue(snapshot.runs_finished));
    send_all(fd,
             http_response(200, "OK", "application/json", doc.dump()));
  } else if (target == "/progress") {
    const MetricsSnapshot snapshot = capture_metrics(registry);
    send_all(fd, http_response(200, "OK", "application/json",
                               progress_json(snapshot).dump()));
  } else if (target == "/stream") {
    std::uint64_t limit = 0;  // 0 = until the client or server goes away.
    if (query.rfind("lines=", 0) == 0) {
      limit = std::strtoull(query.c_str() + 6, nullptr, 10);
    }
    serve_stream(fd, limit);
  } else {
    send_all(fd, http_response(404, "Not Found", "text/plain",
                               "endpoints: /metrics /healthz /progress "
                               "/stream\n"));
  }
}

void IntrospectionServer::serve_stream(int fd, std::uint64_t line_limit) {
  if (options_.hub == nullptr) {
    send_all(fd, http_response(503, "Service Unavailable", "text/plain",
                               "no round stream in this process\n"));
    return;
  }
  if (!send_all(fd,
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")) {
    return;
  }
  // Stream sends can legitimately wait on simulation progress; the short
  // request-phase receive timeout must not apply to them.
  set_timeout(fd, SO_SNDTIMEO, 30);
  const std::shared_ptr<StreamHub::Subscription> sub =
      options_.hub->subscribe();
  std::uint64_t sent = 0;
  bool client_alive = true;
  while (client_alive && !stopping_.load(std::memory_order_relaxed)) {
    std::deque<std::string> batch;
    {
      std::unique_lock<std::mutex> lock(sub->mutex);
      sub->cv.wait_for(lock, std::chrono::milliseconds(250), [&] {
        return !sub->lines.empty() || sub->closed;
      });
      batch.swap(sub->lines);
      if (batch.empty() && sub->closed) break;
    }
    for (std::string& line : batch) {
      line += '\n';
      if (!send_chunk(fd, line)) {
        client_alive = false;
        break;
      }
      if (line_limit != 0 && ++sent >= line_limit) {
        client_alive = false;  // Limit reached: close cleanly below.
        break;
      }
    }
  }
  options_.hub->unsubscribe(sub);
  send_all(fd, "0\r\n\r\n", 5);
}

}  // namespace obs
}  // namespace bitspread
