#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <ctime>

#include "common/error.h"
#include "net/json.h"

namespace perfbench {

using matgpt::net::HttpResponseParser;
using matgpt::net::Json;

std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty()) {
    out += "Content-Type: application/json\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

HttpClient::HttpClient(std::uint16_t port, std::size_t connections)
    : port_(port), conns_(connections) {
  MGPT_CHECK(connections > 0, "client needs at least one connection");
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  MGPT_CHECK(epfd_ >= 0, "epoll_create1 failed");
}

HttpClient::~HttpClient() {
  for (Conn& c : conns_) close_conn(c);
  if (epfd_ >= 0) ::close(epfd_);
}

bool HttpClient::connect_conn(Conn& c) {
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_conn(c);
    return false;
  }
  const int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
    close_conn(c);
    return false;
  }
  return true;
}

void HttpClient::close_conn(Conn& c) {
  if (c.fd < 0) return;
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  c.fd = -1;
}

void HttpClient::send(std::size_t conn, const std::string& method,
                      const std::string& target, const std::string& body,
                      std::uint64_t tag) {
  Conn& c = conns_.at(conn);
  MGPT_CHECK(!c.busy, "connection " << conn << " is busy");
  c.busy = true;
  c.ex = Exchange{};
  c.ex.conn = conn;
  c.ex.tag = tag;
  c.parser = std::make_unique<HttpResponseParser>();
  c.chunks_seen = 0;
  c.out = http_request(method, target, body);
  c.out_off = 0;
  c.ex.sent = Clock::now();
  if (c.fd < 0 && !connect_conn(c)) {
    c.ex.transport_error = true;  // reported by the next poll()
    return;
  }
  if (!flush(c)) {
    close_conn(c);
    c.ex.transport_error = true;
  }
}

bool HttpClient::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT;
      ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
      return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev) == 0;
    }
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint64_t>(&c - conns_.data());
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev) == 0;
}

namespace {

// Token chunks are {"token":N}; everything else goes through Json.
bool parse_token_chunk(const std::string& payload, std::int32_t& token) {
  static constexpr char kPrefix[] = "{\"token\":";
  if (payload.rfind(kPrefix, 0) != 0) return false;
  const char* p = payload.c_str() + sizeof(kPrefix) - 1;
  char* end = nullptr;
  const long v = std::strtol(p, &end, 10);
  if (end == p || *end != '}') return false;
  token = static_cast<std::int32_t>(v);
  return true;
}

}  // namespace

bool HttpClient::read_ready(Conn& c) {
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n <= 0) {
      c.ex.transport_error = true;  // EOF or reset before the response ended
      return true;
    }
    const auto now = Clock::now();
    const auto status = c.parser->feed(std::string_view(buf, n));
    const auto& chunks = c.parser->chunks();
    for (; c.chunks_seen < chunks.size(); ++c.chunks_seen) {
      const std::string& payload = chunks[c.chunks_seen];
      std::int32_t token = 0;
      if (parse_token_chunk(payload, token)) {
        c.ex.tokens.push_back(token);
        c.ex.token_times.push_back(now);
        continue;
      }
      try {
        const Json j = Json::parse(payload);
        if (const Json* done = j.find("done"); done && done->as_bool()) {
          if (const Json* t = j.find("ttft_ms")) {
            c.ex.engine_ttft_ms = t->as_number();
          }
          if (const Json* s = j.find("status")) {
            c.ex.engine_status = s->as_string();
          }
        }
      } catch (const matgpt::Error&) {
        c.ex.transport_error = true;  // a malformed chunk fails the request
        return true;
      }
    }
    if (status == HttpResponseParser::Status::kError) {
      c.ex.transport_error = true;
      return true;
    }
    if (status == HttpResponseParser::Status::kDone) {
      c.ex.status = c.parser->status_code();
      c.ex.body = c.parser->body();
      return true;
    }
  }
}

void HttpClient::finish(Conn& c, bool transport_error,
                        std::vector<Exchange>& out) {
  c.ex.done = Clock::now();
  c.ex.transport_error = c.ex.transport_error || transport_error;
  if (c.ex.transport_error) close_conn(c);
  c.busy = false;
  c.parser.reset();
  out.push_back(std::move(c.ex));
}

std::vector<Exchange> HttpClient::poll(double timeout_s) {
  std::vector<Exchange> out;
  // A send that failed outright is reported without waiting.
  for (Conn& c : conns_) {
    if (c.busy && c.fd < 0) finish(c, true, out);
  }
  if (!out.empty()) return out;
  if (timeout_s < 0.0) timeout_s = 0.0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  epoll_event events[64];
  const int n = ::epoll_pwait2(epfd_, events, 64, &ts, nullptr);
  for (int i = 0; i < n; ++i) {
    Conn& c = conns_[events[i].data.u64];
    if (c.fd < 0 || !c.busy) {
      // Unsolicited bytes or a close on an idle keep-alive connection.
      close_conn(c);
      continue;
    }
    if ((events[i].events & EPOLLOUT) && !flush(c)) {
      finish(c, true, out);
      continue;
    }
    if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
      if (read_ready(c)) finish(c, false, out);
    }
  }
  return out;
}

std::vector<Exchange> HttpClient::abort_all() {
  std::vector<Exchange> out;
  for (Conn& c : conns_) {
    if (c.busy) finish(c, true, out);
  }
  return out;
}

}  // namespace perfbench
