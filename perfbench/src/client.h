#pragma once
// The benchmark's HTTP client: one thread, a fixed pool of keep-alive
// loopback connections (so at most that many requests are in flight), and
// a timestamp on every streamed chunk.
//
// net::LoadGen opens an uncapped connection per request and times each
// request from its launch; the benchmark needs one keep-alive connection
// per user and a timestamp per chunk, so it drives the wire itself. It
// reuses the program's request serializer (net::generate_body) and its
// response parser (net::HttpResponseParser).
#include <sys/epoll.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/http.h"

namespace perfbench {

/// One request/response exchange as the client saw it.
struct Exchange {
  std::size_t conn = 0;
  std::uint64_t tag = 0;  // caller's identifier
  Clock::time_point sent;
  Clock::time_point done;
  bool transport_error = false;
  int status = 0;
  std::string body;  // non-chunked responses
  std::vector<std::int32_t> tokens;
  std::vector<Clock::time_point> token_times;
  /// From the stream's final {"done": true, ...} chunk.
  double engine_ttft_ms = -1.0;
  std::string engine_status;
};

class HttpClient {
 public:
  HttpClient(std::uint16_t port, std::size_t connections);
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  std::size_t size() const { return conns_.size(); }
  bool idle(std::size_t conn) const { return !conns_[conn].busy; }
  /// Send one request on an idle connection (connecting it if needed).
  void send(std::size_t conn, const std::string& method,
            const std::string& target, const std::string& body,
            std::uint64_t tag);
  /// Wait up to `timeout_s` for socket activity and return the exchanges
  /// that finished (successfully or not).
  std::vector<Exchange> poll(double timeout_s);
  /// Fail every in-flight exchange (transport error) and return them.
  std::vector<Exchange> abort_all();

 private:
  struct Conn {
    int fd = -1;
    bool busy = false;
    std::string out;
    std::size_t out_off = 0;
    std::unique_ptr<matgpt::net::HttpResponseParser> parser;
    std::size_t chunks_seen = 0;
    Exchange ex;
  };
  bool connect_conn(Conn& c);
  void close_conn(Conn& c);
  bool flush(Conn& c);
  /// Read everything available; true when the exchange finished.
  bool read_ready(Conn& c);
  void finish(Conn& c, bool transport_error, std::vector<Exchange>& out);

  std::uint16_t port_;
  int epfd_ = -1;
  std::vector<Conn> conns_;
};

/// HTTP request bytes (HTTP/1.1, keep-alive, JSON body).
std::string http_request(const std::string& method, const std::string& target,
                         const std::string& body);

}  // namespace perfbench
