// svc_mix: the full serving path, net -> svc session -> scheduler -> cache
// -> eval -> models. A net::NetServer runs in this process on loopback
// TCP; four client connections each keep one request in flight (a closed
// loop, as nanoc and sweep clients drive nanod), all from one thread of
// this process.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "mix.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "powergrid/grid_model.h"
#include "scenario/plant.h"
#include "svc/eval.h"
#include "svc/server.h"
#include "workloads.h"

namespace nano::perf {

namespace {

constexpr int kConnections = 4;
/// A window fails if no connection hears back for this long.
constexpr int kResponseTimeoutMs = 60000;
constexpr std::size_t kWarmupRequests = 4000;
/// Every kVerifyStride-th response is re-derived through svc::evaluate.
constexpr std::size_t kVerifyStride = 25;
/// Requests replayed through svc::evaluate and Service::call (traced run).
constexpr std::size_t kProbeRequests = 600;

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("svc_mix: socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("svc_mix: connect() failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& line) {
    std::string out = line;
    out.push_back('\n');
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
      if (n <= 0) throw std::runtime_error("svc_mix: write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read what has arrived; call when poll() reports the socket readable.
  void receive() {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("svc_mix: connection closed");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }

  /// Moves the next complete response line into `line`, if one arrived.
  bool takeLine(std::string& line) {
    const auto eol = buf_.find('\n');
    if (eol == std::string::npos) return false;
    line = buf_.substr(0, eol);
    buf_.erase(0, eol + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool responseOk(const std::string& line) {
  return line.find("\"status\":\"ok\"") != std::string::npos;
}

class SvcMix final : public Workload {
 public:
  explicit SvcMix(const Options& options) : options_(options) {
    // Process-wide model caches start cold, like a fresh nanod.
    scenario::Plant::clearCache();
    powergrid::GridModel::clearCache();
    service_ = std::make_unique<svc::Service>();
    net::NetServerOptions netOptions;
    netOptions.tcpPort = 0;
    server_ = std::make_unique<net::NetServer>(*service_, netOptions);
    std::string error;
    if (!server_->start(error)) {
      throw std::runtime_error("svc_mix: server start failed: " + error);
    }
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<Connection>(server_->tcpPort()));
    }
    // Cache warm-up from an independent draw stream of the same seed.
    MixGenerator warm(options_.seed, 1, "w", /*cheapOnly=*/true);
    std::vector<MixRequest> requests;
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
      requests.push_back(warm.next());
    }
    const Drive d = drive(requests, nullptr);
    if (d.failed != 0) throw std::runtime_error("svc_mix: warm-up failed");
  }

  ~SvcMix() override {
    conns_.clear();
    server_->stop();
  }

  WindowResult run(std::size_t ops, SpanRecorder* spans) override {
    MixGenerator gen(options_.seed, 2, "r");
    std::vector<MixRequest> requests;
    requests.reserve(ops);
    for (std::size_t i = 0; i < ops; ++i) requests.push_back(gen.next());

    const Drive d = drive(requests, spans);
    WindowResult w;
    w.latencyMs = d.latencyMs;
    w.wallS = d.wallS;
    w.cpuS = d.cpuS;
    w.attempted = static_cast<std::int64_t>(ops);
    w.failed = d.failed;
    Digest all;
    for (int c = 0; c < kConnections; ++c) {
      all.u64(d.digests[c].value());
      w.digests["responses.conn" + std::to_string(c)] = d.digests[c].hex();
    }
    w.digests["responses"] = all.hex();

    // Every sampled response must be byte-identical to a direct,
    // uncached evaluation of the same request.
    std::size_t checked = 0, mismatched = 0;
    const ObsPause untraced;
    for (std::size_t i = 0; i < ops; i += kVerifyStride) {
      const svc::Request& r = requests[i].request;
      const std::string expect =
          svc::makeResponse(r, svc::evaluate(r)).toJsonLine();
      ++checked;
      if (expect != d.responses[i]) ++mismatched;
    }
    if (mismatched != 0) {
      w.checkFailures.push_back("svc_mix.response_bytes (" +
                                std::to_string(mismatched) + " of " +
                                std::to_string(checked) + " sampled)");
    }
    probeRequests_.assign(requests.begin(),
                          requests.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(ops, kProbeRequests)));
    return w;
  }

  void layerMetrics(const ObsWindow& obs, const WindowResult& window,
                    std::map<std::string, double>& out) override {
    out["net.overhead_ms.p50"] =
        percentile(window.latencyMs, 0.5).value -
        snapshotMs(obs.timer("svc/latency/total"), 0.5);
    const auto queue = obs.timer("svc/phase/queue_wait");
    out["svc.queue_wait_ms.p50"] = snapshotMs(queue, 0.5);
    out["svc.queue_wait_ms.p99"] = snapshotMs(queue, 0.99);
    out["svc.batch_size.mean"] = obs.timer("svc/batch_size").mean();
    out["svc.batches"] = static_cast<double>(obs.counter("svc/batches"));
    const auto eval = obs.timer("svc/phase/eval");
    out["svc.eval_ms.p50"] = snapshotMs(eval, 0.5);
    out["svc.eval_ms.p99"] = snapshotMs(eval, 0.99);
    // node_summary's 6 keys stay cached from warm-up on, so its eval time
    // reads 0 and is printed as a note, not a listed metric.
    for (const char* kind : {"design_point", "repeater", "wire", "node_summary",
                             "sta", "scenario", "design_grid", "grid_solve"}) {
      out[std::string("svc.eval_ms.") + kind] =
          snapshotMs(obs.timer(std::string("svc/latency/") + kind), 0.5);
    }
    out["svc.emit_ms.p50"] = snapshotMs(obs.timer("svc/phase/emit"), 0.5);
    const double hits = static_cast<double>(obs.counter("svc/cache_hits"));
    const double misses = static_cast<double>(obs.counter("svc/cache_misses"));
    const double joins = static_cast<double>(obs.counter("svc/dedup_joins"));
    out["svc.cache_hit_ratio"] =
        hits + misses + joins > 0 ? hits / (hits + misses + joins) : 0.0;
    out["svc.cache_evictions"] =
        static_cast<double>(obs.counter("svc/cache_evictions"));
    // Printed as notes, not listed metrics: the batch barrier leaves the
    // mix almost no cross-connection joins (0 or 1 a window).
    out["svc.dedup_joins"] = joins;
    out["svc.dedup_join_ms.p99"] =
        snapshotMs(obs.timer("svc/phase/dedup_join"), 0.99);
    out["scenario.plant_builds"] =
        static_cast<double>(obs.counter("scenario/plant_builds"));
    out["scenario.plant_reuses"] =
        static_cast<double>(obs.counter("scenario/plant_reuses"));
    out["scenario.plant_build_ms"] =
        snapshotMs(obs.timer("scenario/plant_build"), 0.5);
    // The plant cache never evicts and was cleared at set-up start, when
    // the traced run turned obs on: every build since is a live entry.
    out["scenario.plant_cache_entries"] = static_cast<double>(
        obs::MetricsRegistry::instance().counter("scenario/plant_builds").value());
    const double ops = static_cast<double>(window.latencyMs.size());
    out["exec.parallel_regions_per_op"] =
        static_cast<double>(obs.counter("exec/parallel_regions")) / ops;
    out["exec.tasks_per_op"] = static_cast<double>(obs.counter("exec/tasks")) / ops;
    out["sta.analyze_calls_per_op"] =
        static_cast<double>(obs.counter("sta/analyze_calls")) / ops;
    out["sta.nodes_timed_per_op"] =
        static_cast<double>(obs.counter("sta/nodes_timed")) / ops;
    out["circuit.soa_builds_per_op"] =
        static_cast<double>(obs.counter("circuit/soa_builds")) / ops;

    // The window's first requests again, straight through the evaluator
    // and through a fresh in-process service: model time vs service time.
    std::vector<double> direct, call;
    for (const MixRequest& r : probeRequests_) {
      const std::int64_t t0 = nowNs();
      (void)svc::evaluate(r.request);
      direct.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    svc::Service fresh;
    for (const MixRequest& r : probeRequests_) {
      const std::int64_t t0 = nowNs();
      (void)fresh.call(r.request);
      call.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    }
    out["svc.direct_eval_ms.p50"] = median(direct);
    out["svc.service_call_ms.p50"] = median(call);
  }

 private:
  struct Drive {
    std::vector<double> latencyMs;
    std::vector<std::string> responses;
    Digest digests[kConnections];
    std::int64_t failed = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
  };

  /// Closed loop: connection c sends requests c, c+4, ... one at a time,
  /// all driven from this thread, which polls the four sockets.
  Drive drive(const std::vector<MixRequest>& requests, SpanRecorder* spans) {
    Drive d;
    d.latencyMs.assign(requests.size(), 0.0);
    d.responses.assign(requests.size(), std::string());
    std::size_t next[kConnections];
    std::int64_t sentNs[kConnections] = {};
    std::optional<Span> span[kConnections];
    const std::int64_t start = nowNs();
    const std::int64_t cpuStart = cpuNs();
    auto sendNext = [&](int c) {
      const std::size_t i = next[c];
      if (i >= requests.size()) return false;
      span[c].emplace(spans, "net.request", i);
      sentNs[c] = nowNs();
      conns_[static_cast<std::size_t>(c)]->send(requests[i].line);
      return true;
    };
    int inFlight = 0;
    for (int c = 0; c < kConnections; ++c) {
      next[c] = static_cast<std::size_t>(c);
      if (sendNext(c)) ++inFlight;
    }
    pollfd fds[kConnections];
    std::string response;
    while (inFlight > 0) {
      for (int c = 0; c < kConnections; ++c) {
        fds[c] = {conns_[static_cast<std::size_t>(c)]->fd(), POLLIN, 0};
      }
      if (::poll(fds, kConnections, kResponseTimeoutMs) <= 0) {
        throw std::runtime_error("svc_mix: no response within " +
                                 std::to_string(kResponseTimeoutMs) + " ms");
      }
      for (int c = 0; c < kConnections; ++c) {
        if (fds[c].revents == 0) continue;
        Connection& conn = *conns_[static_cast<std::size_t>(c)];
        conn.receive();
        while (conn.takeLine(response)) {
          const std::size_t i = next[c];
          d.latencyMs[i] = static_cast<double>(nowNs() - sentNs[c]) * 1e-6;
          span[c].reset();
          if (!responseOk(response)) {
            // A failed request misses every latency limit.
            ++d.failed;
            d.latencyMs[i] = std::numeric_limits<double>::infinity();
          }
          d.digests[c].bytes(response);
          d.digests[c].bytes("\n");
          if (i % kVerifyStride == 0) d.responses[i] = std::move(response);
          next[c] += kConnections;
          if (!sendNext(c)) --inFlight;
        }
      }
    }
    d.wallS = static_cast<double>(nowNs() - start) * 1e-9;
    d.cpuS = static_cast<double>(cpuNs() - cpuStart) * 1e-9;
    return d;
  }

  Options options_;
  std::unique_ptr<svc::Service> service_;
  std::unique_ptr<net::NetServer> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<MixRequest> probeRequests_;
};

}  // namespace

std::unique_ptr<Workload> makeSvcMix(const Options& options) {
  return std::make_unique<SvcMix>(options);
}

}  // namespace nano::perf
