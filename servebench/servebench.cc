/// \file servebench.cc
/// \brief The served-SQL benchmark: one workload against a pip-server
/// child process.
///
/// Usage (normally through run.py, which builds this and pip-server):
///   servebench --server PATH --workload NAME --seed N --seconds S
///              --trace 0|1 [--build-type T] [--commit C]
///
/// --trace 0 starts the server and loads the workload's tables three
/// times (setup_s is the median), runs a short untimed warm-up on the
/// last server, then drives the workload's closed-loop sessions from this
/// process for S seconds and reports the end-to-end metrics. --trace 1
/// runs the same untraced phase, then a traced phase on a fresh server
/// with the same seed and stream, replays what that phase sent on an
/// in-process shadow Database to time the server-side layers, and
/// reports the per-layer metrics (see README.md for the map from each to
/// the end-to-end metric it should move). The last stdout line is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}.
///
/// Any wrong answer, undecodable response frame, or a server that does
/// not come up exits non-zero without printing metrics.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "servebench/stats.h"
#include "servebench/workloads.h"
#include "src/server/client.h"
#include "src/server/wire.h"
#include "src/sql/lexer.h"
#include "src/sql/session.h"

namespace servebench {
namespace {

using pip::server::WireResponse;
using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerRun = 3;
// Untimed statements each connection runs before the timed loop, so lazy
// set-up (plan cache, first parallel regions) is paid before timing: one
// full mc_analytic cycle.
constexpr uint64_t kWarmupStatements = 9;
// Wall-clock cap of the count-limited warm-up.
constexpr double kWarmupCapSeconds = 120;
constexpr const char* kHost = "127.0.0.1";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

void StopAllServers();

/// A failure that invalidates the run: reported on stderr, no metrics.
/// Stops every server child first.
[[noreturn]] void Fail(int code, const std::string& message) {
  StopAllServers();
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::fflush(stderr);
  std::exit(code);
}

constexpr int kExitWrongAnswer = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInfra = 3;

// ---------------------------------------------------------------------------
// The pip-server child.
// ---------------------------------------------------------------------------

struct ProcStatus {
  double hwm_mb = 0;
  double vmsize_mb = 0;
  double threads = 0;
};

/// Owns one pip-server process: started with the workload's flags on an
/// ephemeral port, stopped with SIGTERM (SIGKILL after a grace period)
/// and always reaped. The child is killed if this process dies first.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Empty string on success.
  std::string Start(const std::string& path,
                    const std::vector<std::string>& flags) {
    std::vector<std::string> args = {path, "--port", "0"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) return std::string("pipe: ") + std::strerror(errno);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      pid_ = -1;
      return std::string("fork: ") + std::strerror(errno);
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    {
      std::lock_guard<std::mutex> lock(live_mu_);
      live_.push_back(this);
    }

    // The server announces "... listening on HOST:PORT (protocol PIP1)".
    std::string buffer;
    const int64_t deadline = NowNs() + 30'000'000'000LL;
    while (buffer.find('\n') == std::string::npos) {
      pollfd pfd{out_fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0) return "pip-server did not announce its port";
      if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
      char chunk[256];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return "pip-server exited before listening";
      buffer.append(chunk, static_cast<size_t>(n));
    }
    const size_t at = buffer.find("listening on ");
    const size_t colon = buffer.find(':', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || colon == std::string::npos) {
      return "unexpected pip-server banner: " + buffer;
    }
    port_ = static_cast<uint16_t>(std::atoi(buffer.c_str() + colon + 1));
    if (port_ == 0) return "no port in pip-server banner: " + buffer;
    return "";
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(live_mu_);
      live_.erase(std::remove(live_.begin(), live_.end(), this), live_.end());
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      bool reaped = false;
      for (int i = 0; i < 1500 && !reaped; ++i) {
        reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
        if (!reaped) ::usleep(10'000);
      }
      if (!reaped) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  uint16_t port() const { return port_; }

  /// VmHWM, VmSize and Threads from /proc/<pid>/status.
  ProcStatus ReadStatus() const {
    ProcStatus s;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      double v = 0;
      if (key == "VmHWM:" && in >> v) s.hwm_mb = v / 1024.0;
      if (key == "VmSize:" && in >> v) s.vmsize_mb = v / 1024.0;
      if (key == "Threads:" && in >> v) s.threads = v;
      in.ignore(4096, '\n');
    }
    return s;
  }

 private:
  friend void StopAllServers();
  static std::mutex live_mu_;
  static std::vector<ServerProcess*> live_;  // Guarded by live_mu_.

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

std::mutex ServerProcess::live_mu_;
std::vector<ServerProcess*> ServerProcess::live_;

void StopAllServers() {
  std::vector<ServerProcess*> live;
  {
    std::lock_guard<std::mutex> lock(ServerProcess::live_mu_);
    live = ServerProcess::live_;
  }
  for (ServerProcess* s : live) s->Stop();
}

/// A `metric, value` table answer (SHOW POOL / SHOW INDEX) as a map.
std::map<std::string, double> ShowCounters(pip::server::Client* control,
                                           const std::string& statement) {
  auto r = control->Execute(statement);
  if (!r.ok() || !r.value().ok()) {
    Fail(kExitInfra, statement + " failed: " +
                         (r.ok() ? r.value().message : r.status().ToString()));
  }
  std::map<std::string, double> out;
  for (const auto& row : r.value().rows) {
    if (row.size() == 2) out[row[0]] = std::strtod(row[1].c_str(), nullptr);
  }
  return out;
}

/// A started, loaded server plus the connection that loaded it (kept
/// open as the control connection for SHOW and final checks).
struct LoadedServer {
  ServerProcess process;
  pip::server::Client control;
  double setup_s = 0;
};

/// Starts pip-server with the workload's flags and runs its set-up
/// statements in order on the control connection.
void StartAndLoad(const std::string& server_path, const Workload& wl,
                  LoadedServer* out) {
  const int64_t start = NowNs();
  std::string err = out->process.Start(server_path, wl.ServerFlags());
  if (!err.empty()) Fail(kExitInfra, err);
  pip::Status st = out->control.Connect(kHost, out->process.port());
  if (!st.ok()) Fail(kExitInfra, "connect: " + st.ToString());
  for (const std::string& s : wl.SetupStatements()) {
    auto r = out->control.Execute(s);
    if (!r.ok() || !r.value().ok()) {
      Fail(kExitInfra, "set-up statement failed: " +
                           (r.ok() ? r.value().message : r.status().ToString()) +
                           " in: " + s.substr(0, 120));
    }
  }
  out->setup_s = SecondsSince(start);
}

// ---------------------------------------------------------------------------
// Closed-loop phase.
// ---------------------------------------------------------------------------

/// Identically seeded in-process Database that replays the served stream
/// through sql::Session after the traced phase, so server-side layers can
/// be timed and served answers compared bit for bit.
struct Shadow {
  explicit Shadow(const Workload& wl) : db(pip::VariablePool::kDefaultSeed) {
    pip::Status st = LoadInProcess(wl, &db);
    if (!st.ok()) Fail(kExitInfra, "shadow: " + st.ToString());
  }
  pip::Database db;
};

/// The canonical bytes of an answer: column metadata and every cell.
std::string Canonical(const WireResponse& r) {
  std::string out = std::to_string(static_cast<int>(r.kind));
  for (const auto& c : r.columns) {
    out += '\x1f';
    out += pip::sql::ColumnKindName(c.kind);
    out += ':';
    out += c.name;
  }
  for (const auto& row : r.rows) {
    out += '\x1e';
    for (const auto& cell : row) {
      out += cell;
      out += '\x1f';
    }
  }
  if (r.kind == WireResponse::Kind::kAck) out += r.message;
  return out;
}

/// A statement the traced phase sent, kept for the shadow replay.
struct Sent {
  int conn = 0;
  std::string text;
  StmtClass cls = StmtClass::kSample;
  bool new_session = false;  ///< Sent on a fresh connection.
  std::string served;        ///< Canonical answer if deterministic and ok.
  uint64_t queue_us = 0;
  int64_t rpc_start_ns = 0, rpc_end_ns = 0;
  uint64_t trace = 0;
  uint64_t rpc_span = 0;  ///< 0 for a warm-up statement: replayed, not laid out.
};

struct PhaseResult {
  std::vector<double> latency_ms[3];  ///< Completed statements by class.
  std::vector<double> all_ms;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  std::map<std::string, uint64_t> failures;  ///< By wire code / TRANSPORT.
  uint64_t acked_rows = 0;
  uint64_t unknown_rows = 0;
  uint64_t writes_acked = 0;
  uint64_t sample_stmts = 0;
  uint64_t queued = 0;
  double queue_us = 0;
  double elapsed_s = 0;
  std::string wrong;  ///< First failed answer check.
  std::string abort;  ///< Protocol breakage (undecodable frame).
  // Traced phase only.
  std::vector<Span> spans;
  std::vector<Sent> sent;
  std::vector<double> response_bytes;  ///< Filled by the shadow replay.
  int64_t tracing_ns = 0;  ///< Time the loop spent on tracing itself.

  /// Makes this an untimed warm-up to Merge into the timed phase: keeps
  /// its attempts, failures, appends, verdicts and sent statements, drops
  /// its timings, spans and the per-statement counts that SHOW deltas over
  /// the timed phase are divided by.
  void DropTimings() {
    for (auto& v : latency_ms) v.clear();
    all_ms.clear();
    spans.clear();
    for (Sent& x : sent) x.rpc_span = 0;
    writes_acked = sample_stmts = queued = 0;
    queue_us = 0;
    tracing_ns = 0;
  }

  void Merge(PhaseResult&& o) {
    for (int c = 0; c < 3; ++c) {
      latency_ms[c].insert(latency_ms[c].end(), o.latency_ms[c].begin(),
                           o.latency_ms[c].end());
    }
    all_ms.insert(all_ms.end(), o.all_ms.begin(), o.all_ms.end());
    attempted += o.attempted;
    completed += o.completed;
    for (const auto& [k, v] : o.failures) failures[k] += v;
    acked_rows += o.acked_rows;
    unknown_rows += o.unknown_rows;
    writes_acked += o.writes_acked;
    sample_stmts += o.sample_stmts;
    queued += o.queued;
    queue_us += o.queue_us;
    tracing_ns += o.tracing_ns;
    if (wrong.empty()) wrong = o.wrong;
    if (abort.empty()) abort = o.abort;
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    sent.insert(sent.end(), std::make_move_iterator(o.sent.begin()),
                std::make_move_iterator(o.sent.end()));
  }
};

/// Answers of deterministic statements, shared by all connections.
class AnswerBook {
 public:
  /// Empty string when `canonical` matches the first answer to `text`.
  std::string Record(const std::string& text, const std::string& canonical) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = answers_.emplace(text, canonical);
    if (inserted || it->second == canonical) return "";
    return "answer differs between connections for: " + text;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::string> answers_;
};

/// Span ids of the shadow replay start past any connection's.
constexpr int kReplayTracer = 1 << 16;

/// Appends spans to one connection's trace buffer.
class Tracer {
 public:
  Tracer(int conn, std::vector<Span>* out) : out_(out) {
    next_id_ = (static_cast<uint64_t>(conn) + 1) << 40;
  }
  uint64_t NewTrace() { return ++next_id_; }
  uint64_t Add(uint64_t trace, uint64_t parent, const char* name,
               int64_t start_ns, int64_t end_ns) {
    const uint64_t id = ++next_id_;
    out_->push_back(Span{id, parent, trace, name, start_ns, end_ns});
    return id;
  }

 private:
  std::vector<Span>* out_;
  uint64_t next_id_;
};

void RunConnection(int conn, Workload* wl, uint16_t port, int64_t deadline_ns,
                   uint64_t max_statements, AnswerBook* book, bool traced,
                   PhaseResult* out) {
  pip::server::Client client;
  Tracer tracer(conn, &out->spans);
  int consecutive_transport = 0;
  bool need_connect = true;

  for (uint64_t issued = 0; NowNs() < deadline_ns && out->abort.empty() &&
                            (max_statements == 0 || issued < max_statements);
       ++issued) {
    Stmt s = wl->Next(conn, NowNs());
    const bool new_session = s.reconnect_first || need_connect;
    if (new_session) client.Close();
    const int64_t root_start = NowNs();
    const uint64_t trace = traced ? tracer.NewTrace() : 0;
    int64_t connect_start = 0, connect_end = 0;

    if (new_session) {
      connect_start = NowNs();
      pip::Status st = client.Connect(kHost, port);
      connect_end = NowNs();
      need_connect = !st.ok();
      if (!st.ok()) {
        // The statement is never sent; it counts as a failed attempt.
        out->attempted++;
        out->failures["TRANSPORT"]++;
        if (++consecutive_transport > 50) out->abort = "server unreachable";
        continue;
      }
    }

    const int64_t rpc_start = NowNs();
    auto resp = client.Execute(s.text);
    const int64_t rpc_end = NowNs();
    out->attempted++;

    std::string served;
    if (!resp.ok()) {
      if (resp.status().code() == pip::StatusCode::kInvalidArgument) {
        out->abort = "undecodable response frame: " + resp.status().ToString();
        break;
      }
      out->failures["TRANSPORT"]++;
      out->unknown_rows += s.appended_rows;
      need_connect = true;
      if (++consecutive_transport > 50) out->abort = "server unreachable";
    } else if (!resp.value().ok()) {
      consecutive_transport = 0;
      out->failures[pip::sql::WireErrorCodeName(resp.value().code)]++;
    } else {
      consecutive_transport = 0;
      const WireResponse& r = resp.value();
      const double ms = (rpc_end - rpc_start) * 1e-6;
      out->completed++;
      out->all_ms.push_back(ms);
      out->latency_ms[static_cast<int>(s.cls)].push_back(ms);
      if (s.cls == StmtClass::kSample) {
        out->sample_stmts++;
        out->queue_us += static_cast<double>(r.queue_us);
        if (r.queue_us > 0) out->queued++;
      }
      out->acked_rows += s.appended_rows;
      if (s.cls == StmtClass::kWrite) out->writes_acked++;
      std::string err = s.check ? s.check(r) : "";
      if (err.empty() && s.deterministic) {
        served = Canonical(r);
        err = book->Record(s.text, served);
      }
      if (!err.empty() && out->wrong.empty()) out->wrong = err + " [" + s.text.substr(0, 160) + "]";
    }

    if (!traced) continue;
    // The root ends with the rpc; the server-side layers are laid into
    // the rpc span later, by the shadow replay, so the traced loop adds
    // only these records and the bookkeeping before the connect and rpc.
    const int64_t record_start = NowNs();
    const uint64_t root = tracer.Add(trace, 0, "stmt", root_start, rpc_end);
    if (new_session) tracer.Add(trace, root, "server.connect", connect_start, connect_end);
    Sent sent;
    sent.conn = conn;
    sent.text = std::move(s.text);
    sent.cls = s.cls;
    sent.new_session = new_session;
    sent.served = std::move(served);
    sent.queue_us = resp.ok() ? resp.value().queue_us : 0;
    sent.rpc_start_ns = rpc_start;
    sent.rpc_end_ns = rpc_end;
    sent.trace = trace;
    sent.rpc_span = tracer.Add(trace, root, "server.rpc", rpc_start, rpc_end);
    out->sent.push_back(std::move(sent));
    out->tracing_ns += (rpc_start - root_start) - (connect_end - connect_start) +
                       (NowNs() - record_start);
  }
}

/// Replays every sent statement, in the order the server received them,
/// on the shadow Database with one Session per connection, on this thread
/// after the traced phase. Times the server-side layers and lays them
/// into the rpc span of each timed statement: classify, admission wait
/// (the response's queue_us), execute (with the tokenize inside it) and
/// encode from its start, the client's decode at its end. The rpc span's
/// self time is then what none of them explain: frame I/O, kernel time
/// and stalls. Also checks served answers against the shadow's bytes.
/// Returns the shadow's plan-cache counters as of the first timed
/// (non-warm-up) statement.
pip::PlanCache::Stats ReplayOnShadow(Shadow* shadow, PhaseResult* tp) {
  std::vector<Sent*> order;
  for (Sent& s : tp->sent) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(), [](const Sent* a, const Sent* b) {
    return a->rpc_start_ns < b->rpc_start_ns;
  });
  std::map<int, std::unique_ptr<pip::sql::Session>> sessions;
  Tracer tracer(kReplayTracer, &tp->spans);
  static const char* kExecute[] = {"sql.execute_sample", "sql.execute_symbolic",
                                   "sql.execute_write"};
  pip::PlanCache::Stats timed_start;
  bool timed = false;
  for (const Sent* s : order) {
    if (s->rpc_span != 0 && !timed) {
      timed_start = shadow->db.plan_cache_stats();
      timed = true;
    }
    std::unique_ptr<pip::sql::Session>& session = sessions[s->conn];
    if (s->new_session || session == nullptr) {
      session = std::make_unique<pip::sql::Session>(&shadow->db);
    }
    int64_t t0 = NowNs();
    if (!pip::sql::Tokenize(s->text).ok()) {
      tp->abort = "benchmark statement does not tokenize: " + s->text.substr(0, 160);
      break;
    }
    const int64_t tokenize_ns = NowNs() - t0;
    t0 = NowNs();
    if (pip::sql::StatementMaySample(s->text)) {
      (void)pip::sql::EstimateSampleVolume(shadow->db, s->text,
                                           *session->mutable_options());
    }
    const int64_t classify_ns = NowNs() - t0;
    t0 = NowNs();
    pip::sql::SqlResult result = session->Execute(s->text);
    const int64_t execute_ns = NowNs() - t0;
    t0 = NowNs();
    const std::string payload = pip::server::EncodeResponse(result, s->queue_us);
    const int64_t encode_ns = NowNs() - t0;
    t0 = NowNs();
    auto decoded = pip::server::DecodeResponse(payload);
    const int64_t decode_ns = NowNs() - t0;
    if (!decoded.ok()) {
      tp->abort = "shadow answer does not decode: " + decoded.status().ToString();
      break;
    }
    if (!s->served.empty() && Canonical(decoded.value()) != s->served &&
        tp->wrong.empty()) {
      tp->wrong = "served answer differs from the shadow Session's for: " +
                  s->text.substr(0, 160);
    }
    if (s->rpc_span == 0) continue;

    tp->response_bytes.push_back(static_cast<double>(payload.size()));
    int64_t at = s->rpc_start_ns;
    auto lay = [&](const char* name, int64_t ns) {
      const uint64_t id = tracer.Add(s->trace, s->rpc_span, name, at, at + ns);
      at += ns;
      return id;
    };
    lay("server.classify", classify_ns);
    if (s->cls == StmtClass::kSample) {
      lay("server.admit_wait", static_cast<int64_t>(s->queue_us) * 1000);
    }
    const int64_t execute_at = at;
    const uint64_t execute = lay(kExecute[static_cast<int>(s->cls)], execute_ns);
    tracer.Add(s->trace, execute, "sql.tokenize", execute_at, execute_at + tokenize_ns);
    lay("server.encode", encode_ns);
    tracer.Add(s->trace, s->rpc_span, "server.decode", s->rpc_end_ns - decode_ns,
               s->rpc_end_ns);
  }
  return timed_start;
}

/// Every connection runs its closed loop until `seconds` pass or it has
/// issued `max_statements` (0 = no limit).
PhaseResult RunPhase(Workload* wl, uint16_t port, double seconds,
                     uint64_t max_statements, bool traced, AnswerBook* book) {
  const int n = wl->connections();
  std::vector<PhaseResult> per(n);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back(RunConnection, c, wl, port, deadline, max_statements,
                         book, traced, &per[c]);
  }
  for (std::thread& t : threads) t.join();
  PhaseResult merged;
  merged.elapsed_s = SecondsSince(start);
  for (PhaseResult& p : per) merged.Merge(std::move(p));
  return merged;
}

// ---------------------------------------------------------------------------
// Isolated layer probes (traced run only).
// ---------------------------------------------------------------------------

struct EngineProbe {
  double accept_ratio = 0, exact_ratio = 0, samples_per_s = 0;
};

/// SamplingEngine::Expectation over the workload's rows with its
/// statements' (expression, condition) pairs, for about `budget_s`.
EngineProbe ProbeEngine(const Workload& wl, const pip::Database& db,
                        double budget_s) {
  auto table = db.GetTable(wl.MainTable());
  if (!table.ok()) Fail(kExitInfra, "shadow lost " + wl.MainTable());
  const pip::CTable& t = *table.value();
  pip::SamplingEngine engine = db.MakeEngine();
  double used = 0, attempts = 0, exact = 0, calls = 0, busy_s = 0;
  const int64_t start = NowNs();
  for (size_t r = 0; r < t.num_rows() && SecondsSince(start) < budget_s; ++r) {
    for (const auto& [expr, cond] : wl.EngineCalls(t.row(r), t.schema())) {
      const int64_t t0 = NowNs();
      auto res = engine.Expectation(expr, cond, true);
      busy_s += SecondsSince(t0);
      if (!res.ok()) Fail(kExitInfra, "engine probe: " + res.status().ToString());
      used += static_cast<double>(res.value().samples_used);
      attempts += static_cast<double>(res.value().attempts);
      exact += res.value().exact ? 1 : 0;
      calls += 1;
    }
  }
  EngineProbe p;
  p.accept_ratio = attempts > 0 ? used / attempts : 1.0;
  p.exact_ratio = calls > 0 ? exact / calls : 0.0;
  p.samples_per_s = busy_s > 0 ? used / busy_s : 0.0;
  return p;
}

/// VariablePool::GenerateBatch draws per second for one parameterisation.
double ProbeDraws(const DrawSpec& spec) {
  pip::VariablePool pool;
  auto var = pool.Create(spec.family, spec.params);
  if (!var.ok()) Fail(kExitInfra, "draw probe: " + var.status().ToString());
  constexpr uint64_t kBatch = 4096;
  std::vector<double> out;
  uint64_t drawn = 0;
  const int64_t start = NowNs();
  while (SecondsSince(start) < 0.15) {
    pip::Status st = pool.GenerateBatch(var.value().var_id, drawn, kBatch, 0, &out);
    if (!st.ok()) Fail(kExitInfra, "draw probe: " + st.ToString());
    drawn += kBatch;
  }
  return static_cast<double>(drawn) / SecondsSince(start);
}

/// Shadow execute time of the stream's first sampling statements at
/// NUM_THREADS = 1 over the default thread count, index off.
double ProbeSpeedup(const std::string& workload, uint64_t seed, pip::Database* db,
                    double budget_s) {
  std::unique_ptr<Workload> wl = MakeWorkload(workload, seed);
  std::vector<std::string> stmts;
  for (int round = 0; stmts.size() < 64 && round < 4096; ++round) {
    for (int c = 0; c < wl->connections(); ++c) {
      Stmt s = wl->Next(c, 0);
      if (s.cls == StmtClass::kSample) stmts.push_back(s.text);
    }
  }
  pip::sql::Session wide(db), serial(db);
  for (const auto& [session, knob] :
       {std::pair{&wide, "SET INDEX_ENABLED = 0"},
        std::pair{&serial, "SET INDEX_ENABLED = 0"},
        std::pair{&serial, "SET NUM_THREADS = 1"}}) {
    if (!session->Execute(knob).ok()) Fail(kExitInfra, std::string(knob) + " failed");
  }
  double wide_s = 0, serial_s = 0;
  for (const std::string& text : stmts) {
    if (wide_s + serial_s > budget_s) break;
    int64_t t0 = NowNs();
    if (!wide.Execute(text).ok()) Fail(kExitInfra, "speedup probe failed: " + text);
    wide_s += SecondsSince(t0);
    t0 = NowNs();
    if (!serial.Execute(text).ok()) Fail(kExitInfra, "speedup probe failed: " + text);
    serial_s += SecondsSince(t0);
  }
  return wide_s > 0 ? serial_s / wide_s : 0.0;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void CheckPhase(const PhaseResult& p, const char* phase) {
  if (!p.abort.empty()) Fail(kExitWrongAnswer, std::string(phase) + ": " + p.abort);
  if (!p.wrong.empty()) {
    Fail(kExitWrongAnswer, std::string(phase) + ": wrong answer: " + p.wrong);
  }
  if (p.completed == 0) Fail(kExitInfra, std::string(phase) + ": no statement completed");
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& key) {
  auto a = after.find(key), b = before.find(key);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string server, workload, build_type = "unknown", commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Fail(kExitUsage, "missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--server") {
      a.server = v;
    } else if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--build-type") {
      a.build_type = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 150;
    } else if (flag == "--trace") {
      a.trace = std::atoi(v.c_str());
      have_trace = (v == "0" || v == "1");
    } else {
      Fail(kExitUsage, "unknown flag " + flag);
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (a.server.empty() || !have_seed || !have_seconds || !have_trace ||
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Fail(kExitUsage,
         "usage: servebench --server PATH --workload "
         "point_lookup|mc_analytic|ingest_rw --seed N --seconds S --trace 0|1");
  }
  return a;
}

int Main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);

  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl->connections() > nproc) {
    Fail(kExitUsage, args.workload + " needs " +
                         std::to_string(wl->connections()) +
                         " connections but this host has nproc = " +
                         std::to_string(nproc));
  }
  std::string flags;
  for (const std::string& f : wl->ServerFlags()) flags += (flags.empty() ? "" : " ") + f;
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %ld, "
      "\"build_type\": %s, \"commit\": %s, \"connections\": %d, "
      "\"seconds\": %s, \"trace\": %d, \"server_flags\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), nproc,
      JsonString(args.build_type).c_str(), JsonString(args.commit).c_str(),
      wl->connections(), JsonNumber(args.seconds).c_str(), args.trace,
      JsonString(flags).c_str());

  // Untraced phase: set-up repeated for a steady setup_s, then the
  // measured closed loop on the last server.
  std::vector<double> setups;
  LoadedServer untraced;
  for (int i = 0; i < kSetupsPerRun - 1 && args.trace == 0; ++i) {
    LoadedServer probe;
    StartAndLoad(args.server, *wl, &probe);
    setups.push_back(probe.setup_s);
  }
  StartAndLoad(args.server, *wl, &untraced);
  setups.push_back(untraced.setup_s);

  AnswerBook book;
  PhaseResult warmup = RunPhase(wl.get(), untraced.process.port(), kWarmupCapSeconds,
                                kWarmupStatements, false, &book);
  warmup.DropTimings();
  const auto pool_before = ShowCounters(&untraced.control, "SHOW POOL");
  const auto index_before = ShowCounters(&untraced.control, "SHOW INDEX");
  PhaseResult phase = RunPhase(wl.get(), untraced.process.port(), args.seconds,
                               0, false, &book);
  phase.Merge(std::move(warmup));
  CheckPhase(phase, "untraced phase");
  const auto pool_after = ShowCounters(&untraced.control, "SHOW POOL");
  const auto index_after = ShowCounters(&untraced.control, "SHOW INDEX");
  const ProcStatus proc = untraced.process.ReadStatus();
  std::string final_err =
      wl->FinalCheck(&untraced.control, phase.acked_rows, phase.unknown_rows);
  if (!final_err.empty()) Fail(kExitWrongAnswer, "final check: " + final_err);
  untraced.control.Close();
  untraced.process.Stop();

  std::string failures;
  for (const auto& [code, n] : phase.failures) {
    failures += (failures.empty() ? "" : ", ") + JsonString(code) + ": " +
                std::to_string(n);
  }
  std::printf("failures {%s} of %llu attempts\n", failures.c_str(),
              static_cast<unsigned long long>(phase.attempted));

  std::optional<TailCut> tail = TailPercentile(phase.all_ms, 10);
  if (!tail) Fail(kExitInfra, "too few statements for a tail percentile");
  std::printf("latency_tail_ms is p%.2f over %zu statements (%zu beyond)\n",
              tail->percentile, tail->samples, tail->beyond);

  std::vector<Metric> metrics;
  uint64_t attempted = phase.attempted;
  uint64_t failed = phase.attempted - phase.completed;
  if (args.trace == 0) {
    for (int c = 0; c < 3; ++c) {
      if (phase.latency_ms[c].empty()) {
        Fail(kExitInfra, std::string("no completed ") +
                             ClassName(static_cast<StmtClass>(c)) + " statement");
      }
    }
    metrics = {
        {"setup_s", Quantile(setups, 0.5), "s"},
        {"stmts_per_s", phase.all_ms.size() / phase.elapsed_s, "1/s"},
        {"latency_p50_ms", Quantile(phase.all_ms, 0.5), "ms"},
        {"latency_tail_ms", tail->value, "ms"},
        {"sample_p50_ms", Quantile(phase.latency_ms[0], 0.5), "ms"},
        {"symbolic_p50_ms", Quantile(phase.latency_ms[1], 0.5), "ms"},
        {"write_p50_ms", Quantile(phase.latency_ms[2], 0.5), "ms"},
        {"completed_ratio", Ratio(phase.completed, phase.attempted), "ratio"},
        {"server_rss_mb", proc.hwm_mb, "MB"},
    };
  } else {
    // Traced phase: a fresh server with the same flags, seed and stream,
    // then the shadow Database replaying what it was sent.
    std::unique_ptr<Workload> traced_wl = MakeWorkload(args.workload, args.seed);
    LoadedServer traced;
    StartAndLoad(args.server, *traced_wl, &traced);
    AnswerBook traced_book;
    PhaseResult traced_warmup =
        RunPhase(traced_wl.get(), traced.process.port(), kWarmupCapSeconds,
                 kWarmupStatements, true, &traced_book);
    traced_warmup.DropTimings();
    PhaseResult tp = RunPhase(traced_wl.get(), traced.process.port(), args.seconds,
                              0, true, &traced_book);
    tp.Merge(std::move(traced_warmup));
    CheckPhase(tp, "traced phase");
    final_err =
        traced_wl->FinalCheck(&traced.control, tp.acked_rows, tp.unknown_rows);
    if (!final_err.empty()) Fail(kExitWrongAnswer, "final check: " + final_err);
    traced.control.Close();
    traced.process.Stop();
    attempted += tp.attempted;
    failed += tp.attempted - tp.completed;

    Shadow shadow(*traced_wl);
    const pip::PlanCache::Stats plan_before = ReplayOnShadow(&shadow, &tp);
    CheckPhase(tp, "shadow replay");
    const pip::PlanCache::Stats plan_after = shadow.db.plan_cache_stats();

    const std::vector<int64_t> self = SelfTimes(tp.spans);
    std::map<std::string, std::vector<double>> self_us, duration_us;
    double rpc_total_us = 0, rpc_self_us = 0, roots = 0;
    for (size_t i = 0; i < tp.spans.size(); ++i) {
      const Span& s = tp.spans[i];
      self_us[s.name].push_back(self[i] * 1e-3);
      duration_us[s.name].push_back((s.end_ns - s.start_ns) * 1e-3);
      if (s.name == "server.rpc") {
        rpc_total_us += (s.end_ns - s.start_ns) * 1e-3;
        rpc_self_us += self[i] * 1e-3;
      }
      if (s.parent == 0) roots += 1;
    }
    auto layer = [&](const char* name) { return Mean(self_us[name]); };
    // An execute span holds its tokenize; the layer is the whole
    // Session::Execute.
    auto whole = [&](const char* name) { return Mean(duration_us[name]); };
    std::printf("trace %zu spans over %.0f statements\n", tp.spans.size(), roots);
    for (const auto& [name, v] : self_us) {
      std::printf("self_time %-22s mean %10.1f us  p50 %10.1f us  n=%zu\n",
                  name.c_str(), Mean(v), Quantile(v, 0.5), v.size());
    }
    std::printf("traced rpc mean %.1f us, untraced statement mean %.1f us\n",
                Mean(duration_us["server.rpc"]), 1e3 * Mean(phase.all_ms));

    const EngineProbe engine = ProbeEngine(*traced_wl, shadow.db, 1.0);
    const std::vector<DrawSpec> draws = traced_wl->DrawSpecs();
    auto draw_rate = [&](const char* family) {
      for (const DrawSpec& d : draws) {
        if (d.family == family) return ProbeDraws(d);
      }
      Fail(kExitInfra, std::string("no draw spec for ") + family);
    };
    const double speedup = ProbeSpeedup(args.workload, args.seed, &shadow.db, 3.0);

    const double sample_stmts = static_cast<double>(phase.sample_stmts);
    const double sample_us = 1e3 * Mean(phase.latency_ms[0]) *
                             static_cast<double>(phase.latency_ms[0].size());
    const double regions = Delta(pool_before, pool_after, "regions");
    const double inline_regions = Delta(pool_before, pool_after, "inline_regions");
    const double hits = Delta(index_before, index_after, "hits");
    const double misses = Delta(index_before, index_after, "misses");
    const double plan_hits = static_cast<double>(plan_after.hits - plan_before.hits);
    const double plan_misses =
        static_cast<double>(plan_after.misses - plan_before.misses);
    metrics = {
        {"server.transport_us", layer("server.rpc"), "us"},
        {"server.transport_share", Ratio(rpc_self_us, rpc_total_us), "ratio"},
        {"server.connect_us", layer("server.connect"), "us"},
        {"server.classify_us", layer("server.classify"), "us"},
        // Waits are shares of sampling-statement time rather than times:
        // with one connection or no gate they are exactly zero.
        {"server.admit_wait_share", Ratio(phase.queue_us, sample_us), "ratio"},
        {"server.queued_ratio", Ratio(phase.queued, sample_stmts), "ratio"},
        {"server.encode_us", layer("server.encode"), "us"},
        {"server.decode_us", layer("server.decode"), "us"},
        {"server.response_bytes", Mean(tp.response_bytes), "bytes"},
        {"server.threads", proc.threads, "count"},
        {"server.vmsize_mb", proc.vmsize_mb, "MB"},
        {"sql.tokenize_us", layer("sql.tokenize"), "us"},
        {"sql.execute_sample_us", whole("sql.execute_sample"), "us"},
        {"sql.execute_symbolic_us", whole("sql.execute_symbolic"), "us"},
        {"sql.execute_write_us", whole("sql.execute_write"), "us"},
        {"sampling.plan_hit_ratio", Ratio(plan_hits, plan_hits + plan_misses), "ratio"},
        {"sampling.accept_ratio", engine.accept_ratio, "ratio"},
        {"sampling.exact_ratio", engine.exact_ratio, "ratio"},
        {"sampling.samples_per_s", engine.samples_per_s, "1/s"},
        {"index.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"index.invalidations_per_write",
         Ratio(Delta(index_before, index_after, "invalidations"),
               static_cast<double>(phase.writes_acked)),
         "count"},
        {"index.bytes", index_after.count("bytes") ? index_after.at("bytes") : 0, "bytes"},
        {"index.evictions", Delta(index_before, index_after, "evictions"), "count"},
        {"dist.draws_per_s.Poisson", draw_rate("Poisson"), "1/s"},
        {"dist.draws_per_s.Exponential", draw_rate("Exponential"), "1/s"},
        {"dist.draws_per_s.Normal", draw_rate("Normal"), "1/s"},
        {"pool.regions", Ratio(regions, sample_stmts), "count"},
        {"pool.inline_ratio", Ratio(inline_regions, regions + inline_regions), "ratio"},
        {"pool.steals", Ratio(Delta(pool_before, pool_after, "steals"), sample_stmts),
         "count"},
        {"pool.join_wait_share",
         Ratio(Delta(pool_before, pool_after, "join_wait_micros"), sample_us), "ratio"},
        {"pool.speedup", speedup, "ratio"},
        {"trace.overhead_us", Ratio(tp.tracing_ns * 1e-3, roots), "us"},
    };
  }

  std::string body;
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    body += (body.empty() ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), body.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
