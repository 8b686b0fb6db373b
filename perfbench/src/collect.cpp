// `collect` workload: tempest-collectd as a child process, UDS ingest.
//
// Each round launches a fresh collector (set-up ends when /healthz
// answers 200), then streams the seeded session set through
// CollectClient over nproc - 1 Unix-socket connections. Ingest is a
// closed loop: a connection sends its next session only after the
// previous BYE. One more client polls /profile and /top in an open loop
// at a fixed rate, through the same library calls tempest-diff --poll
// and tempest-top --connect make; each query's latency is timed from
// when it was due, and how late the generator ran is reported. Sessions
// vary in size, have shallow stacks and are sample-dense (one sample
// per 16 events) -- the opposite shape of the analyze trace. Rounds
// repeat until the time budget is spent.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collectd/client.hpp"
#include "collectd/net.hpp"
#include "collectd/profile_client.hpp"
#include "common.hpp"
#include "trace/trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace trace = tempest::trace;
namespace collectd = tempest::collectd;

// Fleet shape. 32 sessions per round is bench_collectd's fleet gate
// (">= 32 concurrent sessions"). Their sizes are an even ladder around
// its default session of 200k call pairs (400k events), sent largest
// first: every seed then has the same sizes and the same schedule, so
// the seed changes what the sessions hold, not how long a round takes.
constexpr std::size_t kSessions = 32;
constexpr std::size_t kMinEvents = 100'000;
constexpr std::size_t kMaxEvents = 700'000;
constexpr std::size_t kPoolFunctions = 300;
constexpr std::size_t kMaxDepth = 3;
constexpr std::size_t kEventsPerSample = 16;
// Query plane: one reader per session, each at the 1 s default interval
// of tempest-top --connect (/top) and tempest-diff --poll (/profile),
// served as one open-loop stream that alternates the two.
constexpr double kReaderIntervalS = 1.0;
constexpr double kQueryHz = static_cast<double>(kSessions) / kReaderIntervalS;
constexpr double kHttpTimeoutS = 10.0;

// ------------------------------------------------------------- inputs

struct SessionInput {
  trace::Trace trace;
  std::string heartbeat;
};

std::string pool_name(std::size_t f) {
  char name[16];
  std::snprintf(name, sizeof(name), "svc_%03zu", f);
  return name;
}

/// Session `i` of the seeded set: kMaxEvents down to kMinEvents events
/// as `i` rises, on one thread, stacks at most 3 deep, a sample every 16
/// events.
SessionInput make_session(std::uint64_t seed, std::size_t i,
                          std::map<std::string, std::uint64_t>* truth) {
  Rng rng{seed * 0x9E3779B1ULL + i * 7919 + 1};
  SessionInput in;
  trace::Trace& t = in.trace;
  t.tsc_ticks_per_second = 1e9;
  t.executable = "fleet_app_" + std::to_string(i % 4);
  t.nodes = {{0, "host" + std::to_string(i)}};
  t.sensors = {{0, 0, "cpu", 0.0}};
  t.threads = {{0, 0, 0}};
  for (std::size_t f = 0; f < kPoolFunctions; ++f) {
    t.synthetic_symbols.push_back({trace::kSyntheticAddrBase + 0x100 + f * 0x10,
                                   pool_name(f)});
  }
  const std::size_t target = kMaxEvents - i * (kMaxEvents - kMinEvents) / (kSessions - 1);
  t.fn_events.reserve(target + kMaxDepth);
  std::vector<std::size_t> stack;
  std::size_t last_sibling[kMaxDepth + 1] = {};
  std::uint64_t tsc = 1'000'000;
  auto push = [&](std::size_t f, trace::FnEventKind kind) {
    tsc += 200 + rng.below(2000);
    t.fn_events.push_back(
        {tsc, t.synthetic_symbols[f].addr, 0, 0, kind});
    if (t.fn_events.size() % kEventsPerSample == 0) {
      t.temp_samples.push_back(
          {tsc + 1, 50.0 + 20.0 * rng.unit(), 0, 0});
    }
  };
  while (t.fn_events.size() < target) {
    const std::size_t depth = stack.size();
    if (depth == 0 || (depth < kMaxDepth && rng.below(2) == 0)) {
      std::size_t f = 0;
      do {
        f = rng.below(kPoolFunctions);
      } while (f == last_sibling[depth]);
      last_sibling[depth] = f;
      stack.push_back(f);
      ++(*truth)[pool_name(f)];
      push(f, trace::FnEventKind::kEnter);
    } else {
      push(stack.back(), trace::FnEventKind::kExit);
      stack.pop_back();
    }
  }
  while (!stack.empty()) {
    push(stack.back(), trace::FnEventKind::kExit);
    stack.pop_back();
  }
  t.run_stats.present = true;
  t.run_stats.events_recorded = t.fn_events.size();
  t.run_stats.calls_observed = t.fn_events.size();
  t.run_stats.tempd_samples = t.temp_samples.size();
  t.run_stats.tempd_ticks = t.temp_samples.size();
  t.run_stats.threads_registered = 1;
  t.run_stats.wall_seconds = static_cast<double>(tsc) / 1e9;
  in.heartbeat = "{\"t\":" + std::to_string(t.run_stats.wall_seconds) +
                 ",\"schema_version\":1,\"seq\":1,\"events_recorded\":" +
                 std::to_string(t.fn_events.size()) + "}";
  return in;
}

// ---------------------------------------------------------------- JSON

/// Strict JSON syntax check (objects, arrays, strings, numbers,
/// literals); no values are kept.
class JsonCheck {
 public:
  static bool valid(const std::string& s) {
    JsonCheck c(s);
    return c.value() && (c.ws(), c.pos_ == s.size());
  }

 private:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  void ws() {
    while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_]) != nullptr) ++pos_;
  }
  bool eat(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') pos_ += s_[pos_] == '\\' ? 2 : 1;
    return pos_++ < s_.size();
  }
  bool value() {
    if (++depth_ > 64) return false;
    ws();
    bool ok = false;
    if (pos_ >= s_.size()) {
      ok = false;
    } else if (s_[pos_] == '{') {
      ++pos_;
      ok = eat('}');
      while (!ok) {
        if (!string() || !eat(':') || !value()) break;
        if (eat('}')) ok = true;
        else if (!eat(',')) break;
      }
    } else if (s_[pos_] == '[') {
      ++pos_;
      ok = eat(']');
      while (!ok) {
        if (!value()) break;
        if (eat(']')) ok = true;
        else if (!eat(',')) break;
      }
    } else if (s_[pos_] == '"') {
      ok = string();
    } else {
      const std::size_t start = pos_;
      while (pos_ < s_.size() && std::strchr("+-.0123456789eEtruefalsn", s_[pos_]) != nullptr) {
        ++pos_;
      }
      ok = pos_ > start;
    }
    --depth_;
    return ok;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

/// Numeric value of `"key":` in a flat JSON body (0 when absent).
double json_number(const std::string& body, const std::string& key) {
  const std::size_t at = body.find("\"" + key + "\":");
  return at == std::string::npos ? 0.0 : std::atof(body.c_str() + at + key.size() + 3);
}

/// Median bucket bound of a Prometheus histogram in an exposition body.
double prometheus_p50(const std::string& body, const std::string& hist) {
  const double count = [&] {
    const std::size_t at = body.find("\n" + hist + "_count ");
    return at == std::string::npos ? 0.0
                                   : std::atof(body.c_str() + at + hist.size() + 8);
  }();
  if (count <= 0.0) return 0.0;
  const std::string prefix = "\n" + hist + "_bucket{le=\"";
  std::size_t pos = 0;
  while ((pos = body.find(prefix, pos)) != std::string::npos) {
    pos += prefix.size();
    const double bound = std::atof(body.c_str() + pos);
    const std::size_t value_at = body.find("} ", pos);
    if (std::atof(body.c_str() + value_at + 2) * 2.0 >= count) return bound;
  }
  return 0.0;
}

double prometheus_value(const std::string& body, const std::string& name) {
  const std::size_t at = body.find("\n" + name + " ");
  return at == std::string::npos ? 0.0 : std::atof(body.c_str() + at + name.size() + 2);
}

// ------------------------------------------------------------ collector

/// tempest-collectd child: spawned in the constructor, SIGTERMed and
/// reaped (with its rusage) by stop() or the destructor.
class Collector {
 public:
  Collector(const std::string& binary, const std::string& sock,
            const std::string& port_file, unsigned shards) {
    std::vector<std::string> argv_s = {binary,       "--uds",  sock,
                                       "--http",     "127.0.0.1:0",
                                       "--port-file", port_file,
                                       "--shards",   std::to_string(shards)};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
    if (posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  bool running() const { return pid_ > 0; }

  /// SIGTERM, then reap; returns the child's peak RSS in MiB.
  double stop() {
    if (pid_ <= 0) return peak_rss_mib_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    struct rusage ru {};
    if (::wait4(pid_, &status, 0, &ru) == pid_) {
      peak_rss_mib_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
      clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    pid_ = -1;
    return peak_rss_mib_;
  }
  bool clean_exit() const { return clean_exit_; }

 private:
  pid_t pid_ = -1;
  double peak_rss_mib_ = 0.0;
  bool clean_exit_ = false;
};

/// Poll the port file, then /healthz, until 200 or `timeout_s`;
/// returns the query-plane endpoint, empty on timeout.
std::string wait_healthy(const std::string& port_file, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  int port = 0;
  while (now_s() < deadline) {
    if (port == 0) {
      // The daemon writes "<port>\n"; wait for the newline.
      std::ifstream in(port_file);
      std::stringstream text;
      text << in.rdbuf();
      const std::string s = text.str();
      if (!s.empty() && s.back() == '\n') port = std::atoi(s.c_str());
    }
    const std::string endpoint = "tcp:127.0.0.1:" + std::to_string(port);
    if (port != 0 && collectd::http_get(endpoint, "/healthz", 1.0).is_ok()) {
      return endpoint;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return "";
}

struct Query {
  bool profile = false;
  double latency_ms = 0.0;  ///< completion - due time
  double late_ms = 0.0;     ///< send time - due time
  bool ok = false;
};

}  // namespace

int run_collect(const Args& args) {
  const std::uint64_t seed = args.u64("seed", 1);
  const double seconds = args.f64("seconds", 10.0);
  const bool traced = args.u64("trace", 0) != 0;
  const std::string work = args.str("work", ".");
  const std::string binary = args.str("collectd");
  const std::size_t n_sessions = kSessions;
  // Ingest connections plus the poller never exceed nproc; shards follow
  // the collector's own default, min(4, cores).
  const std::size_t connections = std::max(1u, nproc() - 1);
  const unsigned shards = std::min(4u, nproc());
  Tracer tracer(traced, seed);

  std::map<std::string, std::uint64_t> truth;
  std::vector<SessionInput> inputs;
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < n_sessions; ++i) {
    inputs.push_back(make_session(seed, i, &truth));
    total_events += inputs.back().trace.fn_events.size();
  }
  std::string truth_text;
  for (const auto& [name, calls] : truth) {
    truth_text += name + " " + std::to_string(calls) + "\n";
  }
  write_file(work + "/collect.truth", truth_text);

  const std::string sock = work + "/collectd.sock";
  const std::string port_file = work + "/collectd.port";
  std::vector<double> setup_s, ingest_s, events_per_s, fold_lag_s, rss_mib,
      send_s, fold_us_p50, fold_s, samples_folded, queue_max, events_folded;
  double fleet_functions = 0.0;
  std::vector<Query> queries;
  std::uint64_t sessions_sent = 0, send_failed = 0, checks = 0, checks_failed = 0;
  std::uint64_t folded_total = 0, aborted_total = 0;
  std::vector<std::string> failures;
  auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++checks_failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  };

  const double deadline = now_s() + seconds;
  for (std::size_t round = 0; round < 2 || now_s() < deadline; ++round) {
    std::error_code ec;
    std::filesystem::remove(sock, ec);
    std::filesystem::remove(port_file, ec);

    // ---- set-up: launch until /healthz is 200 --------------------------
    const double t_launch = now_s();
    std::string endpoint;
    std::optional<Collector> collector;
    {
      const auto span = tracer.span("collectd.start");
      collector.emplace(binary, sock, port_file, shards);
      if (collector->running()) endpoint = wait_healthy(port_file, 30.0);
    }
    setup_s.push_back(now_s() - t_launch);
    check(!endpoint.empty(), "collector answers /healthz");
    if (endpoint.empty()) break;

    // ---- ingest (closed loop) + queries (open loop) ---------------------
    std::atomic<std::size_t> next_session{0};
    std::atomic<bool> ingest_done{false};
    std::atomic<std::uint64_t> failed_sends{0};
    std::mutex mu;
    double last_bye = 0.0, queue_frames_max = 0.0, send_total = 0.0;
    auto sender = [&] {
      for (std::size_t i = next_session++; i < n_sessions; i = next_session++) {
        const trace::Trace& t = inputs[i].trace;
        const double s0 = now_s();
        bool alive = false;
        {
          const auto span = tracer.span("collectd.send");
          collectd::CollectClient client;
          if (client.connect("uds:" + sock, 10.0).is_ok()) {
            client.send_hello(1000 + i, t.executable);
            client.send_heartbeat(inputs[i].heartbeat);
            client.send_meta(t);
            client.send_fn_events(t.fn_events.data(), t.fn_events.size());
            client.send_temp_samples(t.temp_samples.data(), t.temp_samples.size());
            client.send_bye(t.fn_events.size(), t.temp_samples.size());
            alive = client.alive();
            client.close();
          }
        }
        const double s1 = now_s();
        if (!alive) failed_sends.fetch_add(1);
        double frames = 0.0;
        if (traced) {
          // Counters at the session boundary: the collector's own view.
          const auto m = collectd::http_get(endpoint, "/metrics?format=json", kHttpTimeoutS);
          const std::string body = m.is_ok() ? m.value() : "";
          frames = json_number(body, "collect_queue_frames");
          tracer.counter("collectd.queue_frames", frames);
          tracer.counter("collectd.events_folded", json_number(body, "collect_events"));
        }
        const std::lock_guard<std::mutex> lock(mu);
        last_bye = std::max(last_bye, s1);
        send_total += s1 - s0;
        queue_frames_max = std::max(queue_frames_max, frames);
      }
    };
    auto poller = [&] {
      const double period = 1.0 / kQueryHz;
      const double start = now_s();
      for (std::uint64_t k = 0; !ingest_done.load(); ++k) {
        const double due = start + static_cast<double>(k) * period;
        const double now = now_s();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
          if (ingest_done.load()) break;
        }
        Query q;
        q.profile = k % 2 == 0;
        const double sent = now_s();
        // What each reader runs: tempest-diff --poll fetches /profile and
        // parses it (fetch_fleet_profile), tempest-top --connect fetches /top.
        std::optional<tempest::Result<std::string>> r;
        bool parsed = true;
        {
          const auto span =
              tracer.span(q.profile ? "collectd.query_profile" : "collectd.query_top");
          r.emplace(collectd::http_get(endpoint, q.profile ? "/profile" : "/top",
                                       kHttpTimeoutS));
          if (q.profile && r->is_ok()) {
            parsed = collectd::parse_fleet_profile(r->value()).is_ok();
          }
        }
        const double done = now_s();
        q.late_ms = (sent - due) * 1e3;
        q.latency_ms = (done - due) * 1e3;
        q.ok = r->is_ok() && parsed && JsonCheck::valid(r->value());
        const std::lock_guard<std::mutex> lock(mu);
        queries.push_back(q);
      }
    };

    const double t0 = now_s();
    std::vector<std::thread> threads;
    threads.emplace_back(poller);
    for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(sender);
    for (std::size_t c = 1; c < threads.size(); ++c) threads[c].join();
    // Folded, not just sent: shards may still drain queued frames.
    double folded = 0.0, aborted = 0.0;
    const double fold_deadline = now_s() + 60.0;
    while (now_s() < fold_deadline) {
      const auto r = collectd::http_get(endpoint, "/runstats", kHttpTimeoutS);
      const std::string body = r.is_ok() ? r.value() : "";
      folded = json_number(body, "sessions_folded");
      aborted = json_number(body, "sessions_aborted");
      if (folded + aborted >= static_cast<double>(n_sessions)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    const double t1 = now_s();
    ingest_done.store(true);
    threads[0].join();
    sessions_sent += n_sessions;
    send_failed += failed_sends.load();

    ingest_s.push_back(t1 - t0);
    events_per_s.push_back(static_cast<double>(total_events) / (t1 - t0));
    fold_lag_s.push_back(t1 - last_bye);
    send_s.push_back(send_total / static_cast<double>(n_sessions));
    queue_max.push_back(queue_frames_max);

    // ---- checks and counters (untimed) --------------------------------
    check(folded == static_cast<double>(n_sessions) && aborted == 0.0,
          "folded = S and aborted = 0 (folded " + std::to_string(folded) +
              ", aborted " + std::to_string(aborted) + ")");
    folded_total += static_cast<std::uint64_t>(folded);
    aborted_total += static_cast<std::uint64_t>(aborted);
    const auto profile = collectd::fetch_fleet_profile(endpoint, 1'000'000, kHttpTimeoutS);
    std::map<std::string, std::uint64_t> fleet;
    if (profile.is_ok()) {
      for (const collectd::FleetProfileEntry& e : profile.value().functions) {
        fleet[e.name] = e.calls;
      }
    }
    fleet_functions = static_cast<double>(fleet.size());
    check(profile.is_ok() && fleet == truth, "fleet calls match ground truth");
    const auto prom_reply =
        collectd::http_get(endpoint, "/metrics?format=prometheus", kHttpTimeoutS);
    check(prom_reply.is_ok(), "/metrics answers 200");
    const std::string prom = prom_reply.is_ok() ? prom_reply.value() : "";
    fold_us_p50.push_back(prometheus_p50(prom, "tempest_collect_fold_us"));
    fold_s.push_back(prometheus_value(prom, "tempest_collect_fold_us_sum") / 1e6);
    samples_folded.push_back(prometheus_value(prom, "tempest_collect_samples"));
    events_folded.push_back(prometheus_value(prom, "tempest_collect_events"));
    if (traced) {
      tracer.counter("collectd.sessions_folded",
                     prometheus_value(prom, "tempest_collect_sessions_folded"));
    }
    rss_mib.push_back(collector->stop());
    check(collector->clean_exit(), "collector exits 0 on SIGTERM");
  }
  std::error_code ec;
  std::filesystem::remove(sock, ec);
  std::filesystem::remove(port_file, ec);

  std::vector<double> latency, late, profile_ms, top_ms;
  std::uint64_t queries_failed = 0;
  for (const Query& q : queries) {
    latency.push_back(q.latency_ms);
    late.push_back(q.late_ms);
    (q.profile ? profile_ms : top_ms).push_back(q.latency_ms);
    if (!q.ok) ++queries_failed;
  }
  JsonLine sizes;
  sizes.num("sessions_per_round", static_cast<double>(n_sessions));
  sizes.num("events_per_round", static_cast<double>(total_events));
  sizes.num("session_events_min", kMinEvents);
  sizes.num("session_events_max", kMaxEvents);
  sizes.num("pool_functions", kPoolFunctions);
  sizes.num("connections", static_cast<double>(connections));
  sizes.num("shards", shards);
  sizes.num("query_hz", kQueryHz);
  sizes.num("rounds", static_cast<double>(ingest_s.size()));
  JsonLine out;
  out.raw("sizes", sizes.done());
  out.num("sessions_sent", static_cast<double>(sessions_sent));
  out.num("sessions_failed", static_cast<double>(send_failed));
  out.num("sessions_folded", static_cast<double>(folded_total));
  out.num("sessions_aborted", static_cast<double>(aborted_total));
  out.num("queries", static_cast<double>(queries.size()));
  out.num("queries_failed", static_cast<double>(queries_failed));
  out.num("checks", static_cast<double>(checks));
  out.num("checks_failed", static_cast<double>(checks_failed));
  out.raw("setup_s", json_array(setup_s));
  out.raw("ingest_s", json_array(ingest_s));
  out.raw("events_per_s", json_array(events_per_s));
  out.raw("fold_lag_s", json_array(fold_lag_s));
  out.raw("send_s", json_array(send_s));
  out.raw("peak_rss_mib", json_array(rss_mib));
  out.raw("fold_us_p50", json_array(fold_us_p50));
  out.raw("fold_s", json_array(fold_s));
  out.raw("samples_folded", json_array(samples_folded));
  out.num("fleet_functions", fleet_functions);
  out.raw("events_folded", json_array(events_folded));
  out.raw("queue_frames_max", json_array(queue_max));
  out.raw("query_ms", json_array(latency));
  out.raw("query_profile_ms", json_array(profile_ms));
  out.raw("query_top_ms", json_array(top_ms));
  out.raw("late_ms", json_array(late));
  out.raw("failures", json_strings(failures));
  if (traced) {
    out.raw("spans", json_span_totals(tracer));
    const std::string spans_path = args.str("spans");
    if (!spans_path.empty()) write_file(spans_path, tracer.chrome_events_json());
  }
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace perfbench
