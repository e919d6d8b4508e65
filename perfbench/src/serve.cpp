// serve_mix: archex_server in its own process on loopback, driven by this
// process as a closed-loop load generator holding `workers` connections.
// One round sends every request of the seeded traffic mix once (shuffled
// per round); a connection sends its next request only after the previous
// response arrived, and a round ends when every response is in.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "core/serialize.hpp"
#include "instances.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace core = archex::core;
using archex::support::TcpStream;

/// archex_server child process with its stdout on a pipe.
class ServerProcess {
 public:
  ServerProcess(const std::string& path, int threads) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const std::string t = std::to_string(threads);
    std::vector<std::string> args = {path, "--port", "0", "--threads", t};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, path.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_ = fdopen(fds[0], "r");
    if (rc != 0) throw std::runtime_error("cannot start " + path);
    pid_ = pid;
    const std::string first = line();
    unsigned port = 0;
    if (std::sscanf(first.c_str(), "archex_server listening on port %u", &port) != 1) {
      stop();
      throw std::runtime_error("unexpected server banner: " + first);
    }
    port_ = static_cast<std::uint16_t>(port);
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] long pid() const { return pid_; }

  /// SIGTERM, drain, wait; returns the server's final stats line.
  std::string stop() {
    if (pid_ < 0) return {};
    kill(pid_, SIGTERM);
    std::string last;
    for (std::string l = line(); !l.empty(); l = line()) last = l;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    fclose(out_);
    return last;
  }

 private:
  std::string line() {
    std::string s;
    for (int c = std::fgetc(out_); c != EOF && c != '\n'; c = std::fgetc(out_)) {
      s.push_back(static_cast<char>(c));
    }
    return s;
  }

  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
  std::uint16_t port_ = 0;
};

/// One request slot of the mix.
struct Slot {
  const Instance* inst;
  std::string line;  // serialized request
  bool heavy;        // the EPS g2 ILP-MR request at 5e-4
};

struct Sample {
  int slot = 0;
  double latency_s = 0.0;
  std::string response;
};

struct Round {
  bool traced = false;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  std::vector<Sample> samples;
};

}  // namespace

int run_serve(const RunOptions& options) {
  // ---- set-up: mix, reference, server start and connect -------------------
  Tracer tracer(options.trace);
  Checker checker(load_reference(options.reference_path));
  InstanceList instances;
  std::vector<Slot> mix;
  for (const EpsCase& c : eps_cases("serve_mix")) {
    instances.push_back(make_eps_instance(c));
    const bool heavy = c.generators == 2 && c.target == 5e-4;
    for (int k = 0; k < c.copies; ++k) {
      const std::string id = "r" + std::to_string(mix.size());
      mix.push_back({instances.back().get(),
                     core::to_json(instances.back()->request(id)), heavy});
    }
  }
  const int connections = options.workers;
  const int server_threads = std::max(1, options.workers / 2);
  ServerProcess server(options.server_path, server_threads);
  std::vector<TcpStream> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(TcpStream::connect("127.0.0.1", server.port()));
  }
  announce_ready();
  if (options.setup_only) return 0;

  // ---- measurement: whole rounds until `seconds` of them are timed -------
  archex::Rng order_rng(options.seed ^ 0x6d69785f6f726465ULL);
  std::vector<Round> rounds;
  double timed = 0.0;
  std::atomic<bool> io_error{false};
  while (rounds.size() < (options.trace ? 2u : 1u) || timed < options.seconds) {
    Round round;
    round.traced = options.trace && rounds.size() % 2 == 1;
    std::vector<int> order(mix.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    }
    round.samples.resize(order.size());
    std::atomic<std::size_t> cursor{0};
    Tracer off(false);
    Tracer& tr = round.traced ? tracer : off;
    const double cpu0 = proc_cpu_seconds(server.pid());
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope round_span(tr, "round");
      std::vector<std::thread> clients;
      for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
          try {
            for (std::size_t i = cursor++; i < order.size(); i = cursor++) {
              Sample& s = round.samples[i];
              s.slot = order[i];
              Tracer::Scope span(tr, "request", s.slot);
              const Clock::time_point sent = Clock::now();
              conns[static_cast<std::size_t>(c)].write_line(
                  mix[static_cast<std::size_t>(s.slot)].line);
              if (!conns[static_cast<std::size_t>(c)].read_line(s.response)) {
                throw std::runtime_error("server closed the connection");
              }
              s.latency_s = seconds_since(sent);
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "client: %s\n", e.what());
            io_error = true;
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }
    round.wall_s = seconds_since(t0);
    round.server_cpu_s = proc_cpu_seconds(server.pid()) - cpu0;
    timed += round.wall_s;
    rounds.push_back(std::move(round));
    if (io_error) break;
  }
  const double server_rss = peak_rss_mb(server.pid());
  const std::string stats_line = server.stop();

  // ---- checks (outside the timed rounds) ----------------------------------
  std::vector<std::string> problems;
  long attempted = 0;
  long failed = 0;
  long rejected = 0;
  std::vector<std::vector<core::SolveResponse>> parsed(rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (const Sample& s : rounds[r].samples) {
      ++attempted;
      core::SolveResponse resp;
      try {
        resp = core::response_from_json(s.response);
      } catch (const std::exception& e) {
        problems.push_back(std::string("unparseable response: ") + e.what());
        parsed[r].push_back(resp);
        continue;
      }
      parsed[r].push_back(resp);
      const Slot& slot = mix[static_cast<std::size_t>(s.slot)];
      if (resp.status == "rejected") ++rejected;
      if (resp.status != "optimal" && resp.status != "unfeasible") {
        ++failed;
        std::fprintf(stderr, "FAILED: %s: %s %s\n", slot.inst->name.c_str(),
                     resp.status.c_str(), resp.error.c_str());
        continue;
      }
      Answer a;
      a.unfeasible = resp.status == "unfeasible";
      if (!a.unfeasible) {
        a.selection.assign(
            static_cast<std::size_t>(slot.inst->tmpl.num_candidate_edges()), false);
        for (int e : resp.selected_edges) {
          if (e < 0 || e >= static_cast<int>(a.selection.size())) {
            problems.push_back(slot.inst->name + ": selected edge " +
                               std::to_string(e) + " out of range");
            continue;
          }
          a.selection[static_cast<std::size_t>(e)] = true;
        }
        a.cost = resp.cost;
        a.failure = resp.failure;
      }
      const std::string verdict = checker.check(*slot.inst, a);
      if (verdict.empty()) continue;
      if (known_fault(*slot.inst)) {
        ++failed;
      } else {
        problems.push_back(verdict);
      }
    }
  }
  long served = -1;
  long conns_seen = -1;
  long shed = -1;
  long malformed = -1;
  if (std::sscanf(stats_line.c_str(),
                  "archex_server: served %ld requests over %ld connections "
                  "(%ld shed, %ld malformed)",
                  &served, &conns_seen, &shed, &malformed) != 4) {
    problems.push_back("no final stats line from the server: " + stats_line);
  } else if (served != attempted || shed != rejected || malformed != 0) {
    problems.push_back("server stats disagree with the client: " + stats_line +
                       " vs " + std::to_string(attempted) + " sent, " +
                       std::to_string(rejected) + " rejected");
  }
  if (io_error) problems.push_back("client I/O failed");
  for (const std::string& p : problems) std::fprintf(stderr, "CHECK: %s\n", p.c_str());
  const bool correct = problems.empty();
  // Per-request-class latency, for the README's reference figures.
  std::map<std::string, std::vector<double>> by_class;
  for (const Round& r : rounds) {
    for (const Sample& s : r.samples) {
      by_class[mix[static_cast<std::size_t>(s.slot)].inst->name].push_back(1e3 * s.latency_s);
    }
  }
  for (const auto& [name, lat] : by_class) {
    std::fprintf(stderr, "class %-18s n=%-5zu p50 %8.2f ms  p99 %8.2f ms\n",
                 name.c_str(), lat.size(), percentile(lat, 0.5),
                 percentile(lat, 0.99));
  }

  Metrics metrics;
  if (!options.trace) {
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> lat;
    for (const Round& r : rounds) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.server_cpu_s);
      for (const Sample& s : r.samples) lat.push_back(1e3 * s.latency_s);
    }
    metrics.add("synth_s", median(wall), "s");
    // /proc CPU times tick at 10 ms, so the mean over all rounds keeps the
    // digits a per-round median would round away.
    double cpu_total = 0.0;
    for (double c : cpu) cpu_total += c;
    metrics.add("cpu_s", cpu_total / static_cast<double>(cpu.size()), "s");
    metrics.add("requests_per_s", static_cast<double>(mix.size()) / median(wall), "req/s");
    metrics.add("latency_p50_ms", percentile(lat, 0.50), "ms");
    metrics.add("latency_p99_ms", percentile(lat, 0.99), "ms");
    metrics.add("peak_rss_mb", server_rss, "MB");
  } else {
    // Server-side split from the response fields, wire time as the rest;
    // client-side spans around the serialize layer on the same lines.
    std::vector<double> queue_ms, service_ms, wire_ms, parse_us, write_us,
        bytes, traced_wall, untraced_wall, template_ms;
    std::map<std::string, std::vector<double>> per_round;
    long first_heavy_nodes = -1;
    std::vector<double> repeat_ratio;
    std::uint64_t prev_hits = 0;
    std::uint64_t prev_misses = 0;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      (rounds[r].traced ? traced_wall : untraced_wall).push_back(rounds[r].wall_s);
      std::map<std::string, double> L;
      std::uint64_t hits = prev_hits;
      std::uint64_t misses = prev_misses;
      for (std::size_t i = 0; i < rounds[r].samples.size(); ++i) {
        const Sample& s = rounds[r].samples[i];
        const core::SolveResponse& resp = parsed[r][i];
        const Slot& slot = mix[static_cast<std::size_t>(s.slot)];
        hits = std::max(hits, resp.cache_hits);
        misses = std::max(misses, resp.cache_misses);
        if (slot.heavy) {
          if (first_heavy_nodes < 0) {
            first_heavy_nodes = resp.solver_nodes;
          } else if (rounds[r].traced && first_heavy_nodes > 0) {
            repeat_ratio.push_back(static_cast<double>(resp.solver_nodes) /
                                   static_cast<double>(first_heavy_nodes));
          }
        }
        if (!rounds[r].traced) continue;
        queue_ms.push_back(1e3 * resp.queue_seconds);
        service_ms.push_back(1e3 * resp.solve_seconds);
        wire_ms.push_back(1e3 * (s.latency_s - resp.queue_seconds - resp.solve_seconds));
        L["ilp.nodes"] += static_cast<double>(resp.solver_nodes);
        L["server.nogood_prunings"] += static_cast<double>(resp.nogood_prunings);
        if (slot.inst->mode == Mode::kMr) L["core.mr_iterations"] += resp.iterations;
        {
          Tracer::Scope span(tracer, "serialize.request_from_json", s.slot);
          const Clock::time_point t0 = Clock::now();
          (void)core::request_from_json(slot.line);
          parse_us.push_back(1e6 * seconds_since(t0));
        }
        {
          Tracer::Scope span(tracer, "serialize.response_to_json", s.slot);
          const Clock::time_point t0 = Clock::now();
          (void)core::to_json(resp);
          write_us.push_back(1e6 * seconds_since(t0));
        }
        bytes.push_back(static_cast<double>(slot.line.size() + 1));
      }
      if (rounds[r].traced) {
        const double dh = static_cast<double>(hits - prev_hits);
        const double dm = static_cast<double>(misses - prev_misses);
        L["rel.cache_hits"] = dh;
        L["rel.cache_misses"] = dm;
        L["rel.cache_hit_rate"] = dh + dm > 0 ? dh / (dh + dm) : 0.0;
        for (const auto& [k, v] : L) per_round[k].push_back(v);
      }
      prev_hits = hits;
      prev_misses = misses;
    }
    // The service regenerates the EPS template for every EPS request.
    for (int rep = 0; rep < 20; ++rep) {
      for (int g : {1, 2}) {
        Tracer::Scope span(tracer, "eps.make_eps_template");
        const Clock::time_point t0 = Clock::now();
        archex::eps::EpsSpec spec;
        spec.num_generators = g;
        (void)archex::eps::make_eps_template(spec);
        template_ms.push_back(1e3 * seconds_since(t0));
      }
    }
    auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    // The solver and LP layers run inside the server process; only the
    // counts its responses carry are reported for them.
    std::map<std::string, double> values;
    for (const auto& [k, v] : per_round) values[k] = median(v);
    values["eps.template_ms"] = median(template_ms);
    values["server.queue_ms"] = mean(queue_ms);
    values["server.service_ms"] = mean(service_ms);
    values["server.wire_ms"] = mean(wire_ms);
    values["server.shed"] = static_cast<double>(shed);
    values["server.repeat_nodes_ratio"] = median(repeat_ratio);
    values["serialize.request_parse_us"] = median(parse_us);
    values["serialize.response_write_us"] = median(write_us);
    values["serialize.request_bytes"] = mean(bytes);
    values["trace.overhead_pct"] =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
    metrics = layer_metrics(values);
    tracer.write(options.out_dir + "/trace-" + options.workload + "-" +
                 std::to_string(options.seed) + ".json");
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
