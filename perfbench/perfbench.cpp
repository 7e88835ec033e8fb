// perfbench — the repository benchmark program (see README.md beside it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// Every input comes from --seed: the graph is graph_family(family, n, seed)
// and the algorithm seeds are mixed from it. --trace 0 times the library's
// own pipeline call (untraced) for S seconds and reports the end-to-end
// metrics; --trace 1 replays the pipeline from public calls with a timer
// around each one and reports the per-layer metrics. Both check every
// output they produce. No span is placed inside the library: every timer
// here wraps a call the benchmark itself makes.
//
// Output: a host-fingerprint JSON line, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
// Exit codes: 0 result printed; 2 usage error; 3 refused (non-Release
// build, or the traced replica diverged from the library); 1 other errors.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/durable.h"
#include "graph/active_set.h"
#include "mpcg.h"
#include "util/fnv.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace mpcg;
using Clock = std::chrono::steady_clock;

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------- workloads

enum class Pipeline { kMatching, kMis, kMisCclique };

/// Which engine surface the traced run replays in isolation.
enum class Replay { kScattered, kGather, kIntegrity, kLenzen };

struct Workload {
  std::string_view name;
  Pipeline pipeline;
  const char* family;
  std::size_t n;
  /// Execution-backend width of the timed solves.
  std::size_t threads;
  /// mis_mpc words per machine as a multiple of n; 0 = library default.
  std::size_t mis_words_per_n;
  /// Seeded fault storm + integrity + durable checkpoints.
  bool recovery;
  Replay replay;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"matching_gnp", Pipeline::kMatching, "gnp_dense", std::size_t{1} << 17,
     4, 0, false, Replay::kScattered},
    {"mis_powerlaw", Pipeline::kMis, "power_law", std::size_t{1} << 20, 1, 2,
     false, Replay::kGather},
    {"mis_cc_powerlaw", Pipeline::kMisCclique, "power_law",
     std::size_t{1} << 19, 2, 0, false, Replay::kLenzen},
    {"matching_recovery", Pipeline::kMatching, "rmat", std::size_t{1} << 15,
     2, 0, true, Replay::kIntegrity},
};

constexpr double kEps = 0.1;
/// Fault events per storm (matching_recovery).
constexpr std::size_t kStormEvents = 12;
/// Fault kinds a storm must cover (FaultKind has seven).
constexpr std::size_t kFaultKinds = 7;
/// graph_family calls per run: at least kSetupRuns and until kSetupSeconds
/// are spent, so small graphs get more samples. setup_s is their median.
constexpr std::size_t kSetupRuns = 3;
constexpr double kSetupSeconds = 1.0;
/// Solves per untraced run even when --seconds is already spent, so
/// solve_s is always a median of several samples.
constexpr std::size_t kMinSolves = 3;
/// Thread counts of the determinism and speedup checks.
constexpr std::size_t kThreadCounts[] = {1, 2, 4};
/// Upper bound on the words one exchange replay stages.
constexpr std::size_t kReplayWordCap = std::size_t{1} << 23;
/// Traced pipeline passes per traced run, each paired with an untraced
/// library call; the tracing overhead is the difference of their medians.
constexpr std::size_t kTracePasses = 2;
/// Repetitions of each engine-surface replay; the median is reported.
constexpr std::size_t kReplayReps = 5;
/// DurableRing save/load calls timed by the traced recovery run.
constexpr std::size_t kDurableCalls = 16;

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  bool integral;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit, false});
  }
  void count(std::string name, std::size_t value, const char* unit) {
    metrics_.push_back(
        {std::move(name), static_cast<double>(value), unit, true});
  }
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                  m.name.c_str());
      if (m.integral) {
        std::printf("%.0f", m.value);
      } else {
        std::printf("%.17g", m.value);
      }
      std::printf(", \"unit\": \"%s\"}", m.unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------------ one solve

/// What one pipeline call produced, reduced to what the benchmark checks
/// and reports. The raw library result is kept for the traced run.
struct Solve {
  std::size_t solution_size = 0;
  std::size_t cover_size = 0;
  std::size_t mpc_rounds = 0;
  std::size_t comm_words = 0;
  std::size_t peak_machine_words = 0;
  /// FNV-1a over the outputs and the logical model counters — everything
  /// the determinism contract pins, nothing it leaves free (fault and
  /// durability overhead counters are excluded).
  std::uint64_t digest = 0;
  bool valid = false;
  double seconds = 0.0;
  std::optional<IntegralMatchingResult> matching;
  std::optional<MisMpcResult> mis;
  std::optional<MisCcliqueResult> mis_cc;
};

struct Digest {
  std::uint64_t h = Fnv::kOffset;
  void add(std::uint64_t w) { h = Fnv::fold(h, w); }
  template <typename T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T x : v) add(static_cast<std::uint64_t>(x));
  }
  void add_logical(const mpc::Metrics& m) {
    add(m.rounds);
    add(m.max_sent_words);
    add(m.max_received_words);
    add(m.peak_storage_words);
    add(m.violations);
    add(m.total_words);
  }
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, std::string scratch)
      : w_(w),
        seed_(seed),
        algo_seed_(mix64(seed, 0x9e7c, 0x5eed)),
        scratch_(std::move(scratch)) {}

  /// Builds the graph repeatedly (keeping the last) and returns the median
  /// build time.
  double setup() {
    std::vector<double> times;
    double spent = 0.0;
    while (times.size() < kSetupRuns || spent < kSetupSeconds) {
      graph_ = Graph();
      times.push_back(
          timed([&] { graph_ = graph_family(w_.family, w_.n, seed_); }));
      spent += times.back();
    }
    return median(times);
  }

  const Graph& graph() const { return graph_; }
  const fault::FaultPlan* plan() const {
    return plan_ ? &*plan_ : nullptr;
  }

  /// matching_recovery: the storm is the first seeded random_storm draw
  /// that covers all seven fault kinds, over rounds of the clean first
  /// simulation call. Returns the clean solve, which every stormy solve
  /// must reproduce bit for bit.
  Solve arm_recovery() {
    Solve clean = solve(w_.threads, /*faulty=*/false, "");
    const std::size_t max_round = clean.matching->first_run_rounds;
    for (std::uint64_t attempt = 0;; ++attempt) {
      auto storm = fault::FaultPlan::random_storm(
          mix64(seed_, 0x570a, attempt), /*num_machines=*/2, max_round,
          kStormEvents);
      bool seen[kFaultKinds] = {};
      for (const auto& e : storm.events()) {
        seen[static_cast<std::size_t>(e.kind)] = true;
      }
      if (std::all_of(std::begin(seen), std::end(seen),
                      [](bool b) { return b; })) {
        plan_ = std::move(storm);
        break;
      }
      if (attempt == 1000) {
        throw std::runtime_error("no storm covers all fault kinds");
      }
    }
    return clean;
  }

  IntegralMatchingOptions matching_options(std::size_t threads, bool faulty,
                                           const std::string& dir) const {
    IntegralMatchingOptions o;
    o.eps = kEps;
    o.seed = algo_seed_;
    o.simulation.threads = threads;
    if (faulty) {
      o.simulation.fault_plan = plan();
      o.simulation.integrity = true;
      o.durable.dir = dir;
    }
    return o;
  }

  MisMpcOptions mis_options(std::size_t threads) const {
    MisMpcOptions o;
    o.seed = algo_seed_;
    o.words_per_machine = w_.mis_words_per_n * graph_.num_vertices();
    o.threads = threads;
    return o;
  }

  MisCcliqueOptions mis_cc_options(std::size_t threads) const {
    MisCcliqueOptions o;
    o.seed = algo_seed_;
    o.threads = threads;
    return o;
  }

  /// One untraced library call of the workload's pipeline (timed), then
  /// its output checks (untimed). `faulty` arms the recovery configuration
  /// with durable files under `dir`.
  Solve solve(std::size_t threads, bool faulty, const std::string& dir) {
    Solve s;
    Digest d;
    const Graph& g = graph_;
    switch (w_.pipeline) {
      case Pipeline::kMatching: {
        const auto opt = matching_options(threads, faulty, dir);
        IntegralMatchingResult r;
        s.seconds = timed([&] { r = integral_matching(g, opt); });
        s.valid = is_matching(g, r.matching) && is_vertex_cover(g, r.cover);
        s.solution_size = r.matching.size();
        s.cover_size = r.cover.size();
        s.mpc_rounds = r.total_rounds;
        s.comm_words = r.first_run_metrics.total_words;
        s.peak_machine_words = r.first_run_metrics.peak_storage_words;
        d.add_all(r.matching);
        d.add_all(r.cover);
        d.add(r.a_path_size);
        d.add(r.small_path_size);
        d.add(r.iterations);
        d.add(r.total_rounds);
        d.add(r.first_run_rounds);
        d.add_logical(r.first_run_metrics);
        s.matching = std::move(r);
        break;
      }
      case Pipeline::kMis: {
        const auto opt = mis_options(threads);
        MisMpcResult r;
        s.seconds = timed([&] { r = mis_mpc(g, opt); });
        s.valid = is_maximal_independent_set(g, r.mis);
        s.solution_size = r.mis.size();
        s.cover_size = g.num_vertices() - r.mis.size();
        s.mpc_rounds = r.metrics.rounds;
        s.comm_words = r.metrics.total_words;
        s.peak_machine_words = r.metrics.peak_storage_words;
        d.add_all(r.mis);
        d.add(r.rank_phases);
        d.add(r.sparsified_iterations);
        d.add(r.final_gather_edges);
        d.add_all(r.window_edges_per_phase);
        d.add_logical(r.metrics);
        s.mis = std::move(r);
        break;
      }
      case Pipeline::kMisCclique: {
        const auto opt = mis_cc_options(threads);
        MisCcliqueResult r;
        s.seconds = timed([&] { r = mis_cclique(g, opt); });
        s.valid = is_maximal_independent_set(g, r.mis);
        s.solution_size = r.mis.size();
        s.cover_size = g.num_vertices() - r.mis.size();
        s.mpc_rounds = r.metrics.rounds;
        s.comm_words = r.metrics.total_words;
        s.peak_machine_words =
            std::max(r.metrics.max_player_sent, r.metrics.max_player_received);
        d.add_all(r.mis);
        d.add(r.rank_phases);
        d.add(r.sparsified_iterations);
        d.add(r.final_gather_edges);
        d.add_all(r.window_edges_per_phase);
        d.add(r.metrics.rounds);
        d.add(r.metrics.max_player_sent);
        d.add(r.metrics.max_player_received);
        d.add(r.metrics.violations);
        d.add(r.metrics.total_words);
        d.add(r.metrics.lenzen_batches);
        s.mis_cc = std::move(r);
        break;
      }
    }
    d.add(s.mpc_rounds);
    d.add(s.comm_words);
    d.add(s.peak_machine_words);
    s.digest = d.h;
    return s;
  }

  std::string scratch_dir(const char* what) const {
    return scratch_ + "/" + what;
  }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  std::uint64_t algo_seed_;
  std::string scratch_;
  Graph graph_;
  std::optional<fault::FaultPlan> plan_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------- untraced run

int run_untraced(const Workload& w, Bench& bench, double seconds) {
  const double setup_s = bench.setup();

  std::optional<Solve> clean;
  if (w.recovery) clean = bench.arm_recovery();
  const std::string dir = bench.scratch_dir("durable");

  std::vector<double> times;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<Solve> first;
  double spent = 0.0;
  while (spent < seconds || attempted < kMinSolves) {
    Solve s = bench.solve(w.threads, w.recovery, dir);
    spent += s.seconds;
    times.push_back(s.seconds);
    std::fprintf(stderr, "perfbench: solve %zu took %.4f s\n", attempted,
                 s.seconds);
    ++attempted;
    bool ok = s.valid;
    if (clean && s.digest != clean->digest) ok = false;
    // Counts must repeat exactly from solve to solve.
    if (first && s.digest != first->digest) ok = false;
    if (!ok) ++failed;
    if (!first) {
      s.matching.reset();
      s.mis.reset();
      s.mis_cc.reset();
      first = std::move(s);
    }
  }

  Report r;
  r.add("solve_s", median(times), "s");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.count("mpc_rounds", first->mpc_rounds, "count");
  r.count("comm_words", first->comm_words, "words");
  r.count("peak_machine_words", first->peak_machine_words, "words");
  r.count("solution_size", first->solution_size, "count");
  r.count("cover_size", first->cover_size, "vertices");
  r.add("passed_frac",
        static_cast<double>(attempted - failed) / static_cast<double>(attempted),
        "ratio");
  r.print(failed == 0, attempted, failed);
  return 0;
}

// --------------------------------------------------------- traced run

/// integral_matching replayed stage by stage from public calls, with a
/// timer around each call. Mirrors src/core/integral_matching.cpp for a
/// fresh (non-resumed) run; the outer durable cursor is skipped because it
/// never changes an output. The caller compares the result with the
/// library's own.
struct MatchingReplica {
  std::vector<EdgeId> matching;
  std::vector<VertexId> cover;
  std::size_t total_rounds = 0;

  double total_s = 0.0;
  double lmsv_s = 0.0;
  std::size_t lmsv_rounds = 0;
  double induced_s = 0.0;
  std::size_t induced_calls = 0;
  std::size_t induced_edges = 0;
  double mpc_s = 0.0;
  std::size_t mpc_calls = 0;
  std::size_t phases = 0;
  std::size_t frontier_edges = 0;
  double max_local_edges_over_n = 0.0;
  double rounding_s = 0.0;
  std::size_t rounding_trials = 0;
  std::size_t heavy_candidates = 0;
  std::size_t rounded_edges = 0;
  std::size_t outer_iterations = 0;
  /// Engine counters summed (rounds, words) or maxed (peaks) over every
  /// matching_mpc call.
  mpc::Metrics engine;
  /// First simulation call's cluster shape (for the exchange replay).
  std::size_t first_machines = 0;
  std::size_t first_words_per_machine = 0;
  mpc::Metrics first_metrics;
};

MatchingReplica replay_integral_matching(const Graph& g,
                                         const IntegralMatchingOptions& o) {
  MatchingReplica rep;
  const auto t_start = Clock::now();
  const std::size_t n = g.num_vertices();
  const double raw =
      std::ceil(std::log(1.0 / o.eps) / std::log(150.0 / 149.0));
  const std::size_t max_iterations =
      o.max_iterations != 0 ? o.max_iterations
                            : static_cast<std::size_t>(std::min(raw, 60.0));
  const std::size_t lmsv_memory =
      o.small_path_memory != 0 ? o.small_path_memory
                               : 8 * std::max<std::size_t>(n, 64);

  LmsvResult small;
  rep.lmsv_s = timed([&] {
    small = lmsv_maximal_matching(g, lmsv_memory, mix64(o.seed, 0x5a11, 3));
  });
  rep.lmsv_rounds = small.rounds;
  rep.total_rounds += small.rounds;

  std::vector<EdgeId> a_matching;
  ActiveSet remaining_set(n);
  std::vector<VertexId> remaining;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    const auto actives = remaining_set.actives();
    remaining.assign(actives.begin(), actives.end());
    InducedSubgraph sub;
    rep.induced_s += timed([&] { sub = induced_subgraph(g, remaining); });
    ++rep.induced_calls;
    rep.induced_edges += sub.graph.num_edges();
    if (sub.graph.num_edges() == 0) break;

    MatchingMpcOptions sim = o.simulation;
    sim.eps = o.eps;
    sim.seed = mix64(o.seed, 0xa1, iter);
    sim.threshold_seed = mix64(o.seed, 0xa2, iter);
    sim.collect_support = true;
    if (o.durable.enabled()) {
      sim.durable = o.durable;
      sim.durable.dir = o.durable.dir + "/inner";
      sim.durable.resume = false;
    }
    MatchingMpcResult frac;
    rep.mpc_s += timed([&] { frac = matching_mpc(sub.graph, sim); });
    ++rep.mpc_calls;
    rep.total_rounds += frac.metrics.rounds;
    rep.phases += frac.phases;
    for (const std::size_t e : frac.frontier_edges_per_phase) {
      rep.frontier_edges += e;
    }
    for (const std::size_t e : frac.max_local_edges_per_phase) {
      rep.max_local_edges_over_n =
          std::max(rep.max_local_edges_over_n,
                   ratio(static_cast<double>(e),
                         static_cast<double>(sub.graph.num_vertices())));
    }
    const mpc::Metrics& m = frac.metrics;
    rep.engine.rounds += m.rounds;
    rep.engine.total_words += m.total_words;
    rep.engine.max_sent_words =
        std::max(rep.engine.max_sent_words, m.max_sent_words);
    rep.engine.max_received_words =
        std::max(rep.engine.max_received_words, m.max_received_words);
    rep.engine.peak_storage_words =
        std::max(rep.engine.peak_storage_words, m.peak_storage_words);
    if (iter == 0) {
      for (const VertexId lv : frac.cover) {
        rep.cover.push_back(sub.to_parent_vertex[lv]);
      }
      rep.first_machines = frac.machines_per_phase.empty()
                               ? 1
                               : frac.machines_per_phase.front();
      rep.first_words_per_machine =
          sim.words_per_machine != 0
              ? sim.words_per_machine
              : 8 * std::max<std::size_t>(sub.graph.num_vertices(), 1);
      rep.first_metrics = m;
    }

    std::vector<EdgeId> rounded;
    rep.rounding_s += timed([&] {
      const auto candidates = heavy_vertices(
          sub.graph, frac.x, 1.0 - 5.0 * o.eps, frac.support);
      rep.heavy_candidates += candidates.size();
      for (std::size_t retry = 0;
           !candidates.empty() && retry < o.rounding_retries; ++retry) {
        ++rep.rounding_trials;
        rounded = round_fractional_matching(
            sub.graph, frac.x, candidates,
            mix64(o.seed, 0xb000 + retry, iter));
        if (!rounded.empty()) break;
      }
    });
    rep.rounded_edges += rounded.size();
    ++rep.outer_iterations;
    if (rounded.empty()) break;

    for (const EdgeId le : rounded) {
      const Edge ed = sub.graph.edge(le);
      a_matching.push_back(sub.to_parent_edge[le]);
      remaining_set.deactivate(sub.to_parent_vertex[ed.u]);
      remaining_set.deactivate(sub.to_parent_vertex[ed.v]);
    }
  }
  rep.matching = a_matching.size() >= small.matching.size()
                     ? std::move(a_matching)
                     : small.matching;
  rep.total_s = std::chrono::duration<double>(Clock::now() - t_start).count();
  return rep;
}

/// Times Engine::exchange() over `rounds` rounds of synthetic traffic
/// totalling `words` words on `machines` machines: scattered single-word
/// appends to pseudo-random destinations (the distribute/announce shape),
/// or one bulk run per sender to machine 0 (the leader-gather shape).
/// Staging through Engine::outbox is untimed. Returns seconds; `staged`
/// receives the words actually replayed.
double replay_exchange(Replay kind, std::size_t machines, std::size_t rounds,
                       std::size_t words, std::size_t words_per_machine,
                       std::size_t threads, std::uint64_t seed,
                       std::size_t& staged) {
  machines = std::max<std::size_t>(machines, 2);
  rounds = std::max<std::size_t>(rounds, 1);
  words = std::min(words, kReplayWordCap);
  const std::size_t per_sender =
      std::max<std::size_t>(words / (rounds * machines), 1);
  mpc::Config cfg{machines, words_per_machine, /*strict=*/false};
  cfg.threads = threads;
  cfg.integrity = kind == Replay::kIntegrity;
  mpc::Engine engine(cfg);
  std::vector<mpc::Word> run(per_sender);
  double total = 0.0;
  staged = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t from = 0; from < machines; ++from) {
      mpc::Outbox out = engine.outbox(from);
      if (kind == Replay::kGather) {
        for (std::size_t i = 0; i < per_sender; ++i) {
          run[i] = mix64(seed, r * machines + from, i);
        }
        out.append_run(0, run);
      } else {
        for (std::size_t i = 0; i < per_sender; ++i) {
          const std::uint64_t word = mix64(seed, r * machines + from, i);
          out.append(word % machines, word);
        }
      }
      staged += per_sender;
    }
    total += timed([&] { engine.exchange(); });
  }
  return total;
}

/// Times cclique::Engine::lenzen_route_view (the routing call mis_cclique
/// makes; lenzen_route wraps it) on one route per gather of the run: each
/// carries that gather's edge count in words to the leader, in short runs
/// from pseudo-random players. Staging is untimed.
double replay_lenzen(std::size_t players, const MisCcliqueResult& res,
                     std::size_t threads, std::uint64_t seed) {
  std::vector<std::size_t> gathers = res.window_edges_per_phase;
  gathers.push_back(res.final_gather_edges);
  cclique::Engine engine(players, /*strict=*/true, false, false, 0, threads);
  cclique::RouteStream stream;
  double total = 0.0;
  for (std::size_t p = 0; p < gathers.size(); ++p) {
    stream.clear();
    std::size_t left = gathers[p];
    for (std::uint64_t i = 0; left > 0; ++i) {
      const std::uint64_t h = mix64(seed, p, i);
      const auto from = static_cast<cclique::PlayerId>(h % players);
      const std::size_t len = std::min<std::size_t>(left, 1 + (h >> 40) % 8);
      for (std::size_t k = 0; k < len; ++k) stream.append(from, 0, h + k);
      left -= len;
    }
    total += timed([&] { (void)engine.lenzen_route_view(stream); });
  }
  return total;
}

int run_traced(const Workload& w, Bench& bench) {
  Report r;
  r.add("gen.graph_family_s", bench.setup(), "s");
  const Graph& g = bench.graph();
  const std::size_t n = g.num_vertices();

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto check = [&](const Solve& s) {
    ++attempted;
    if (!s.valid) ++failed;
  };

  // The first solve in a process runs on cold memory; it is checked but
  // not timed. For matching_recovery it is the clean reference solve.
  std::optional<Solve> clean;
  const std::string dir = bench.scratch_dir("durable");
  if (w.recovery) {
    clean = bench.arm_recovery();
    check(*clean);
  } else {
    check(bench.solve(w.threads, false, dir));
  }

  // Determinism and speedup: the library call at 1, 2 and 4 threads.
  std::vector<Solve> by_threads;
  bool identical = true;
  for (const std::size_t t : kThreadCounts) {
    by_threads.push_back(bench.solve(t, w.recovery, dir));
    check(by_threads.back());
    identical = identical &&
                by_threads.back().digest == by_threads.front().digest;
  }
  if (clean) identical = identical && clean->digest == by_threads[0].digest;
  const Solve* lib = nullptr;
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    if (kThreadCounts[i] == w.threads) lib = &by_threads[i];
  }
  r.add("backend.solve_t1_s", by_threads[0].seconds, "s");
  r.add("backend.solve_t2_s", by_threads[1].seconds, "s");
  r.add("backend.solve_t4_s", by_threads[2].seconds, "s");
  r.add("backend.speedup_t4",
        ratio(by_threads[0].seconds, by_threads[2].seconds), "x");

  // Graph layer, core layer, baselines: the traced pipeline, alternated
  // with untraced library calls at the same width. The per-layer times
  // come from the last traced pass; the overhead compares medians.
  const bool matching = w.pipeline == Pipeline::kMatching;
  std::vector<double> traced_times;
  std::vector<double> untraced_times{lib->seconds};
  MatchingReplica rep;
  for (std::size_t pass = 0; pass < kTracePasses; ++pass) {
    if (pass > 0) {
      const Solve s = bench.solve(w.threads, w.recovery, dir);
      check(s);
      identical = identical && s.digest == lib->digest;
      untraced_times.push_back(s.seconds);
    }
    if (!matching) {
      // The MIS drivers are single library calls: the span is the call.
      const Solve s = bench.solve(w.threads, false, dir);
      check(s);
      identical = identical && s.digest == lib->digest;
      traced_times.push_back(s.seconds);
      continue;
    }
    rep = replay_integral_matching(
        g, bench.matching_options(w.threads, w.recovery,
                                   bench.scratch_dir("replica")));
    traced_times.push_back(rep.total_s);
    const IntegralMatchingResult& libm = *lib->matching;
    if (rep.matching != libm.matching || rep.cover != libm.cover ||
        rep.total_rounds != libm.total_rounds) {
      std::fprintf(stderr,
                   "perfbench: the traced integral_matching replica diverged "
                   "from the library output; refusing to publish per-layer "
                   "numbers\n");
      return 3;
    }
  }
  r.count("backend.outputs_identical", identical ? 1 : 0, "bool");
  if (!identical) ++failed;

  r.add("graph.induced_subgraph_s", rep.induced_s, "s");
  r.count("graph.induced_subgraph_calls", rep.induced_calls, "count");
  r.count("graph.induced_edges_built", rep.induced_edges, "edges");
  r.add("core.matching_mpc_s", rep.mpc_s, "s");
  r.count("core.matching_mpc_calls", rep.mpc_calls, "count");
  r.count("core.matching_phases", rep.phases, "count");
  r.count("core.frontier_edges_scanned", rep.frontier_edges, "edges");
  r.add("core.max_local_edges_over_n", rep.max_local_edges_over_n, "ratio");
  r.add("core.rounding_s", rep.rounding_s, "s");
  r.count("core.rounding_trials", rep.rounding_trials, "count");
  r.count("core.rounding_heavy_candidates", rep.heavy_candidates,
          "vertices");
  r.count("core.rounding_edges", rep.rounded_edges, "edges");
  r.add("core.rounding_yield",
        ratio(static_cast<double>(rep.rounded_edges),
              static_cast<double>(rep.heavy_candidates)),
        "ratio");
  r.count("core.outer_iterations", rep.outer_iterations, "count");
  r.add("core.outer_other_s",
        matching ? rep.total_s - rep.lmsv_s - rep.induced_s - rep.mpc_s -
                       rep.rounding_s
                 : 0.0,
        "s");
  r.add("baselines.lmsv_s", rep.lmsv_s, "s");
  r.count("baselines.lmsv_rounds", rep.lmsv_rounds, "count");

  // MIS drivers.
  const MisMpcResult* mis = lib->mis ? &*lib->mis : nullptr;
  const MisCcliqueResult* mis_cc = lib->mis_cc ? &*lib->mis_cc : nullptr;
  std::size_t rank_phases = 0, final_gather = 0, sparsified = 0;
  std::size_t window_max = 0;
  if (mis != nullptr || mis_cc != nullptr) {
    const auto& windows = mis ? mis->window_edges_per_phase
                              : mis_cc->window_edges_per_phase;
    rank_phases = mis ? mis->rank_phases : mis_cc->rank_phases;
    final_gather = mis ? mis->final_gather_edges : mis_cc->final_gather_edges;
    sparsified =
        mis ? mis->sparsified_iterations : mis_cc->sparsified_iterations;
    for (const std::size_t e : windows) window_max = std::max(window_max, e);
  }
  r.add("core.mis_s", matching ? 0.0 : traced_times.back(), "s");
  r.count("core.mis_rank_phases", rank_phases, "count");
  r.add("core.mis_window_edges_max_over_n",
        ratio(static_cast<double>(window_max), static_cast<double>(n)),
        "ratio");
  r.count("core.mis_final_gather_edges", final_gather, "edges");
  r.count("core.mis_sparsified_iterations", sparsified, "count");

  // MPC engine counters: summed over every simulation call for matching.
  mpc::Metrics engine;
  if (matching) engine = rep.engine;
  if (mis != nullptr) engine = mis->metrics;
  r.count("mpc.rounds", engine.rounds, "count");
  r.count("mpc.total_words", engine.total_words, "words");
  r.count("mpc.max_sent_words", engine.max_sent_words, "words");
  r.count("mpc.max_received_words", engine.max_received_words, "words");
  r.count("mpc.peak_storage_words", engine.peak_storage_words, "words");

  // Engine surfaces replayed in isolation, shaped by this run's counters.
  double replay_s = 0.0, replay_t1 = 0.0, replay_t4 = 0.0;
  std::size_t replay_words = 0;
  const std::uint64_t replay_seed = mix64(w.n, 0x4e91a7, 0);
  for (const std::size_t t : {std::size_t{1}, w.threads, std::size_t{4}}) {
    std::vector<double> reps;
    for (std::size_t i = 0; i < kReplayReps; ++i) {
      if (w.replay == Replay::kLenzen) {
        reps.push_back(replay_lenzen(n, *mis_cc, t, replay_seed));
      } else {
        const mpc::Metrics& m = matching ? rep.first_metrics : mis->metrics;
        reps.push_back(replay_exchange(
            w.replay, matching ? rep.first_machines : mis->machines_used,
            m.rounds, m.total_words,
            matching ? rep.first_words_per_machine
                     : mis->words_per_machine_used,
            t, replay_seed, replay_words));
      }
    }
    const double s = median(reps);
    if (t == 1) replay_t1 = s;
    if (t == w.threads) replay_s = s;
    if (t == 4) replay_t4 = s;
  }
  const double ns_per_word =
      ratio(replay_s * 1e9, static_cast<double>(replay_words));
  const auto surface = [&](Replay kind, const char* name) {
    const bool on = w.replay == kind;
    r.add(std::string("mpc.exchange_") + name + "_s", on ? replay_s : 0.0,
          "s");
    r.add(std::string("mpc.exchange_") + name + "_ns_per_word",
          on ? ns_per_word : 0.0, "ns/word");
  };
  surface(Replay::kScattered, "scattered");
  surface(Replay::kGather, "gather");
  surface(Replay::kIntegrity, "integrity");
  r.add("backend.exchange_speedup_t4", ratio(replay_t1, replay_t4), "x");

  // Congested clique.
  r.count("cclique.rounds", mis_cc ? mis_cc->metrics.rounds : 0, "count");
  r.count("cclique.lenzen_batches",
          mis_cc ? mis_cc->metrics.lenzen_batches : 0, "count");
  r.count("cclique.total_words", mis_cc ? mis_cc->metrics.total_words : 0,
          "words");
  r.add("cclique.route_s", w.replay == Replay::kLenzen ? replay_s : 0.0, "s");

  // Fault layer. The library exposes fault totals only for the first
  // simulation call of integral_matching (first_run_metrics).
  mpc::Metrics f;
  if (lib->matching) f = lib->matching->first_run_metrics;
  if (mis != nullptr) f = mis->metrics;
  r.count("fault.faults_injected", f.faults_injected, "count");
  r.count("fault.rounds_replayed", f.rounds_replayed, "count");
  r.count("fault.words_resent", f.words_resent, "words");
  r.count("fault.checkpoint_bytes", f.checkpoint_bytes, "bytes");
  r.count("fault.corruptions_detected", f.corruptions_detected, "count");
  r.count("fault.words_retransmitted", f.words_retransmitted, "words");
  r.count("fault.disk_checkpoints_written", f.disk_checkpoints_written,
          "count");
  r.count("fault.disk_checkpoint_words", f.disk_checkpoint_words, "words");
  double recovery_overhead_s = 0.0;
  if (clean) {
    const Solve warm_clean = bench.solve(w.threads, false, dir);
    check(warm_clean);
    if (warm_clean.digest != clean->digest) ++failed;
    recovery_overhead_s = lib->seconds - warm_clean.seconds;
  }
  r.add("fault.recovery_overhead_s", recovery_overhead_s, "s");

  double save_s = 0.0, load_s = 0.0;
  if (w.recovery && f.disk_checkpoints_written > 0) {
    const std::size_t section_words =
        f.disk_checkpoint_words / f.disk_checkpoints_written;
    fault::DurableRing ring(bench.scratch_dir("ring"));
    ring.reset();
    std::vector<fault::DurableSection> sections;
    sections.push_back({"bench", std::vector<std::uint64_t>(section_words)});
    for (std::size_t i = 0; i < section_words; ++i) {
      sections[0].payload[i] = mix64(replay_seed, 0xd0, i);
    }
    const std::string scope = "perfbench:" + std::to_string(section_words);
    std::vector<double> saves, loads;
    for (std::size_t i = 0; i < kDurableCalls; ++i) {
      saves.push_back(timed([&] { ring.save(i, scope, sections); }));
    }
    for (std::size_t i = 0; i < kDurableCalls; ++i) {
      bool loaded = false;
      loads.push_back(timed([&] { loaded = ring.load(scope).has_value(); }));
      ++attempted;
      if (!loaded) ++failed;
    }
    save_s = median(saves);
    load_s = median(loads);
  }
  r.add("fault.durable_save_s", save_s, "s");
  r.add("fault.durable_load_s", load_s, "s");

  r.add("trace.traced_solve_s", median(traced_times), "s");
  r.add("trace.overhead_s", median(traced_times) - median(untraced_times),
        "s");

  r.print(failed == 0, attempted, failed);
  return 0;
}

// ------------------------------------------------------------------ main

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// JSON string contents: drops quotes, backslashes and control bytes.
std::string json_safe(std::string s) {
  std::erase_if(s, [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  return s;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage((flag + " wants a non-negative integer, got '" + text + "'").c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint64_t> seconds;
  std::optional<std::uint64_t> trace;
  std::string scratch;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      seconds = parse_uint(flag, value);
    } else if (flag == "--trace") {
      trace = parse_uint(flag, value);
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (cand.name == workload) w = &cand;
  }
  if (w == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  if (!seed || !seconds || !trace || scratch.empty()) {
    usage("--seed, --seconds, --trace and --scratch are required");
  }
  if (*seconds < 1 || *trace > 1) usage("--seconds >= 1, --trace 0 or 1");

  std::printf(
      "{\"host\": {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}, \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %llu}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_safe(cpu_model()).c_str(),
      json_safe(PERFBENCH_COMPILER).c_str(),
      json_safe(PERFBENCH_BUILD_TYPE).c_str(), workload.c_str(),
      static_cast<unsigned long long>(*seed),
      static_cast<unsigned long long>(*trace));
  std::fflush(stdout);
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a '%s' build "
                 "(Release only)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  try {
    std::filesystem::create_directories(scratch);
    Bench bench(*w, *seed, scratch);
    return *trace == 1
               ? run_traced(*w, bench)
               : run_untraced(*w, bench, static_cast<double>(*seconds));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
