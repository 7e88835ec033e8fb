// E13 (Theorem 1.1, CONGESTED-CLIQUE part): MIS in O(log log Delta) clique
// rounds, with all routing through Lenzen's scheme within per-player
// bounds.
//
// Table rows: n sweep. Claims: `cc_rounds` stays flat-ish in n (log log),
// `lenzen_batches` per phase ~1 (window subgraphs fit one feasible batch),
// and the output matches the MPC simulation decision-for-decision
// (`matches_mpc` = 1).
#include "bench_util.h"
#include "core/mis_cclique.h"
#include "core/mis_mpc.h"

namespace {

using namespace mpcg;
using namespace mpcg::bench;

void E13_CcliqueMis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph g = gnp_with_degree(n, 16.0, 53);

  const std::size_t budget = 4 * n;
  MisCcliqueOptions copt;
  copt.seed = 53;
  copt.gather_budget = budget;
  MisMpcOptions mopt;
  mopt.seed = 53;
  mopt.gather_budget = budget;

  MisCcliqueResult cr;
  MisMpcResult mr;
  double wall_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    cr = mis_cclique(g, copt);
    mr = mis_mpc(g, mopt);
    wall_ms = timer.elapsed_ms();
    benchmark::DoNotOptimize(cr.mis.size());
  }
  emit_json_line("E13_CcliqueMis/" + std::to_string(n), n, g.num_edges(),
                 cr.metrics.rounds, wall_ms,
                 cr.metrics.max_player_received);
  state.counters["n"] = static_cast<double>(n);
  state.counters["cc_rounds"] = static_cast<double>(cr.metrics.rounds);
  state.counters["rank_phases"] = static_cast<double>(cr.rank_phases);
  state.counters["sparse_iters"] =
      static_cast<double>(cr.sparsified_iterations);
  state.counters["lenzen_batches"] =
      static_cast<double>(cr.metrics.lenzen_batches);
  state.counters["max_player_recv"] =
      static_cast<double>(cr.metrics.max_player_received);
  state.counters["loglog_delta"] =
      log2log2(static_cast<double>(g.max_degree()));
  state.counters["matches_mpc"] = cr.mis == mr.mis ? 1.0 : 0.0;
}
BENCHMARK(E13_CcliqueMis)
    ->Arg(1 << 9)
    ->Arg(1 << 10)
    ->Arg(1 << 11)
    ->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Segmented delivery view: routes the E13 gather shape (every player bursts
// toward the leader) through lenzen_route_view, which delivers per-receiver
// run segments over the routed stream — O(segments), not O(words).
void E13_RouteDeliveryView(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cclique::Engine engine(n);
  cclique::RouteStream stream;
  const std::size_t burst = 8;
  for (std::size_t p = 1; p < n; ++p) {
    for (std::size_t i = 0; i < burst; ++i) {
      stream.append(static_cast<cclique::PlayerId>(p), 0,
                    mix64(53, p * burst + i, 0xe13));
    }
  }

  std::size_t view_words = 0;
  std::size_t view_segments = 0;
  double view_ms = 0.0;
  for (auto _ : state) {
    const WallTimer timer;
    const auto& views = engine.lenzen_route_view(stream);
    view_ms = timer.elapsed_ms();
    view_words = views[0].size();
    view_segments = views[0].segments().size();
    benchmark::DoNotOptimize(view_words);
  }

  emit_json_line("E13_RouteDeliveryView/" + std::to_string(n), n,
                 stream.size(), engine.metrics().rounds, view_ms,
                 engine.metrics().max_player_received);
  state.counters["n"] = static_cast<double>(n);
  state.counters["routed_words"] = static_cast<double>(stream.size());
  state.counters["view_words"] = static_cast<double>(view_words);
  state.counters["view_segments"] = static_cast<double>(view_segments);
  state.counters["view_ms"] = view_ms;
}
BENCHMARK(E13_RouteDeliveryView)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
