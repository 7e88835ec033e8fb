// Theorem 1.1, CONGESTED-CLIQUE part — MIS in O(log log Delta) rounds.
//
// Same rank-phase schedule as the MPC algorithm (core/mis_mpc.h), realized
// with clique communication exactly as Section 3.2 describes:
//   * the leader (player 0, standing in for the minimum-id vertex) draws
//     the permutation, tells every player its rank, and players broadcast
//     their ranks so the order is common knowledge;
//   * per phase, players with ranks in the window ship their window-induced
//     residual edges to the leader with Lenzen's routing scheme (O(n)
//     messages, O(1) rounds), the leader plays greedy through the window,
//     members broadcast their membership, and killed players broadcast
//     their deaths;
//   * the low-degree tail runs the sparsified local-MIS dynamics with
//     per-iteration broadcasts, and the O(n)-edge leftover is routed to the
//     leader and finished there.
//
// Given identical options (seed, alpha, degree_switch, gather budget), this
// algorithm makes exactly the same decisions as mis_mpc — the two models
// run one process (core/mis_greedy.h) over different transports — which
// the test suite checks output-for-output.
#ifndef MPCG_CORE_MIS_CCLIQUE_H
#define MPCG_CORE_MIS_CCLIQUE_H

#include <cstdint>
#include <vector>

#include "cclique/engine.h"
#include "graph/graph.h"

namespace mpcg::fault {
class FaultPlan;
}  // namespace mpcg::fault

namespace mpcg {

struct MisCcliqueOptions {
  std::uint64_t seed = 1;
  double alpha = 0.75;
  std::size_t degree_switch = 16;
  bool use_sparsified_stage = true;
  /// Final-gather threshold in edges. 0 = auto: n (one Lenzen batch).
  std::size_t gather_budget = 0;
  bool strict = true;
  /// Execution-backend width (see cclique::Engine's threads parameter):
  /// 1 runs every chunk on the caller; > 1 builds the Lenzen route streams
  /// over a shared-memory pool, bit-identical to 1.
  std::size_t threads = 1;
  /// Deterministic fault schedule consulted by the engine at round
  /// boundaries (borrowed; must outlive the run). nullptr = fault-free.
  const fault::FaultPlan* fault_plan = nullptr;
  /// With a plan attached: recover crashes/drops by rolling back to the
  /// round checkpoint (driver state included — permutation, MIS members,
  /// residual aliveness) and replaying; false lets crashed players go dark.
  bool fault_recovery = true;
  /// Per-player stream checksums + detect->retransmit for injected payload
  /// corruption (see cclique::Engine).
  bool integrity = false;
  /// Per-round conservation-invariant audit (see cclique::Engine).
  bool audit = false;
  /// Proactive durable-store scrub every `scrub_interval` rounds (0 =
  /// never; requires integrity — see cclique::Engine).
  std::size_t scrub_interval = 0;
  /// On-disk checkpoint persistence and resume (see fault/durable.h and
  /// cclique::Engine::set_durability). Off while `durable.dir` is empty.
  fault::DurableOptions durable;
};

struct MisCcliqueResult {
  std::vector<VertexId> mis;
  std::size_t rank_phases = 0;
  std::size_t sparsified_iterations = 0;
  std::size_t final_gather_edges = 0;
  std::vector<std::size_t> window_edges_per_phase;
  cclique::Metrics metrics;
};

[[nodiscard]] MisCcliqueResult mis_cclique(const Graph& g,
                                           const MisCcliqueOptions& options);

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_CCLIQUE_H
