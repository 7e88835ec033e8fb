// Theorem 1.1 — MIS in O(log log Delta) MPC rounds with O(n) words per
// machine (paper, Section 3).
//
// The algorithm simulates the sequential randomized greedy MIS: phase i
// gathers the residual subgraph induced by ranks [r_{i-1}, r_i),
// r_i = n / Delta^{alpha^i} with alpha = 3/4, onto the leader machine
// (O(n) edges w.h.p., Lemma 3.1 / Eq. (1)), the leader plays greedy
// through those ranks, and the cluster removes the new MIS members'
// neighborhoods. Once the residual maximum degree is small the algorithm
// switches to a sparsified local-MIS stage ([Gha17]-style dynamics, see
// DESIGN.md substitutions) and finally gathers the leftover O(n)-edge graph
// onto one machine.
//
// All communication is charged through mpc::Engine; the result carries the
// engine metrics plus the per-phase loads the memory experiments need.
//
// Determinism: the run is a pure function of (graph, options.seed); with
// `use_sparsified_stage = false` the output is *exactly* the sequential
// greedy MIS of the permutation drawn from the seed (tested), because rank
// phases plus the rank-ordered final gather are a lossless simulation.
#ifndef MPCG_CORE_MIS_MPC_H
#define MPCG_CORE_MIS_MPC_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "mpc/engine.h"

namespace mpcg::fault {
class FaultPlan;
}  // namespace mpcg::fault

namespace mpcg {

struct MisMpcOptions {
  std::uint64_t seed = 1;

  /// Rank-schedule exponent; the paper fixes alpha = 3/4.
  double alpha = 0.75;

  /// Switch to the sparsified stage once the residual max degree is at most
  /// this. Stands in for the paper's log^10 n, which exceeds n at
  /// laptop scale (see DESIGN.md).
  std::size_t degree_switch = 16;

  /// If false, rank phases (plus the rank-ordered final gather) run the
  /// greedy process to completion — the exact sequential-greedy simulation.
  bool use_sparsified_stage = true;

  /// Words of memory per machine, S. 0 = auto: 8n.
  std::size_t words_per_machine = 0;

  /// Number of machines, m. 0 = auto: enough that adjacency shards fit
  /// comfortably (about 4m_edges / S), at least 2.
  std::size_t num_machines = 0;

  /// Gather the whole residual graph onto the leader once its edge count is
  /// at most this. 0 = auto: S / 2.
  std::size_t gather_budget = 0;

  /// Throw CapacityError on budget violations (else count them).
  bool strict = true;

  /// Execution-backend width (see mpc::Config::threads): 1 runs every
  /// chunk on the caller; > 1 runs the engine flushes and the rank/
  /// sparsified/final gather staging loops over a shared-memory pool,
  /// bit-identical to 1.
  std::size_t threads = 1;

  /// Deterministic fault schedule consulted by the engine at round
  /// boundaries (borrowed; must outlive the run). nullptr = fault-free.
  const fault::FaultPlan* fault_plan = nullptr;
  /// With a plan attached: recover crashes/drops by rolling back to the
  /// round checkpoint and replaying (outputs stay bit-identical to the
  /// fault-free run); false lets crashed machines go dark instead.
  bool fault_recovery = true;
  /// Per-sender stream checksums + detect->retransmit for injected payload
  /// corruption (see mpc::Config::integrity).
  bool integrity = false;
  /// Per-round conservation-invariant audit (see mpc::Config::audit).
  bool audit = false;
  /// Proactive durable-store scrub every `scrub_interval` rounds (0 =
  /// never; requires integrity — see mpc::Config::scrub_interval).
  std::size_t scrub_interval = 0;
  /// On-disk checkpoint persistence and resume (see fault/durable.h and
  /// mpc::Engine::set_durability). Off while `durable.dir` is empty.
  fault::DurableOptions durable;
};

struct MisMpcResult {
  std::vector<VertexId> mis;

  /// Rank phases executed (the O(log log Delta) driver).
  std::size_t rank_phases = 0;
  /// Iterations of the sparsified local-MIS stage.
  std::size_t sparsified_iterations = 0;
  /// Residual edges gathered by the final single-machine step.
  std::size_t final_gather_edges = 0;

  /// Window-induced edge count gathered in each rank phase (Lemma 3.1 /
  /// Eq. (1) say O(n) each).
  std::vector<std::size_t> window_edges_per_phase;

  /// Engine metrics: rounds, peak per-round words, peak storage.
  mpc::Metrics metrics;

  /// Derived sizing actually used.
  std::size_t machines_used = 0;
  std::size_t words_per_machine_used = 0;
};

/// Runs the Theorem 1.1 algorithm.
[[nodiscard]] MisMpcResult mis_mpc(const Graph& g, const MisMpcOptions& options);

}  // namespace mpcg

#endif  // MPCG_CORE_MIS_MPC_H
