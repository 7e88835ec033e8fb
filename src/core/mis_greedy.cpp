#include "core/mis_greedy.h"

#include <string>

#include "fault/supervisor.h"

namespace mpcg {

MisGreedy::MisGreedy(const Graph& g, const char* driver,
                     const MisSchedule& schedule)
    : g_(g), driver_(driver), schedule_(schedule), n_(g.num_vertices()),
      residual_(g), csr_(n_), killed_(n_, 0), dying_(n_, 0) {}

fault::CheckpointRegistry& MisGreedy::make_registry(
    const fault::DurableOptions& durable) {
  fault::CheckpointRegistry& reg =
      durable.generations != 0 ? registry_.emplace(durable.generations)
                               : registry_.emplace();
  // The shared random order; rank_of_ is derived, recomputed on restore.
  // Empty until run() draws it — the first exchange (its announcement)
  // captures it already assigned.
  reg.register_state(
      "permutation",
      [this](std::vector<Word>& out) {
        out.push_back(perm_.size());
        for (const std::uint32_t r : perm_) out.push_back(r);
      },
      [this](fault::SectionReader& in) {
        const auto w = in.take_counted();
        perm_.assign(w.begin(), w.end());
        rank_of_ = perm_.empty() ? std::vector<std::uint32_t>{}
                                 : invert_permutation(perm_);
      });
  // MIS members committed so far (append-only).
  reg.register_state(
      "mis-members",
      [this](std::vector<Word>& out) {
        out.push_back(mis_.size());
        for (const VertexId v : mis_) out.push_back(v);
      },
      [this](fault::SectionReader& in) {
        const auto w = in.take_counted();
        mis_.assign(w.begin(), w.end());
      });
  // Residual aliveness, bit-packed. Aliveness only shrinks, so restore
  // reconciles by killing any vertex alive now but dead in the checkpoint
  // (the reverse cannot happen at a same-round restore).
  reg.register_state(
      "aliveness",
      [this](std::vector<Word>& out) {
        const std::size_t base = out.size();
        out.resize(base + (n_ + 63) / 64, 0);
        for (VertexId v = 0; v < n_; ++v) {
          if (residual_.alive(v)) out[base + v / 64] |= Word{1} << (v % 64);
        }
      },
      [this](fault::SectionReader& in) {
        const auto w = in.take_span((n_ + 63) / 64);
        std::vector<VertexId> to_kill;
        for (VertexId v = 0; v < n_; ++v) {
          const bool want = ((w[v / 64] >> (v % 64)) & Word{1}) != 0;
          if (!want && residual_.alive(v)) to_kill.push_back(v);
        }
        if (!to_kill.empty()) residual_.kill_batch(to_kill);
      });
  if (!durable.enabled()) return reg;
  // The run-loop cursor: the next rank plus the counters accumulated so
  // far, so a resumed process re-enters the loop where the persisted safe
  // point left it.
  reg.register_state(
      "loop",
      [this](std::vector<Word>& out) {
        out.push_back(next_rank_);
        out.push_back(rank_phases_);
        out.push_back(sparsified_iterations_);
        out.push_back(final_gather_edges_);
        out.push_back(window_edges_per_phase_.size());
        for (const std::size_t e : window_edges_per_phase_) out.push_back(e);
      },
      [this](fault::SectionReader& in) {
        next_rank_ = static_cast<std::size_t>(in.take());
        rank_phases_ = static_cast<std::size_t>(in.take());
        sparsified_iterations_ = static_cast<std::size_t>(in.take());
        final_gather_edges_ = static_cast<std::size_t>(in.take());
        const auto w = in.take_counted();
        window_edges_per_phase_.assign(w.begin(), w.end());
      });
  return reg;
}

std::span<const std::span<const Arc>> MisGreedy::upper_spans(
    std::span<const VertexId> vertices) {
  arc_spans_.assign(vertices.size(), {});
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    if (residual_.alive(v)) arc_spans_[i] = residual_.alive_upper_arcs(v);
  }
  return arc_spans_;
}

void MisGreedy::take_gathered(std::span<const Word> words,
                              std::size_t round) {
  for (const Word w : words) {
    const auto a = static_cast<VertexId>(w >> 32);
    const auto b = static_cast<VertexId>(w & 0xffffffffULL);
    if (a >= n_ || b >= n_) {
      throw fault::IntegrityError(
          std::string(driver_) + ": gathered edge endpoint " +
          std::to_string(a >= n_ ? a : b) + " is out of range (n = " +
          std::to_string(n_) + ") at round " + std::to_string(round) +
          ": a corrupted word reached the leader undetected");
    }
    pairs_.emplace_back(a, b);
  }
}

std::vector<VertexId> MisGreedy::leader_greedy(std::size_t lo,
                                               std::size_t hi) {
  csr_.build(pairs_);
  std::vector<VertexId> members;
  for (std::size_t r = lo; r < hi; ++r) {
    const VertexId v = perm_[r];
    if (!residual_.alive(v) || killed_[v]) continue;
    members.push_back(v);
    for (const VertexId u : csr_.neighbors(v)) killed_[u] = 1;
  }
  for (const VertexId t : csr_.touched()) killed_[t] = 0;
  csr_.clear();
  pairs_.clear();
  return members;
}

const std::vector<VertexId>& MisGreedy::death_set(
    const std::vector<VertexId>& members) {
  for (const VertexId v : members) dying_[v] = 1;
  for (const VertexId v : members) {
    for (const Arc& a : residual_.alive_arcs(v)) dying_[a.to] = 1;
  }
  died_.clear();
  for (const VertexId v : residual_.alive_vertices()) {
    if (dying_[v]) died_.push_back(v);
  }
  return died_;
}

}  // namespace mpcg
