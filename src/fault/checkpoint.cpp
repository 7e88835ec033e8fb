#include "fault/checkpoint.h"

#include <algorithm>
#include <utility>

#include "fault/supervisor.h"
#include "util/fnv.h"

namespace mpcg::fault {

namespace {

/// Charge of shipping `now` given the provider's previous image `prev`
/// (same length): two header words (offset, length) plus the payload per
/// maximal dirty stretch, capped at a full re-serialization.
std::size_t dirty_range_cost(const CheckpointRegistry::Word* prev,
                             const CheckpointRegistry::Word* now,
                             std::size_t words) {
  std::size_t cost = 0;
  std::size_t i = 0;
  while (i < words) {
    if (prev[i] == now[i]) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < words && prev[j] != now[j]) ++j;
    cost += 2 + (j - i);
    if (cost >= words) return words;  // delta lost; charge a full save
    i = j;
  }
  return cost;
}

}  // namespace

void CheckpointRegistry::restore_provider(Provider& p,
                                          std::span<const Word> words) {
  SectionReader in("checkpoint section '" + p.name + "'", words);
  p.restore(in);
  in.finish();
}

void CheckpointRegistry::register_state(std::string name, SaveFn save,
                                        RestoreFn restore) {
  providers_.push_back({std::move(name), std::move(save), std::move(restore)});
}

std::size_t CheckpointRegistry::capture(std::size_t round) {
  std::size_t cost = 0;
  bool all_deltas = !ring_.empty() && !providers_.empty();
  const Generation* prev = ring_.empty() ? nullptr : &ring_.back();
  fresh_.clear();
  std::vector<Image> images;
  images.reserve(providers_.size());
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    const std::size_t offset = fresh_.size();
    providers_[i].save(fresh_);
    const std::size_t words = fresh_.size() - offset;
    const Word csum = Fnv::digest({fresh_.data() + offset, words});
    if (prev != nullptr && i < prev->images.size() &&
        prev->images[i].words == words) {
      const std::size_t delta =
          dirty_range_cost(prev->buffer.data() + prev->images[i].offset,
                           fresh_.data() + offset, words);
      cost += delta;
      if (delta >= words && words != 0) all_deltas = false;
    } else {
      // First capture, or the provider resized (frontier lists grow and
      // shrink): dirty ranges against a differently-shaped image are
      // meaningless, ship it whole.
      cost += words;
      all_deltas = false;
    }
    images.push_back({offset, words, csum});
  }
  Generation g;
  g.buffer.swap(fresh_);
  g.images = std::move(images);
  g.round = round;
  ring_.push_back(std::move(g));
  if (ring_.size() > generations_) {
    // Recycle the evicted generation's allocation as the next scratch.
    fresh_.swap(ring_.front().buffer);
    ring_.erase(ring_.begin());
  }
  ++captures_;
  delta_captures_ += all_deltas;
  last_capture_words_ = cost;
  return cost;
}

void CheckpointRegistry::restore() {
  if (ring_.empty()) return;
  for (std::size_t age = 0; age < ring_.size(); ++age) {
    if (!generation_ok(age)) continue;
    const Generation& g = gen(age);
    const std::size_t n = std::min(providers_.size(), g.images.size());
    for (std::size_t i = 0; i < n; ++i) {
      restore_provider(providers_[i], {g.buffer.data() + g.images[i].offset,
                                       g.images[i].words});
    }
    fallback_restores_ += age != 0;
    last_restored_round_ = g.round;
    ++restores_;
    return;
  }
  // Name the rotted providers (union over the whole ring) so the operator
  // knows *which* state lost its last good copy, not just that one did.
  std::vector<std::string> seen;
  std::string rotted;
  for (std::size_t age = 0; age < ring_.size(); ++age) {
    for (std::string& name : rotted_providers(age)) {
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
      rotted += rotted.empty() ? "" : ", ";
      rotted += name;
      seen.push_back(std::move(name));
    }
  }
  throw CheckpointError("checkpoint restore: all " +
                        std::to_string(ring_.size()) +
                        " retained generation(s) fail verification" +
                        " (rotted provider(s): " + rotted + ")");
}

std::vector<std::string> CheckpointRegistry::rotted_providers(
    std::size_t age) const {
  std::vector<std::string> rotted;
  const Generation& g = gen(age);
  const std::size_t n = std::min(providers_.size(), g.images.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Image& im = g.images[i];
    if (Fnv::digest({g.buffer.data() + im.offset, im.words}) != im.csum) {
      rotted.push_back(providers_[i].name);
    }
  }
  return rotted;
}

bool CheckpointRegistry::generation_ok(std::size_t age) const {
  const Generation& g = gen(age);
  for (const Image& im : g.images) {
    if (Fnv::digest({g.buffer.data() + im.offset, im.words}) != im.csum) {
      return false;
    }
  }
  return true;
}

std::size_t CheckpointRegistry::corrupt_generation(std::size_t age,
                                                   std::uint64_t a,
                                                   std::uint64_t b,
                                                   std::uint64_t c) {
  Generation& g = gen(age);
  // Same flip pattern as the wire and store corruptions.
  const auto flips = flip_positions(a, b, c, g.buffer.size());
  for (const BitFlip& at : flips) g.buffer[at.word] ^= Word{1} << at.bit;
  return flips.size();
}

void CheckpointRegistry::save_sections_into(std::vector<DurableSection>& out) {
  if (out.size() < providers_.size()) out.resize(providers_.size());
  for (std::size_t i = 0; i < providers_.size(); ++i) {
    out[i].name = providers_[i].name;
    out[i].payload.clear();
    providers_[i].save(out[i].payload);
  }
}

void CheckpointRegistry::install_sections(
    std::span<const DurableSection> sections) {
  for (Provider& p : providers_) {
    const DurableSection* found = nullptr;
    for (const DurableSection& s : sections) {
      if (s.name == p.name) {
        found = &s;
        break;
      }
    }
    if (found == nullptr) {
      throw CheckpointError(
          "durable checkpoint restore: no section for provider '" + p.name +
          "'");
    }
    restore_provider(p, found->payload);
  }
}

std::optional<DurableLoad> CheckpointRegistry::load_from(
    const DurableRing& ring, const std::string& scope) {
  std::optional<DurableLoad> loaded = ring.load(scope);
  if (loaded) install_sections(loaded->checkpoint.sections);
  return loaded;
}

void CheckpointRegistry::recapture_newest() {
  if (ring_.empty()) return;
  Generation& g = ring_.back();
  fresh_.clear();
  std::vector<Image> images;
  images.reserve(providers_.size());
  for (Provider& p : providers_) {
    const std::size_t offset = fresh_.size();
    p.save(fresh_);
    const std::size_t words = fresh_.size() - offset;
    images.push_back(
        {offset, words, Fnv::digest({fresh_.data() + offset, words})});
  }
  g.buffer.swap(fresh_);
  g.images = std::move(images);
}

}  // namespace mpcg::fault
