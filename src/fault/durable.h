// On-disk checkpoint durability: the process-boundary extension of the
// verified generation ring (see fault/checkpoint.h).
//
// A durable checkpoint is one versioned binary file (all 64-bit
// little-endian words):
//
//   [0] magic "MPCGCKPT"      [1] format version (kVersion)
//   [2] seq (monotonic)       [3] round tag
//   [4] scope length (bytes)  [..] scope string, zero-padded to words
//   [k] section count
//   per section: name length (bytes), padded name words,
//                payload word count, payload FNV-1a digest
//   concatenated section payloads
//   trailer: FNV-1a digest over the header (every word before the first
//            payload)
//
// The header carries every payload's digest, so the trailer binds the
// payloads through them and each payload word is folded exactly once, by
// the writer and by the reader (format version 3).
//
// Files are written to a temp name and published with one atomic rename,
// so a torn write can never be loaded: a reader sees either no file or the
// complete file. `seq` orders writes across process restarts (round tags
// are not monotonic across nested drivers, e.g. the integral-matching
// inner runs restart engine rounds). The scope string doubles as a
// configuration signature: a checkpoint written by a different driver /
// graph / cluster shape never hijacks a resume — it reads as "no
// checkpoint", a clean fresh start.
//
// DurableRing mirrors CheckpointRegistry's in-memory generation ring on
// disk. Every generation is published under a name that never existed
// before, ckpt-<seq>.mpcg, and a save then unlinks the generations older
// than the previous one, so from the second save on the two newest
// generations are complete on disk at every instant — and no save renames
// over an existing file, which on ext4 would start writeback of the new
// file at every safe point. load() verifies newest-first and falls back
// to an older generation when the newest fails verification — and throws
// the typed CheckpointError (naming file, round, and the failing provider
// sections) only when every generation of the requested scope is bad.
#ifndef MPCG_FAULT_DURABLE_H
#define MPCG_FAULT_DURABLE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mpcg::fault {

/// Thrown out of a run that was asked to stop (SIGTERM/SIGINT via a stop
/// flag, or the stop_after_safe_points test hook) after one final durable
/// generation was flushed: the process may exit and be relaunched with
/// --resume. Distinct from CheckpointError — nothing is wrong.
class ResumableInterrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One named payload inside a durable checkpoint file — a provider's
/// serialized state, or an engine's own "__engine" section.
struct DurableSection {
  std::string name;
  std::vector<std::uint64_t> payload;
};

/// Bounds-checked cursor over one run of checkpoint words: a provider
/// section's payload, an engine's "__engine" section, or a file body.
/// Every read past the end, and finish() with words left over, throws
/// CheckpointError prefixed with `context` (e.g. "checkpoint section
/// 'freeze'"), so a short or overlong section that passed its digest is
/// refused instead of read out of bounds.
class SectionReader {
 public:
  SectionReader(std::string context, std::span<const std::uint64_t> words)
      : context_(std::move(context)), words_(words) {}

  std::uint64_t take() {
    if (at_ >= words_.size()) truncated(1);
    return words_[at_++];
  }
  /// The next `count` words.
  std::span<const std::uint64_t> take_span(std::uint64_t count) {
    if (count > words_.size() - at_) truncated(count);
    const auto s = words_.subspan(at_, static_cast<std::size_t>(count));
    at_ += s.size();
    return s;
  }
  /// A length word followed by that many words.
  std::span<const std::uint64_t> take_counted() { return take_span(take()); }
  /// Everything not read yet.
  std::span<const std::uint64_t> take_rest() {
    return take_span(words_.size() - at_);
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return words_.size() - at_;
  }
  /// Throws unless every word was read.
  void finish() const;
  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }

 private:
  [[noreturn]] void truncated(std::uint64_t wanted) const;

  std::string context_;
  std::span<const std::uint64_t> words_;
  std::size_t at_ = 0;
};

/// A parsed (or to-be-written) checkpoint file.
struct DurableCheckpoint {
  std::uint64_t seq = 0;
  std::uint64_t round = 0;
  std::string scope;
  std::vector<DurableSection> sections;
};

/// Serializes `ckpt` into `path`.tmp and atomically renames it to `path`.
/// Throws CheckpointError on I/O failure. Returns the total number of
/// 64-bit words written (header + payloads + trailer).
std::size_t write_checkpoint_file(const std::string& path,
                                  const DurableCheckpoint& ckpt);

/// Same, without materializing a DurableCheckpoint: payloads go from
/// `sections` (borrowed, not consumed) straight into the kernel with one
/// gathered write, so a persisting engine can recycle its section buffers
/// across safe points.
std::size_t write_checkpoint_file(const std::string& path, std::uint64_t seq,
                                  std::uint64_t round,
                                  const std::string& scope,
                                  const std::vector<DurableSection>& sections);

/// Reads and fully verifies a checkpoint file. Throws CheckpointError —
/// naming the file, the round tag when recoverable, and the failing
/// section (provider) names on payload rot — for anything short of a
/// bit-exact file: bad magic, unsupported (stale) version, truncation at
/// any boundary, per-section digest mismatch, header trailer mismatch.
[[nodiscard]] DurableCheckpoint read_checkpoint_file(const std::string& path);

/// Result of DurableRing::load.
struct DurableLoad {
  DurableCheckpoint checkpoint;
  /// True when a newer generation failed verification and this older
  /// verified one was loaded instead.
  bool fallback = false;
};

/// On-disk generation ring under one directory: ckpt-<seq>.mpcg files.
class DurableRing {
 public:
  /// Generations retained on disk: the newest plus one fallback.
  static constexpr std::size_t kSlots = 2;

  /// Creates `dir` if missing and scans the existing generations so
  /// subsequent saves continue the sequence (resume case). The scan also
  /// sweeps what a killed save can leave behind: temp files, and any
  /// generation older than the newest kSlots. Names that are not
  /// ckpt-<digits>.mpcg are ignored. Call reset() right after construction
  /// for a fresh (non-resume) start.
  explicit DurableRing(std::string dir);

  /// Unlinks every generation and temp file: a fresh durable run must
  /// never let a stale same-scope file from a previous run outrank its own
  /// checkpoints by sequence number.
  void reset();

  /// Persists one generation (seq = newest existing + 1) under the fresh
  /// name ckpt-<seq>.mpcg, then unlinks every generation older than the
  /// previous one. `sections` is borrowed, not consumed, so callers can
  /// reuse their serialization buffers across saves. Returns the number of
  /// words written to disk.
  std::size_t save(std::uint64_t round, const std::string& scope,
                   const std::vector<DurableSection>& sections);

  /// Newest-verified-first load of a checkpoint matching `scope`.
  /// Returns nullopt when no generation file exists, or when every
  /// readable one belongs to a different scope (both are clean fresh
  /// starts). Throws CheckpointError aggregating the per-file reasons when
  /// files exist but none verifies for this scope.
  [[nodiscard]] std::optional<DurableLoad> load(
      const std::string& scope) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Paths of the live generations, oldest first (at most kSlots).
  [[nodiscard]] std::vector<std::string> generation_paths() const;

 private:
  [[nodiscard]] std::string generation_path(std::uint64_t seq) const;
  void rescan();
  /// Unlinks the oldest live generations until kSlots remain.
  void drop_superseded();

  std::string dir_;
  std::uint64_t next_seq_ = 1;
  /// Sequence numbers of the live generations, ascending.
  std::vector<std::uint64_t> live_;
};

/// Driver-facing durability options, carried by every flagship driver's
/// option struct. Durability is off while `dir` is empty; everything else
/// is then ignored.
struct DurableOptions {
  /// Checkpoint directory (the DurableRing lives here). Empty = off.
  std::string dir;
  /// Persist every K-th safe point (driver loop boundary). 1 = every one.
  std::size_t every = 1;
  /// In-memory CheckpointRegistry ring depth; 0 = the registry default.
  std::size_t generations = 0;
  /// Resume from the newest verified on-disk generation instead of
  /// starting fresh (a scope mismatch still starts fresh).
  bool resume = false;
  /// Graceful-stop flag (set by a SIGTERM/SIGINT handler): polled at every
  /// safe point; when set, one final generation is flushed and
  /// ResumableInterrupt is thrown.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Test hook: behave as if the stop flag was set at the N-th safe point
  /// (0 = never) — deterministic kill points for resume coupling tests.
  std::size_t stop_after_safe_points = 0;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

}  // namespace mpcg::fault

#endif  // MPCG_FAULT_DURABLE_H
