#include "fault/durable.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "fault/checkpoint.h"
#include "util/fnv.h"

namespace mpcg::fault {

namespace {

using Word = std::uint64_t;

/// The byte string "MPCGCKPT" read as one little-endian word.
constexpr Word kMagic = 0x54504b434743504dULL;
/// Version 3: the trailer digests the header only, which carries every
/// payload's digest, so each payload word is folded once. Version 2 files
/// digest the payloads a second time into the trailer; version 1 files
/// may also hold non-zero staging-path state in two "__engine" words that
/// are now reserved zeros.
constexpr Word kVersion = 3;

/// Guard rails for parsing garbage: any well-formed file the library
/// writes stays far below these.
constexpr Word kMaxScopeBytes = 1 << 16;
constexpr Word kMaxNameBytes = 1 << 12;
constexpr Word kMaxSections = 1 << 12;

constexpr std::string_view kGenerationPrefix = "ckpt-";
constexpr std::string_view kGenerationSuffix = ".mpcg";
constexpr std::string_view kTempSuffix = ".tmp";

std::size_t padded_words(std::size_t bytes) { return (bytes + 7) / 8; }

void append_string(std::vector<Word>& out, const std::string& s) {
  out.push_back(s.size());
  const std::size_t base = out.size();
  out.resize(base + padded_words(s.size()), 0);
  std::memcpy(out.data() + base, s.data(), s.size());
}

[[noreturn]] void bad_file(const std::string& path, const std::string& why) {
  throw CheckpointError("durable checkpoint " + path + ": " + why);
}

std::string take_string(SectionReader& in, Word max_bytes) {
  const Word bytes = in.take();
  if (bytes > max_bytes) {
    throw CheckpointError(in.context() + ": malformed string length");
  }
  const auto body = in.take_span(padded_words(bytes));
  std::string s(bytes, '\0');
  std::memcpy(s.data(), body.data(), bytes);
  return s;
}

/// Writes every byte `iov` covers, IOV_MAX entries per call, resuming
/// after partial writes and EINTR. False on any other failure.
bool write_all(int fd, std::vector<iovec>& iov) {
  std::size_t first = 0;
  while (first < iov.size()) {
    const auto count =
        static_cast<int>(std::min<std::size_t>(iov.size() - first, IOV_MAX));
    const ssize_t wrote = ::writev(fd, iov.data() + first, count);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) return false;
    auto left = static_cast<std::size_t>(wrote);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (left != 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }
  return true;
}

/// One file of a ring directory.
struct RingFile {
  Word seq = 0;
  bool temp = false;  ///< ckpt-<seq>.mpcg.tmp: an unpublished write.
  std::string path;
};

/// The ring files in `dir`, by ascending seq: ckpt-<seq>.mpcg and
/// ckpt-<seq>.mpcg.tmp with <seq> in canonical decimal. Every other name
/// is ignored.
std::vector<RingFile> list_ring(const std::string& dir) {
  std::vector<RingFile> files;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    std::string_view v = name;
    RingFile f;
    f.temp = v.ends_with(kTempSuffix);
    if (f.temp) v.remove_suffix(kTempSuffix.size());
    if (!v.starts_with(kGenerationPrefix) || !v.ends_with(kGenerationSuffix)) {
      continue;
    }
    v.remove_prefix(kGenerationPrefix.size());
    v.remove_suffix(kGenerationSuffix.size());
    const auto parsed = std::from_chars(v.data(), v.data() + v.size(), f.seq);
    if (parsed.ec != std::errc() || std::to_string(f.seq) != v) continue;
    f.path = it->path().string();
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const RingFile& a, const RingFile& b) { return a.seq < b.seq; });
  return files;
}

}  // namespace

void SectionReader::finish() const {
  if (at_ != words_.size()) {
    throw CheckpointError(context_ + ": " +
                          std::to_string(words_.size() - at_) +
                          " leftover word(s)");
  }
}

void SectionReader::truncated(std::uint64_t wanted) const {
  throw CheckpointError(context_ + ": truncated (wants " +
                        std::to_string(wanted) + " more word(s), " +
                        std::to_string(words_.size() - at_) + " left)");
}

std::size_t write_checkpoint_file(const std::string& path, std::uint64_t seq,
                                  std::uint64_t round,
                                  const std::string& scope,
                                  const std::vector<DurableSection>& sections) {
  // Only the header is materialized. Each payload is folded once, into its
  // section digest, and then handed to the kernel straight from the
  // section buffer by one gathered write.
  std::vector<Word> header;
  header.push_back(kMagic);
  header.push_back(kVersion);
  header.push_back(seq);
  header.push_back(round);
  append_string(header, scope);
  header.push_back(sections.size());
  std::size_t payload_words = 0;
  for (const DurableSection& s : sections) {
    append_string(header, s.name);
    header.push_back(s.payload.size());
    header.push_back(Fnv::digest(s.payload));
    payload_words += s.payload.size();
  }
  const Word trailer = Fnv::digest(header);

  std::vector<iovec> iov;
  iov.reserve(sections.size() + 2);
  const auto add = [&iov](const Word* words, std::size_t count) {
    if (count != 0) {
      iov.push_back({const_cast<Word*>(words), count * sizeof(Word)});
    }
  };
  add(header.data(), header.size());
  for (const DurableSection& s : sections) {
    add(s.payload.data(), s.payload.size());
  }
  add(&trailer, 1);

  // Temp file + atomic rename: a reader never sees a torn write.
  const std::string tmp = path + std::string(kTempSuffix);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) bad_file(tmp, "cannot open for writing");
  const bool wrote = write_all(fd, iov);
  const bool closed = ::close(fd) == 0;
  if (!wrote || !closed) {
    ::unlink(tmp.c_str());
    bad_file(tmp, "short write");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    bad_file(path, "cannot publish (rename failed)");
  }
  return header.size() + payload_words + 1;
}

std::size_t write_checkpoint_file(const std::string& path,
                                  const DurableCheckpoint& ckpt) {
  return write_checkpoint_file(path, ckpt.seq, ckpt.round, ckpt.scope,
                               ckpt.sections);
}

DurableCheckpoint read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) bad_file(path, "cannot open for reading");
  std::fseek(f, 0, SEEK_END);
  const long bytes = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (bytes < 0 || bytes % 8 != 0 || static_cast<std::size_t>(bytes) < 7 * 8) {
    std::fclose(f);
    bad_file(path, "truncated checkpoint file");
  }
  std::vector<Word> words(static_cast<std::size_t>(bytes) / 8);
  const std::size_t got = std::fread(words.data(), sizeof(Word),
                                     words.size(), f);
  std::fclose(f);
  if (got != words.size()) bad_file(path, "short read");

  if (words.front() != kMagic) bad_file(path, "bad magic");
  if (words[1] != kVersion) {
    bad_file(path, "unsupported checkpoint version " +
                       std::to_string(words[1]) + " (want " +
                       std::to_string(kVersion) + ")");
  }

  // Parse the header (the body is everything but the trailer word).
  const auto body = std::span<const Word>(words).first(words.size() - 1);
  SectionReader in("durable checkpoint " + path, body);
  in.take_span(2);  // magic, version
  DurableCheckpoint ckpt;
  ckpt.seq = in.take();
  ckpt.round = in.take();
  ckpt.scope = take_string(in, kMaxScopeBytes);
  const Word nsections = in.take();
  if (nsections > kMaxSections) bad_file(path, "malformed section count");
  struct Header {
    std::string name;
    Word payload_words;
    Word fnv;
  };
  std::vector<Header> headers;
  headers.reserve(nsections);
  Word payload_words = 0;
  for (Word i = 0; i < nsections; ++i) {
    Header h;
    h.name = take_string(in, kMaxNameBytes);
    h.payload_words = in.take();
    h.fnv = in.take();
    if (h.payload_words > in.remaining() - payload_words) {
      bad_file(path, "truncated checkpoint file");
    }
    payload_words += h.payload_words;
    headers.push_back(std::move(h));
  }
  const std::string round_tag = " (round " + std::to_string(ckpt.round) + ")";
  if (in.remaining() != payload_words) {
    bad_file(path, "trailing garbage" + round_tag);
  }
  // The trailer binds the header, and through its per-section digests
  // every payload.
  if (Fnv::digest(body.first(body.size() - in.remaining())) != words.back()) {
    bad_file(path, "header digest mismatch" + round_tag);
  }
  std::string rotted;
  for (Header& h : headers) {
    const auto payload = in.take_span(h.payload_words);
    if (Fnv::digest(payload) != h.fnv) {
      rotted += rotted.empty() ? "" : ", ";
      rotted += h.name;
    }
    ckpt.sections.push_back(
        {std::move(h.name), std::vector<Word>(payload.begin(), payload.end())});
  }
  if (!rotted.empty()) {
    bad_file(path, "provider(s) failing verification: " + rotted + round_tag);
  }
  return ckpt;
}

DurableRing::DurableRing(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw CheckpointError("durable checkpoint dir " + dir_ +
                          ": cannot create (" + ec.message() + ")");
  }
  rescan();
}

std::string DurableRing::generation_path(std::uint64_t seq) const {
  return dir_ + "/" + std::string(kGenerationPrefix) + std::to_string(seq) +
         std::string(kGenerationSuffix);
}

std::vector<std::string> DurableRing::generation_paths() const {
  std::vector<std::string> paths;
  for (const Word seq : live_) paths.push_back(generation_path(seq));
  return paths;
}

void DurableRing::rescan() {
  // A killed save leaves at most a temp file (killed before its rename) or
  // one generation too many (killed between its rename and its unlink);
  // both are swept here.
  live_.clear();
  for (const RingFile& f : list_ring(dir_)) {
    if (f.temp) {
      ::unlink(f.path.c_str());
    } else {
      live_.push_back(f.seq);
    }
  }
  drop_superseded();
  next_seq_ = live_.empty() ? 1 : live_.back() + 1;
}

void DurableRing::drop_superseded() {
  while (live_.size() > kSlots) {
    ::unlink(generation_path(live_.front()).c_str());
    live_.erase(live_.begin());
  }
}

void DurableRing::reset() {
  for (const RingFile& f : list_ring(dir_)) ::unlink(f.path.c_str());
  live_.clear();
  next_seq_ = 1;
}

std::size_t DurableRing::save(std::uint64_t round, const std::string& scope,
                              const std::vector<DurableSection>& sections) {
  const std::size_t words = write_checkpoint_file(
      generation_path(next_seq_), next_seq_, round, scope, sections);
  live_.push_back(next_seq_++);
  // Only now that the new generation is published may the one before the
  // previous go: the two newest are complete on disk at every instant.
  drop_superseded();
  return words;
}

std::optional<DurableLoad> DurableRing::load(const std::string& scope) const {
  std::string errors;
  std::size_t existing = 0;
  std::size_t failed = 0;
  // Newest first: the first generation that verifies for this scope is
  // the one to load, and it is a fallback only when a newer one failed.
  // Older generations are never read.
  for (auto seq = live_.rbegin(); seq != live_.rend(); ++seq) {
    const std::string path = generation_path(*seq);
    if (!std::filesystem::exists(path)) continue;
    ++existing;
    try {
      DurableCheckpoint ckpt = read_checkpoint_file(path);
      if (ckpt.scope != scope) continue;  // another run's leftovers
      return DurableLoad{std::move(ckpt), failed != 0};
    } catch (const CheckpointError& e) {
      ++failed;
      errors += errors.empty() ? "" : "; ";
      errors += e.what();
    }
  }
  if (failed != 0) {
    throw CheckpointError(
        "no loadable checkpoint generation (" + std::to_string(failed) +
        " of " + std::to_string(existing) +
        " on-disk generation(s) fail verification): " + errors);
  }
  return std::nullopt;  // nothing on disk for this scope: fresh start
}

}  // namespace mpcg::fault
