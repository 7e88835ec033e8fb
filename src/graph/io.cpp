#include "graph/io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace mpcg {

namespace {

/// Next non-blank, non-comment line; `line_no` counts every physical line
/// read (1-based, so it names the returned line).
std::string next_content_line(std::istream& in, std::size_t& line_no) {
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return line;
  }
  return {};
}

[[noreturn]] void reject(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("read_edge_list: line " + std::to_string(line_no) +
                           ": " + what);
}

/// Parses a whole token as a decimal count in [0, max]: digits only — no
/// sign, no trailing junk, no wrap-around of negative or oversized values.
std::uint64_t parse_count(const std::string& token, std::uint64_t max,
                          std::size_t line_no, const std::string& what) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    reject(line_no, "bad " + what + " '" + token + "'");
  }
  if (ec == std::errc::result_out_of_range || value > max) {
    reject(line_no, what + " '" + token + "' exceeds " + std::to_string(max));
  }
  return value;
}

}  // namespace

LoadedGraph read_edge_list(std::istream& in) {
  std::size_t line_no = 0;
  const std::string header = next_content_line(in, line_no);
  if (header.empty()) {
    throw std::runtime_error("read_edge_list: no 'n m' header line");
  }
  std::istringstream head(header);
  std::string n_token;
  std::string m_token;
  if (!(head >> n_token >> m_token)) reject(line_no, "bad header (want 'n m')");
  // Vertex ids are 32-bit, so every id in [0, n) must fit one.
  const std::size_t n = parse_count(
      n_token, std::numeric_limits<VertexId>::max(), line_no, "vertex count");
  const std::size_t m = parse_count(
      m_token, std::numeric_limits<EdgeId>::max(), line_no, "edge count");
  if (std::string token; head >> token) {
    reject(line_no, "unexpected token '" + token + "' after the header");
  }
  GraphBuilder builder(n);
  // Weights keyed by canonical endpoints; remapped to edge ids post-build
  // (the builder sorts and dedupes).
  std::vector<std::pair<Edge, double>> weighted;
  bool any_weight = false;
  bool any_plain = false;
  for (std::size_t i = 0; i < m; ++i) {
    const std::string line = next_content_line(in, line_no);
    if (line.empty()) {
      reject(line_no, "input ends after " + std::to_string(i) + " of the " +
                          std::to_string(m) + " declared edge rows");
    }
    std::istringstream row(line);
    std::string u_token;
    std::string v_token;
    if (!(row >> u_token >> v_token)) reject(line_no, "bad edge line: " + line);
    const std::uint64_t u = parse_count(
        u_token, std::numeric_limits<std::uint64_t>::max(), line_no,
        "endpoint");
    const std::uint64_t v = parse_count(
        v_token, std::numeric_limits<std::uint64_t>::max(), line_no,
        "endpoint");
    if (u >= n || v >= n) reject(line_no, "endpoint out of range: " + line);
    // An optional third token is the weight: a whole finite number >= 0.
    // Nothing may follow it.
    std::string token;
    if (row >> token) {
      char* end = nullptr;
      const double w = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') {
        reject(line_no, "bad weight '" + token + "'");
      }
      if (!std::isfinite(w)) {
        reject(line_no, "non-finite weight '" + token + "'");
      }
      if (w < 0.0) reject(line_no, "negative weight '" + token + "'");
      if (row >> token) reject(line_no, "unexpected token '" + token + "'");
      any_weight = true;
      Edge e{static_cast<VertexId>(u), static_cast<VertexId>(v)};
      if (e.u > e.v) std::swap(e.u, e.v);
      weighted.emplace_back(e, w);
    } else {
      any_plain = true;
    }
    builder.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  if (const std::string extra = next_content_line(in, line_no);
      !extra.empty()) {
    reject(line_no, "edge row beyond the " + std::to_string(m) +
                        " declared in the header");
  }
  if (any_weight && any_plain) {
    throw std::runtime_error(
        "read_edge_list: mixed weighted and unweighted rows");
  }

  LoadedGraph out;
  out.graph = builder.build();
  if (any_weight) {
    std::vector<double> weights(out.graph.num_edges(), 0.0);
    for (const auto& [e, w] : weighted) {
      const EdgeId id = out.graph.find_edge(e.u, e.v);
      if (id != Graph::kNoEdge) weights[id] = w;  // last duplicate wins
    }
    out.weights = std::move(weights);
  }
  return out;
}

LoadedGraph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list: cannot open " + path);
  return read_edge_list(in);
}

void write_edge_list(std::ostream& out, const Graph& g,
                     const std::vector<double>* weights) {
  if (weights != nullptr && weights->size() != g.num_edges()) {
    throw std::invalid_argument("write_edge_list: weights size mismatch");
  }
  out << std::setprecision(17);  // lossless double round-trip
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge ed = g.edge(e);
    out << ed.u << ' ' << ed.v;
    if (weights != nullptr) out << ' ' << (*weights)[e];
    out << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Graph& g,
                          const std::vector<double>* weights) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_edge_list: cannot open " + path);
  write_edge_list(out, g, weights);
}

}  // namespace mpcg
