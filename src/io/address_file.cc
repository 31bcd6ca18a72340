#include "io/address_file.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "check/contracts.h"

namespace v6::io {

namespace {

std::string_view trim(std::string_view line) {
  while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
    line.remove_prefix(1);
  }
  while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                           line.back() == '\r')) {
    line.remove_suffix(1);
  }
  return line;
}

/// Invokes fn(line) for every '#'-stripped, trimmed, non-empty line.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (!line.empty()) fn(line);
    if (end == text.size()) break;
    pos = end + 1;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  out << contents;
  if (!out) throw std::runtime_error("failed writing " + path);
}

/// Parses a source label back to its enum; returns nullopt for unknown
/// labels (forward compatibility with files from newer versions).
std::optional<v6::seeds::SeedSource> parse_source(std::string_view label) {
  for (const v6::seeds::SeedSource source : v6::seeds::kAllSeedSources) {
    if (v6::seeds::to_string(source) == label) return source;
  }
  return std::nullopt;
}

}  // namespace

ParseReport parse_address_list(std::string_view text,
                               std::vector<v6::net::Ipv6Addr>& out) {
  ParseReport report;
  for_each_line(text, [&](std::string_view line) {
    ++report.lines;
    if (const auto addr = v6::net::Ipv6Addr::parse(line)) {
      out.push_back(*addr);
      ++report.parsed;
    } else {
      ++report.malformed;
    }
  });
  V6_ENSURE_MSG(report.lines == report.parsed + report.malformed,
                "every line must be counted exactly once");
  return report;
}

std::vector<v6::net::Ipv6Addr> read_address_file(const std::string& path,
                                                 ParseReport* report) {
  std::vector<v6::net::Ipv6Addr> out;
  const ParseReport r = parse_address_list(read_file(path), out);
  if (report != nullptr) *report = r;
  return out;
}

void write_address_list(std::ostream& os,
                        std::span<const v6::net::Ipv6Addr> addrs) {
  for (const v6::net::Ipv6Addr& addr : addrs) {
    os << addr.to_string() << '\n';
  }
}

void write_address_file(const std::string& path,
                        std::span<const v6::net::Ipv6Addr> addrs) {
  std::ostringstream os;
  write_address_list(os, addrs);
  write_file(path, std::move(os).str());
}

void write_seed_dataset(std::ostream& os,
                        const v6::seeds::SeedDataset& dataset) {
  const auto& addrs = dataset.addrs();
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    os << addrs[i].to_string() << '\t';
    const std::uint16_t mask = dataset.sources_of(i);
    bool first = true;
    for (const v6::seeds::SeedSource source : v6::seeds::kAllSeedSources) {
      if (mask & v6::seeds::source_bit(source)) {
        if (!first) os << ',';
        os << v6::seeds::to_string(source);
        first = false;
      }
    }
    os << '\n';
  }
}

v6::seeds::SeedDataset parse_seed_dataset(std::string_view text,
                                          ParseReport* report) {
  v6::seeds::SeedDataset dataset;
  ParseReport r;
  for_each_line(text, [&](std::string_view line) {
    ++r.lines;
    const auto tab = line.find('\t');
    const auto addr =
        v6::net::Ipv6Addr::parse(trim(line.substr(0, tab)));
    if (!addr) {
      ++r.malformed;
      return;
    }
    bool any = false;
    if (tab != std::string_view::npos) {
      std::string_view labels = line.substr(tab + 1);
      while (!labels.empty()) {
        const auto comma = labels.find(',');
        const std::string_view label = trim(labels.substr(0, comma));
        if (const auto source = parse_source(label)) {
          dataset.add(*addr, *source);
          any = true;
        }
        if (comma == std::string_view::npos) break;
        labels.remove_prefix(comma + 1);
      }
    }
    if (any) {
      ++r.parsed;
    } else {
      ++r.malformed;  // no recognizable provenance
    }
  });
  V6_ENSURE_MSG(r.lines == r.parsed + r.malformed,
                "every line must be counted exactly once");
  V6_ENSURE_MSG(dataset.size() <= r.parsed,
                "dataset cannot hold more unique addresses than parsed lines");
  if (report != nullptr) *report = r;
  return dataset;
}

void write_seed_dataset_file(const std::string& path,
                             const v6::seeds::SeedDataset& dataset) {
  std::ostringstream os;
  write_seed_dataset(os, dataset);
  write_file(path, std::move(os).str());
}

v6::seeds::SeedDataset read_seed_dataset_file(const std::string& path,
                                              ParseReport* report) {
  return parse_seed_dataset(read_file(path), report);
}

void write_alias_list(std::ostream& os, const v6::dealias::AliasList& list) {
  for (const v6::net::Prefix& prefix : list.prefixes()) {
    os << prefix.to_string() << '\n';
  }
}

void write_alias_list_file(const std::string& path,
                           const v6::dealias::AliasList& list) {
  std::ostringstream os;
  write_alias_list(os, list);
  write_file(path, std::move(os).str());
}

v6::dealias::AliasList read_alias_list_file(const std::string& path) {
  v6::dealias::AliasList list;
  list.load(read_file(path));
  return list;
}

}  // namespace v6::io
