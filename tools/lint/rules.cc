#include "rules.h"

#include <algorithm>
#include <cctype>
#include <regex>

namespace v6lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool has_suffix(const std::string& path, std::string_view suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.size() == suffix.size()) return path == suffix;
  return path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         path[path.size() - suffix.size() - 1] == '/';
}

// ------------------------------------------------------------- patterns
// Every pattern is compiled here, during static initialization, so
// before the driver starts its worker threads. Compiling a std::regex
// fills libstdc++'s shared ctype<char>::narrow cache; workers compiling
// function-local patterns at the same time race on it.

const std::regex kPositionalSweep(R"(\b(run_all_tgas|run_tgas)\b)");
const std::regex kScanHitsCall(R"(\bscan_hits\s*\()");
const std::regex kAmbientEntropy(
    R"(\b(srand|random_device|drand48|lrand48|mrand48|rand_r|getpid)\b)"
    R"(|\b(rand|time|clock)\s*\()"
    R"(|\b(system_clock|high_resolution_clock)\b)");
const std::regex kTelemetryDeref(R"((^|[^_\w])telemetry->)");
const std::regex kTelemetryGuard(
    R"(telemetry\s*(!=|==)\s*nullptr|if\s*\(\s*telemetry\s*\)|telemetry\s*\?)");
const std::regex kSleepCall(
    R"(\b(sleep_for|sleep_until|usleep|nanosleep|sleep)\s*\()");
const std::regex kMetricRegistration(
    R"rx(\b(?:counter|gauge|timer|histogram)\s*\(\s*"([^"]*)")rx"
    R"rx(|\bSpan\s+\w+\s*\([^()"]*"([^"]*)")rx");
const std::regex kRawThread(R"(\bstd\s*::\s*j?thread\b|\bpthread_create\b)");
const std::regex kEpochMutation(R"(\b(begin_epoch|publish_epoch)\s*\()");
const std::regex kHostSpan(R"(\bhosts_\b|\bhosts\s*\(\s*\))");
const std::regex kRangeFor(
    R"(\bfor\s*\([^;)]*[^;:)]:\s*\*?([A-Za-z_]\w*)\s*\))");
// Deliberately `begin` only: every real traversal spells a begin (a
// range-for, an explicit iterator loop, or a materializing copy),
// while `.end()` alone is almost always the `it != m.end()` guard of
// a find() — a point lookup, not an ordering hazard.
const std::regex kBeginCall(R"(\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?begin\s*\()");
const std::regex kBareLock(
    R"(\b[A-Za-z_]\w*\s*(?:\.|->)\s*(?:try_)?(?:lock|unlock)\s*\(\s*\))");
const std::regex kSocketInclude(
    R"(^\s*#\s*include\s*<(sys/socket\.h|netinet/[^>]+|arpa/inet\.h)"
    R"(|sys/un\.h|netdb\.h|poll\.h|sys/poll\.h)>)");
const std::regex kQuotedInclude(R"(^\s*#\s*include\s*"([^"]+)\")");

// ---------------------------------------------------------------- rules
// The original eight rules, ported onto the shared index (they used to
// each re-strip the file); rationale per rule in docs/STATIC_ANALYSIS.md.

/// deprecated-api: retired API spellings. The positional sweep
/// wrappers are deleted outright — every sweep belongs on the
/// ScanSession builder — and so is the out-param scan_hits overload.
void check_deprecated_api(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kPositionalSweep)) {
      out.push_back({fi.file, i + 1, "deprecated-api",
                     "call to deprecated positional sweep API; use "
                     "ScanSession(universe, alias_list).with_*(...).sweep()"});
    }
  }

  // The deprecated scan_hits spelling is the 3-argument out-param
  // overload; count top-level commas inside the call parentheses.
  const std::string& joined = fi.lx.code;
  for (auto it =
           std::sregex_iterator(joined.begin(), joined.end(), kScanHitsCall);
       it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position()) + it->length();
    int depth = 1;
    int commas = 0;
    while (pos < joined.size() && depth > 0) {
      const char c = joined[pos];
      if (c == '(' || c == '[' || c == '{') ++depth;
      else if (c == ')' || c == ']' || c == '}') --depth;
      else if (c == ',' && depth == 1) ++commas;
      ++pos;
    }
    if (commas >= 2) {
      const std::size_t line =
          1 + static_cast<std::size_t>(
                  std::count(joined.begin(),
                             joined.begin() + it->position(), '\n'));
      out.push_back({fi.file, line, "deprecated-api",
                     "3-argument scan_hits is the deprecated ScanStats* "
                     "out-param overload; use scan_hits(targets, type)"});
    }
  }
}

/// nondeterminism: everything downstream of a seed must be reproducible;
/// ambient entropy or wall-clock reads in src/ (outside the one blessed
/// RNG header) silently break the parallel==sequential equivalence the
/// runner promises.
void check_nondeterminism(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;
  if (has_suffix(fi.generic, "src/net/rng.h")) return;

  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kAmbientEntropy)) {
      out.push_back({fi.file, i + 1, "nondeterminism",
                     "ambient randomness / wall-clock source; derive it "
                     "from the master seed via net/rng.h instead"});
    }
  }
}

/// pragma-once: headers must open with `#pragma once` (after comments),
/// the include-guard style the whole tree uses.
void check_pragma_once(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src || !fi.is_header) return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line.compare(first, 12, "#pragma once") == 0) return;
    out.push_back({fi.file, i + 1, "pragma-once",
                   "header's first non-comment line must be #pragma once"});
    return;
  }
  out.push_back(
      {fi.file, 1, "pragma-once", "header is missing #pragma once"});
}

/// telemetry-null-guard: a `Telemetry*` is nullable by API contract
/// everywhere (docs/OBSERVABILITY.md); dereferences must sit near an
/// explicit null check. Members spelled `telemetry_` are established
/// non-null at construction and exempt. The window is a heuristic wide
/// enough for the guarded-block idiom the tree uses.
void check_telemetry_guard(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;
  constexpr std::size_t kWindow = 15;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (!std::regex_search(stripped[i], kTelemetryDeref)) continue;
    bool guarded = false;
    const std::size_t start = i >= kWindow ? i - kWindow : 0;
    for (std::size_t j = start; j <= i && !guarded; ++j) {
      guarded = std::regex_search(stripped[j], kTelemetryGuard);
    }
    if (!guarded) {
      out.push_back({fi.file, i + 1, "telemetry-null-guard",
                     "Telemetry* is nullable by contract; null-check it "
                     "before dereferencing (or hold a telemetry_ member "
                     "established non-null at construction)"});
    }
  }
}

/// no-sleep: the scanner's retry/backoff machinery accounts waits on a
/// virtual clock; a real sleep in src/ would couple scan outcomes (and
/// test wall time) to the host scheduler. Blocking waits belong only in
/// tools/ and tests/, never in the library.
void check_no_sleep(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kSleepCall)) {
      out.push_back({fi.file, i + 1, "no-sleep",
                     "wall-clock wait in the library; charge virtual time "
                     "(RateLimiter::advance / ProbeTransport::advance) "
                     "instead"});
    }
  }
}

/// metric-name: every name the observability layer registers becomes a
/// trace path segment, a JSON object key, and a grep target; spaces,
/// uppercase, or punctuation outside [a-z0-9_.<>:] would break the
/// report analyzer's "tga:NAME/phase" splitting and make dashboards
/// unstable. Checks the *literal* first argument of registration calls
/// and Span constructors in src/ (runtime-composed names inherit the
/// charset from their literal parts).
void check_metric_name(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;
  const auto valid = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '.' || c == '<' || c == '>' || c == ':';
  };
  const std::vector<std::string>& with_strings = fi.lx.string_lines;
  for (std::size_t i = 0; i < with_strings.size(); ++i) {
    const std::string& line = with_strings[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                        kMetricRegistration);
         it != std::sregex_iterator(); ++it) {
      const std::string name =
          (*it)[1].matched ? (*it)[1].str() : (*it)[2].str();
      if (!std::all_of(name.begin(), name.end(), valid)) {
        out.push_back({fi.file, i + 1, "metric-name",
                       "metric/span name '" + name +
                           "' leaves the [a-z0-9_.<>:] charset; names "
                           "become trace paths and JSON keys "
                           "(docs/OBSERVABILITY.md)"});
      }
    }
  }
}

/// raw-thread: thread lifetime and failure propagation are runtime/'s
/// job (WorkerGroup joins on scope exit and rethrows captured
/// exceptions; parallel_for runs on a WorkerGroup). A bare std::thread
/// anywhere else in the library re-solves both problems badly, so the
/// spawn primitives are confined to src/runtime/.
void check_raw_thread(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src || fi.module == "runtime") return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kRawThread)) {
      out.push_back({fi.file, i + 1, "raw-thread",
                     "raw thread spawn outside src/runtime/; use "
                     "runtime::WorkerGroup or runtime::parallel_for"});
    }
  }
}

/// hitlist-mutation: HitlistStore epochs are immutable and publication
/// is the service's job (src/service/hitlist_store.h). The only code
/// allowed to spell the mutation pair begin_epoch()/publish_epoch() is
/// src/service/ itself; library code elsewhere reads snapshots. Tests
/// and benches exercise the writer path deliberately, so the rule is
/// confined to src/.
void check_hitlist_mutation(const RuleContext& ctx,
                            std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src || fi.module == "service") return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kEpochMutation)) {
      out.push_back({fi.file, i + 1, "hitlist-mutation",
                     "HitlistStore epoch mutation outside src/service/; "
                     "publication belongs to the service refresh loop — "
                     "read snapshots instead"});
    }
  }
}

/// materialized-span: Universe::hosts_ / hosts() is the materialized
/// host table — it exists only for differential tests against the
/// procedural model and V6_REQUIREs a materialized build. Library code
/// that touches it silently reintroduces the O(hosts) memory the
/// procedural universe removed (docs/SCALE.md) and crashes on the
/// 100M+-host configurations. Outside src/simnet/, host state is
/// reached through lookup_host(), for_each_host(), or probe().
void check_materialized_span(const RuleContext& ctx,
                             std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src || fi.module == "simnet") return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kHostSpan)) {
      out.push_back({fi.file, i + 1, "materialized-span",
                     "materialized host-table access outside src/simnet/; "
                     "hosts() requires a materialized build and scales "
                     "O(hosts) — use lookup_host(), for_each_host(), or "
                     "probe() instead"});
    }
  }
}

// ------------------------------------------------------- new rule families

/// layering: the declared module DAG in tools/lint/layers.txt is the
/// architecture; an include that crosses modules along an undeclared
/// edge is a violation, reported with the edge it would add. This turns
/// "src/probe must not know about src/fault" from reviewer memory into
/// a gate.
void check_layering(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  const LayerSpec* layers = ctx.project.layers;
  if (!fi.in_src || fi.module.empty() || layers == nullptr) return;

  if (!layers->declared(fi.module)) {
    out.push_back({fi.file, 1, "layering",
                   "module '" + fi.module +
                       "' is not declared in tools/lint/layers.txt; every "
                       "src/ module must appear in the layering DAG"});
    return;
  }
  for (const IncludeRef& inc : fi.includes) {
    const std::string target_module = module_of_include(inc.target);
    if (target_module.empty() || target_module == fi.module) continue;
    if (layers->declared(target_module)) {
      if (!layers->edge_allowed(fi.module, target_module)) {
        out.push_back(
            {fi.file, inc.line, "layering",
             "include of \"" + inc.target + "\" adds module edge " +
                 fi.module + " -> " + target_module +
                 ", which tools/lint/layers.txt does not allow"});
      }
    } else if (ctx.project.by_src_relative.count(inc.target) != 0) {
      out.push_back({fi.file, inc.line, "layering",
                     "include of \"" + inc.target + "\" targets module '" +
                         target_module +
                         "', which is not declared in tools/lint/layers.txt"});
    }
  }
}

/// unordered-iteration: iterating a std::unordered_{map,set} walks hash
/// order — a function of libstdc++ internals and insertion history, not
/// of the master seed. Anything such a loop feeds (scan output, model
/// state, files) is silently non-reproducible across toolchains. The
/// index records every identifier declared with an unordered type in
/// the file or its direct project includes; range-fors and
/// begin()/end() over those identifiers are flagged. Provably
/// order-insensitive loops (fully re-sorted with a total order, or
/// commutative accumulation) carry an inline
/// `v6lint: allow(<this rule>)` with a justification.
void check_unordered_iteration(const RuleContext& ctx,
                               std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;

  std::set<std::string> names(fi.unordered_names.begin(),
                              fi.unordered_names.end());
  if (ctx.project.files != nullptr) {
    for (const IncludeRef& inc : fi.includes) {
      const auto it = ctx.project.by_src_relative.find(inc.target);
      if (it == ctx.project.by_src_relative.end()) continue;
      const FileIndex& dep = (*ctx.project.files)[it->second];
      names.insert(dep.unordered_names.begin(), dep.unordered_names.end());
    }
  }
  if (names.empty()) return;

  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    std::set<std::string> hit;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kRangeFor);
         it != std::sregex_iterator(); ++it) {
      if (names.count((*it)[1].str())) hit.insert((*it)[1].str());
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kBeginCall);
         it != std::sregex_iterator(); ++it) {
      if (names.count((*it)[1].str())) hit.insert((*it)[1].str());
    }
    for (const std::string& name : hit) {
      out.push_back(
          {fi.file, i + 1, "unordered-iteration",
           "iteration over std::unordered_{map,set} '" + name +
               "' walks hash order, which is not a function of the master "
               "seed; materialize and sort, or justify with "
               "// v6lint: allow(unordered-iteration)"});
    }
  }
}

/// lock-discipline: mutexes in the library are held through RAII
/// guards (lock_guard/scoped_lock/unique_lock) so early returns and
/// exceptions cannot leak a held lock. Manual .lock()/.unlock() calls
/// are allowed only inside src/runtime/, whose thread primitives may
/// need to interleave a lock with a wait.
void check_lock_discipline(const RuleContext& ctx,
                           std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src || fi.module == "runtime") return;
  const std::vector<std::string>& stripped = fi.lx.code_lines;
  for (std::size_t i = 0; i < stripped.size(); ++i) {
    if (std::regex_search(stripped[i], kBareLock)) {
      out.push_back({fi.file, i + 1, "lock-discipline",
                     "bare lock()/unlock() outside src/runtime/; hold "
                     "mutexes through std::lock_guard/scoped_lock/"
                     "unique_lock so no path can leak a held lock"});
    }
  }
}

/// raw-socket: the library is a simulation — its network is simnet's
/// procedural model, and nothing in src/ talks to the host network
/// stack. The one exception is the admin endpoint (src/obs/admin/),
/// whose loopback HTTP server exists precisely to expose the
/// introspection plane (docs/OBSERVABILITY.md). Everywhere else in
/// src/, a socket-API include is a sign that real I/O is leaking into
/// the deterministic core. Scans the raw line text: angle includes are
/// blanked from the code view, so this reads string_lines.
void check_raw_socket(const RuleContext& ctx, std::vector<Violation>& out) {
  const FileIndex& fi = ctx.file;
  if (!fi.in_src) return;
  if (fi.generic.find("src/obs/admin/") != std::string::npos) return;
  const std::vector<std::string>& with_strings = fi.lx.string_lines;
  for (std::size_t i = 0; i < with_strings.size(); ++i) {
    if (std::regex_search(with_strings[i], kSocketInclude)) {
      out.push_back({fi.file, i + 1, "raw-socket",
                     "socket-API include outside src/obs/admin/; the "
                     "library's network is the simulation — real sockets "
                     "are confined to the admin endpoint "
                     "(docs/STATIC_ANALYSIS.md)"});
    }
  }
}

}  // namespace

void index_file(FileIndex& fi) {
  fi.is_header = fi.path.extension() == ".h";

  // Quoted includes: the target is a string literal, so read it from
  // the comments-stripped-only view.
  std::smatch m;
  for (std::size_t i = 0; i < fi.lx.string_lines.size(); ++i) {
    if (std::regex_search(fi.lx.string_lines[i], m, kQuotedInclude)) {
      fi.includes.push_back({i + 1, m[1].str()});
    }
  }

  // Identifiers declared with an unordered container type: find each
  // `unordered_map/set/multimap/multiset`, skip its balanced template
  // argument list, then accept `[const|*|&|&&]* identifier` followed by
  // a declarator context (`;`, `=`, `,`, `)`, `{`, `[`). Skips member
  // access like `m.begin()`, alias targets (`using X = ...;` ends in
  // `;` before an identifier), and return types (identifier followed
  // by `(`).
  const std::string& code = fi.lx.code;
  for (std::size_t pos = code.find("unordered_"); pos != std::string::npos;
       pos = code.find("unordered_", pos + 1)) {
    if (pos > 0 && ident_char(code[pos - 1])) continue;
    std::size_t after = pos + 10;
    bool known = false;
    for (const char* kind : {"multimap", "multiset", "map", "set"}) {
      const std::size_t len = std::string_view(kind).size();
      if (code.compare(after, len, kind) == 0 &&
          (after + len >= code.size() || !ident_char(code[after + len]))) {
        after += len;
        known = true;
        break;
      }
    }
    if (!known) continue;

    std::size_t i = after;
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    if (i >= code.size() || code[i] != '<') continue;
    int depth = 0;
    bool bad = false;
    for (; i < code.size(); ++i) {
      const char c = code[i];
      if (c == '<') ++depth;
      else if (c == '>') {
        if (--depth == 0) { ++i; break; }
      } else if (c == ';' || c == '{') {
        bad = true;  // ran off the declaration: not a type usage
        break;
      }
    }
    if (bad || depth != 0) continue;

    // Modifiers between the type and the declared name.
    while (i < code.size()) {
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
      if (code.compare(i, 5, "const") == 0 &&
          (i + 5 >= code.size() || !ident_char(code[i + 5]))) {
        i += 5;
      } else if (i < code.size() && (code[i] == '*' || code[i] == '&')) {
        ++i;
      } else {
        break;
      }
    }
    std::size_t name_begin = i;
    while (i < code.size() && ident_char(code[i])) ++i;
    if (i == name_begin) continue;
    const std::string name = code.substr(name_begin, i - name_begin);
    while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
      ++i;
    const char nextc = i < code.size() ? code[i] : '\0';
    if (nextc == ';' || nextc == '=' || nextc == ',' || nextc == ')' ||
        nextc == '{' || nextc == '[') {
      fi.unordered_names.push_back(name);
    }
  }
}

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = {
      {"deprecated-api", check_deprecated_api},
      {"nondeterminism", check_nondeterminism},
      {"pragma-once", check_pragma_once},
      {"telemetry-null-guard", check_telemetry_guard},
      {"no-sleep", check_no_sleep},
      {"metric-name", check_metric_name},
      {"raw-thread", check_raw_thread},
      {"hitlist-mutation", check_hitlist_mutation},
      {"materialized-span", check_materialized_span},
      {"layering", check_layering},
      {"unordered-iteration", check_unordered_iteration},
      {"lock-discipline", check_lock_discipline},
      {"raw-socket", check_raw_socket},
  };
  return kRules;
}

const std::vector<std::string>& all_rule_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Rule& r : all_rules()) names.emplace_back(r.name);
    names.emplace_back(kUnusedSuppressionRule);
    return names;
  }();
  return kNames;
}

}  // namespace v6lint
