// Contracts layer: precondition / postcondition / invariant checks for
// the core libraries.
//
// Compiled out by default — several of these sit on per-probe and
// per-nybble hot paths — and compiled in by defining V6_CONTRACTS (the
// CMake option of the same name, ON in the asan-ubsan and tsan presets).
// The sanitizer builds are where contracts earn their keep: a violated
// precondition aborts with file/line/expression *before* the undefined
// behavior it guards against (out-of-range shift, null dereference,
// out-of-bounds index) corrupts anything, which turns a sanitizer
// backtrace hunt into a one-line diagnosis.
//
// Macro vocabulary (all forms take an optional trailing message):
//   V6_REQUIRE(cond)    — caller-facing precondition on entry
//   V6_ENSURE(cond)     — postcondition on the value about to be returned
//   V6_INVARIANT(cond)  — internal consistency mid-function / per-class
//
// All three compile to `((void)0)` when V6_CONTRACTS is off, so
// conditions must be free of side effects. Conditions also must be
// satisfiable by every caller in the tree: a contract is a bug report
// generator, not input validation — parsers still return nullopt on bad
// input, and contracts only fire on programmer error.
//
// The observability layer (src/obs) checks its own invariants (span
// stack discipline, metric name validity) with V6_INVARIANT_MSG too.
#pragma once

#if defined(V6_CONTRACTS)

#include <cstdio>
#include <cstdlib>

namespace v6::check {

/// Prints one diagnostic line and aborts. Out-of-line-ish (it is inline
/// but cold) so the macro expansion at each use site stays small.
[[noreturn]] inline void contract_fail(const char* kind, const char* file,
                                       int line, const char* expr,
                                       const char* msg) {
  std::fprintf(stderr, "%s violated at %s:%d: %s%s%s\n", kind, file, line,
               expr, msg[0] != '\0' ? " — " : "", msg);
  std::abort();
}

}  // namespace v6::check

#define V6_CONTRACT_CHECK_(kind, cond, msg)                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::v6::check::contract_fail(kind, __FILE__, __LINE__, #cond, msg);  \
    }                                                                    \
  } while (0)

#define V6_REQUIRE(cond) V6_CONTRACT_CHECK_("precondition", cond, "")
#define V6_REQUIRE_MSG(cond, msg) V6_CONTRACT_CHECK_("precondition", cond, msg)
#define V6_ENSURE(cond) V6_CONTRACT_CHECK_("postcondition", cond, "")
#define V6_ENSURE_MSG(cond, msg) V6_CONTRACT_CHECK_("postcondition", cond, msg)
#define V6_INVARIANT(cond) V6_CONTRACT_CHECK_("invariant", cond, "")
#define V6_INVARIANT_MSG(cond, msg) V6_CONTRACT_CHECK_("invariant", cond, msg)

#else

#define V6_REQUIRE(cond) ((void)0)
#define V6_REQUIRE_MSG(cond, msg) ((void)0)
#define V6_ENSURE(cond) ((void)0)
#define V6_ENSURE_MSG(cond, msg) ((void)0)
#define V6_INVARIANT(cond) ((void)0)
#define V6_INVARIANT_MSG(cond, msg) ((void)0)

#endif
