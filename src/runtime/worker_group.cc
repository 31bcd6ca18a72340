#include "runtime/worker_group.h"

#include <cstdlib>

namespace v6::runtime {

unsigned default_jobs() {
  if (const char* env = std::getenv("V6_JOBS"); env != nullptr) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace v6::runtime
