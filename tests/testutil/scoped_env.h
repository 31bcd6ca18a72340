// ScopedEnv: sets an environment variable for one scope, e.g. V6_JOBS
// to pin a test's thread count, and restores the old value after.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace v6::testutil {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace v6::testutil
