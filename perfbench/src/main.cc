// Entry point of the repository benchmark.
//
//   perfbench --workload sweep|scan|serve --seed N --seconds S --trace 0|1
//             [--commit ID] [--record PATH]
//
// Prints every metric by name with its unit, the outcome digest and the
// host fingerprint, then, as the last line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// With --record, also writes that record (plus fingerprint, digest and
// the informational figures) to PATH as JSON.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "workload.h"

namespace {

struct Args {
  perfbench::Options options;
  std::string commit = "unknown";
  std::string record;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload sweep|scan|serve --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--record PATH]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    usage(std::string(flag) + " needs a non-negative integer");
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "sweep" && value != "scan" && value != "serve") {
        usage("unknown workload '" + value + "'");
      }
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(value, "--seconds");
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      args.options.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.options.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      usage("unexpected argument '" + std::string(flag) + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + quoted(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string hex(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const perfbench::Options& options = args.options;

  perfbench::Result result;
  try {
    if (options.workload == "sweep") {
      result = perfbench::run_sweep(options);
    } else if (options.workload == "scan") {
      result = perfbench::run_scan(options);
    } else {
      result = perfbench::run_serve(options);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload
              << " failed: " << error.what() << "\n";
    return 1;
  }

  perfbench::Audit& audit = result.audit;
  for (perfbench::Metric& m : result.metrics) {
    audit.expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  const bool correct = audit.failed == 0 && audit.attempted > 0;
  const double failed_frac =
      audit.attempted == 0 ? 1.0
                           : static_cast<double>(audit.failed) /
                                 static_cast<double>(audit.attempted);

  const std::string fingerprint =
      "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + quoted(std::string("gcc ") + __VERSION__) +
      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"commit\": " + quoted(args.commit) +
      ", \"workload\": " + quoted(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + number(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0");

  std::cout << "perfbench {" << fingerprint << "}\n";
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "  metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  for (const perfbench::Metric& m : result.info) {
    std::cout << "  info   " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "  info   failed_frac = " << number(failed_frac) << " ("
            << audit.failed << " of " << audit.attempted << " checks)\n"
            << "  digest " << hex(result.digest) << "\n";
  for (const std::string& failure : audit.failures) {
    std::cout << "  FAILED " << failure << "\n";
  }

  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(audit.attempted) +
      ", \"failed\": " + std::to_string(audit.failed) +
      ", \"metrics\": " + metrics_json(result.metrics) + "}";

  if (!args.record.empty()) {
    std::ofstream out(args.record);
    out << "{" << fingerprint
        << ",\n \"digest\": " << quoted(hex(result.digest))
        << ",\n \"failed_frac\": " << number(failed_frac)
        << ",\n \"info\": " << metrics_json(result.info)
        << ",\n \"result\": " << line << "}\n";
    if (!out) std::cerr << "perfbench: cannot write " << args.record << "\n";
  }
  std::cout << line << std::endl;
  return 0;
}
