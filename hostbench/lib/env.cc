#include "env.h"

#include <cstdlib>
#include <fstream>
#include <thread>

#include "audit/validation.h"
#include "obs/json_writer.h"

namespace uolap::hostbench {
namespace {

std::string EnvOrEmpty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

EnvRecord CaptureEnv(const std::string& source_rev) {
  EnvRecord e;
  e.source_rev = source_rev;
  e.nproc = std::thread::hardware_concurrency();
  e.cpu_model = CpuModel();
  e.compiler = std::string("gcc-compatible ") + __VERSION__;
  e.build_type = HOSTBENCH_BUILD_TYPE;
  e.cxx_flags = HOSTBENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
  e.optimized = true;
#endif
  e.uolap_threads = EnvOrEmpty("UOLAP_THREADS");
  e.reference_paths = EnvOrEmpty("UOLAP_REFERENCE_PATHS");
  e.validate = audit::ValidationEnabled();
  return e;
}

std::string RefusalReason(const EnvRecord& env) {
  if (!env.optimized) return "the build is not optimized";
  if (!env.reference_paths.empty() && env.reference_paths != "0") {
    return "UOLAP_REFERENCE_PATHS is on (reference kernels are slower)";
  }
  if (env.validate) return "UOLAP_VALIDATE is on (audit runs on every op)";
  return "";
}

std::string EnvJson(const EnvRecord& env) {
  obs::JsonWriter w(/*indent=*/0);
  w.BeginObject();
  w.KV("source_rev", env.source_rev);
  w.KV("nproc", static_cast<uint64_t>(env.nproc));
  w.KV("cpu_model", env.cpu_model);
  w.KV("compiler", env.compiler);
  w.KV("build_type", env.build_type);
  w.KV("cxx_flags", env.cxx_flags);
  w.KV("optimized", env.optimized);
  w.KV("UOLAP_THREADS", env.uolap_threads);
  w.KV("UOLAP_REFERENCE_PATHS", env.reference_paths);
  w.KV("UOLAP_VALIDATE", env.validate);
  w.EndObject();
  return w.TakeString();
}

}  // namespace uolap::hostbench
