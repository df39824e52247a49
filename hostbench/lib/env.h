#ifndef UOLAP_HOSTBENCH_ENV_H_
#define UOLAP_HOSTBENCH_ENV_H_

#include <string>

namespace uolap::hostbench {

/// Where a result was measured. Printed with every result so two results
/// are only compared when they come from the same host and build.
struct EnvRecord {
  std::string source_rev;  ///< git rev, or a digest of src/ (run.py)
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool optimized = false;       ///< compiled with optimization (__OPTIMIZE__)
  std::string uolap_threads;    ///< UOLAP_THREADS as set ("" = unset)
  std::string reference_paths;  ///< UOLAP_REFERENCE_PATHS as set
  bool validate = false;        ///< model-invariant audit on by default
};

EnvRecord CaptureEnv(const std::string& source_rev);

/// Why this build or environment must not report host times ("" when it
/// may): an unoptimized build, reference kernels forced on, or the audit
/// layer running on every profiled run all measure a different program.
std::string RefusalReason(const EnvRecord& env);

/// One-line JSON object of every field.
std::string EnvJson(const EnvRecord& env);

}  // namespace uolap::hostbench

#endif  // UOLAP_HOSTBENCH_ENV_H_
