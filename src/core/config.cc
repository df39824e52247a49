#include "core/config.h"

namespace uolap::core {

std::string PrefetcherConfig::ToString() const {
  if (!AnyEnabled()) return "all-disabled";
  if (l2_streamer && l2_next_line && l1_streamer && l1_next_line) {
    return "all-enabled";
  }
  std::string out;
  auto add = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += "+";
    out += name;
  };
  add(l2_streamer, "L2-Str");
  add(l2_next_line, "L2-NL");
  add(l1_streamer, "L1-Str");
  add(l1_next_line, "L1-NL");
  return out;
}

MachineConfig MachineConfig::Broadwell() {
  MachineConfig m;
  m.name = "broadwell";
  m.freq_ghz = 2.4;
  m.sockets = 2;
  m.cores_per_socket = 14;

  m.l1i = CacheConfig{32 * 1024, 8, 16};
  m.l1d = CacheConfig{32 * 1024, 8, 16};
  m.l2 = CacheConfig{256 * 1024, 8, 26};
  m.l3 = CacheConfig{35ull * 1024 * 1024, 20, 160};

  m.exec.simd_width_bits = 256;  // AVX2; the paper notes no AVX-512 on BDW.

  m.bandwidth = BandwidthConfig{12.0, 7.0, 66.0, 60.0};
  return m;
}

MachineConfig MachineConfig::Skylake() {
  MachineConfig m;
  m.name = "skylake";
  m.freq_ghz = 2.4;
  m.sockets = 2;
  m.cores_per_socket = 14;

  m.l1i = CacheConfig{32 * 1024, 8, 14};
  m.l1d = CacheConfig{32 * 1024, 8, 14};
  // Significantly larger L2, smaller L3 (paper Section 2). The hardware
  // L3 is non-inclusive; the model fills every level inclusively for both
  // presets and never back-invalidates, so that policy is not modelled.
  m.l2 = CacheConfig{1024 * 1024, 16, 28};
  m.l3 = CacheConfig{16ull * 1024 * 1024, 11, 160};

  m.exec.simd_width_bits = 512;  // AVX-512: the reason the paper uses SKX.

  // Smaller per-core, larger per-socket sequential bandwidth; similar
  // random-access bandwidth (paper Section 2, Hardware).
  m.bandwidth = BandwidthConfig{10.0, 7.0, 87.0, 60.0};
  return m;
}

}  // namespace uolap::core
