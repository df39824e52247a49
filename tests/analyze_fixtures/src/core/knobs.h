// Fixture: CON-CONFIG-READ — a *Config field nothing names again, one
// that is only ever assigned, and fields that are read (by a member
// function, by bench/ code, through a template-typed member).
#ifndef UOLAP_CORE_KNOBS_H_
#define UOLAP_CORE_KNOBS_H_

#include <map>
#include <string>

namespace uolap::core {

struct WidgetConfig {
  int ways = 8;
  int unused_knob = 20;
  bool only_written = false;
  std::map<std::string, std::string> aliases;

  std::string ToString() const;
  int sets() const { return ways * 2; }
};

enum class WidgetPolicy { kOff, kOn };

}  // namespace uolap::core

#endif  // UOLAP_CORE_KNOBS_H_
