// Fixture: CON-CONFIG-READ — an assignment is a write, not a read; a
// member access on the right-hand side is a read.
#include "core/knobs.h"

size_t Configure(uolap::core::WidgetConfig& c) {
  c.only_written = true;
  return c.aliases.size();
}
