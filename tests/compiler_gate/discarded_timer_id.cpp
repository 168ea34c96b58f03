// Compiler-gate fixture: it discards the TimerId that Engine::schedule
// returns, so the build must reject it with -Werror=unused-result.  Only
// CompilerGate.DiscardedTimerIdIsAnError builds it (tests/CMakeLists.txt).
#include "sim/engine.hpp"

namespace rill::sim {

void discard_timer_id(Engine& engine) {
  engine.schedule(time::ms(1), [] {});
}

}  // namespace rill::sim
