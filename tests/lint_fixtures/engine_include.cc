// LINT-AS: src/dstorm/bad_engine_include.cc
// Fixture for tools/lint_malt_api.py --selftest: dstorm, VOL, the fault
// monitor, the apps and the baselines reach time, blocking and death only
// through Transport/RankCtx, never through the simulator engine. Not
// compiled.

#include "src/comm/transport.h"
#include "src/sim/engine.h"  // EXPECT-LINT(engine-include)
#  include "src/sim/engine.h"  // EXPECT-LINT(engine-include)
#include "src/base/process_killed.h"
