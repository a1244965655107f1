// RankCtx implementation for the simulator (the Fabric's execution context).
//
// Ranks are cooperative engine processes on virtual time: waiting is the
// engine's predicate re-evaluation, Advance() consumes modeled compute time,
// and a kill is delivered by the engine at the process's next yield point as
// ProcessKilled — the same exception ShmemRankCtx (src/shmem/rank_ctx.h)
// throws, so training code and RAII cleanup behave identically on both
// backends.

#ifndef SRC_SIMNET_RANK_CTX_H_
#define SRC_SIMNET_RANK_CTX_H_

#include <functional>

#include "src/comm/transport.h"
#include "src/sim/engine.h"

namespace malt {

class SimProcessCtx : public RankCtx {
 public:
  explicit SimProcessCtx(Process& proc) : proc_(proc) {}

  SimTime Now() const override { return proc_.now(); }
  void Advance(SimDuration dt) override { proc_.Advance(dt); }
  void Yield() override { proc_.Yield(); }
  void Wait(const std::function<bool()>& pred) override { proc_.WaitUntil(pred); }
  bool WaitOr(const std::function<bool()>& pred, SimTime deadline) override {
    return proc_.WaitUntilOr(pred, deadline);
  }
  [[noreturn]] void KillSelf() override {
    proc_.engine().ScheduleKill(proc_.pid(), proc_.now());
    proc_.Yield();  // the engine delivers the kill here (throws ProcessKilled)
    throw ProcessKilled{proc_.pid()};  // unreachable; satisfies [[noreturn]]
  }

 private:
  Process& proc_;
};

}  // namespace malt

#endif  // SRC_SIMNET_RANK_CTX_H_
