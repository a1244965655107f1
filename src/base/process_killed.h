// Fail-stop unwinding: the exception a rank's stack unwinds with when the rank
// is killed (RankCtx::KillSelf, src/comm/transport.h). The simulator engine
// throws it at the victim's next yield point and catches it at the top of the
// victim's fiber; the shmem runtime throws it from ShmemRankCtx's
// cancellation points and catches it at the top of the rank thread. Training
// code may catch and rethrow it (e.g. RAII cleanup, FaultMonitor::GuardLocal)
// but must not swallow it.

#ifndef SRC_BASE_PROCESS_KILLED_H_
#define SRC_BASE_PROCESS_KILLED_H_

namespace malt {

struct ProcessKilled {
  int pid;
};

}  // namespace malt

#endif  // SRC_BASE_PROCESS_KILLED_H_
