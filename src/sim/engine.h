// Deterministic discrete-event cluster simulator.
//
// This module replaces the paper's physical cluster (8 machines, 56 Gbps
// InfiniBand). Every cluster node ("rank") runs real application code on its
// own fiber (a ucontext with an mmap'd stack). All fibers run on the one OS
// thread that calls Run(): the engine switches to the process whose virtual
// clock is smallest, or applies the earliest pending network event, and the
// process switches back at its next yield point. Nothing runs concurrently,
// so simulator state needs no locks. Virtual time is integer nanoseconds, so
// the schedule — and therefore every experiment — is exactly reproducible.
//
// Processes interact with virtual time through three calls:
//   Advance(dt)      — consume dt of modeled compute time, then yield.
//   WaitUntil(pred)  — block until pred() holds (re-checked after every
//                      event/slice); optional deadline.
//   now()            — current virtual clock of this process.
//
// Network transports (src/simnet) schedule events with ScheduleEvent(); the
// engine applies them in (time, sequence) order, which makes one-sided RDMA
// writes visible at exactly their arrival time.
//
// Failure injection: ScheduleKill(pid, t) terminates a process at its first
// yield point at or after t (fail-stop): ProcessKilled unwinds the victim's
// own fiber. Kill hooks let higher layers mark the node's memory regions dead.
//
// Rule: a process must not yield (Advance, Yield, Wait*, SleepUntil) inside a
// catch handler. The C++ runtime keeps the stack of caught exceptions per OS
// thread, so every fiber shares it; a handler that yields could have another
// fiber's exception popped from under it. Record what the handler needs and
// act after it closes (FaultMonitor::GuardLocal does). The yield path checks
// this rule.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/base/process_killed.h"
#include "src/base/time_units.h"

namespace malt {

class Engine;

enum class ProcState : uint8_t {
  kRunnable,  // wants to run
  kRunning,   // its fiber is the one executing
  kBlocked,   // waiting on a predicate
  kDone,      // body returned
  kKilled,    // terminated by failure injection
};

// Handle passed to process bodies. All methods must be called from the
// process's own fiber (i.e. from inside the body), never from a catch handler.
class Process {
 public:
  int pid() const { return pid_; }
  const std::string& name() const { return name_; }
  SimTime now() const { return clock_; }
  Engine& engine() const { return *engine_; }

  // Consumes `dt` of virtual compute time, then yields to the scheduler.
  void Advance(SimDuration dt);

  // Yields without consuming time (lets earlier events/processes run).
  void Yield();

  // Blocks until pred() returns true. The predicate is evaluated by the
  // scheduler after every applied event and every process slice; it must be
  // a pure function of simulator-protected state.
  void WaitUntil(std::function<bool()> pred);

  // Like WaitUntil but wakes at `deadline` at the latest.
  // Returns true if the predicate held, false on timeout.
  bool WaitUntilOr(std::function<bool()> pred, SimTime deadline);

  // Blocks until the given virtual time.
  void SleepUntil(SimTime t);

 private:
  friend class Engine;
  Process() = default;

  void CheckKilled();

  Engine* engine_ = nullptr;
  int pid_ = -1;
  std::string name_;
  SimTime clock_ = 0;

  // Scheduler-owned state.
  ProcState state_ = ProcState::kRunnable;
  std::function<bool()> pred_;
  SimTime deadline_ = -1;  // -1: none
  bool timed_out_ = false;
  bool kill_pending_ = false;
  std::function<void(Process&)> body_;

  // The fiber: saved context and stack mapping (guard page included; null
  // before Run() and once the body has finished).
  ucontext_t context_{};
  void* stack_map_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
};

struct EngineStats {
  int64_t events_applied = 0;
  int64_t slices_run = 0;
  int64_t wakeups = 0;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers a process. Must be called before Run(). Returns the pid
  // (dense, starting at 0).
  int AddProcess(std::string name, std::function<void(Process&)> body);

  // Schedules fail-stop termination of `pid` at virtual time `when`.
  void ScheduleKill(int pid, SimTime when);

  // Schedules `fn` to run at virtual time `when` with src/dst attribution
  // (used by the fabric; ties broken by insertion sequence). May be called
  // before Run() or from inside event/process context.
  void ScheduleEvent(SimTime when, std::function<void()> fn);

  // Registers a hook invoked (under the scheduler) when a process is killed.
  void AddKillHook(std::function<void(int pid)> hook);

  // Runs until every process is done or killed. Aborts with a diagnostic on
  // deadlock (all processes blocked without deadlines and no pending events).
  void Run();

  // Virtual time of the most recently dispatched item.
  SimTime now() const { return current_time_; }

  int process_count() const { return static_cast<int>(procs_.size()); }
  bool alive(int pid) const;
  ProcState state(int pid) const;
  const EngineStats& stats() const { return stats_; }

  // Test hook: returns a deterministic hash-friendly trace of dispatch
  // decisions when enabled before Run().
  void EnableTrace() { trace_enabled_ = true; }
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  friend class Process;

  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      return when != other.when ? when > other.when : seq > other.seq;
    }
  };

  // Fiber plumbing: the entry point, one switch in each direction, and the
  // stack's lifetime.
  static void FiberEntry(unsigned int ptr_hi, unsigned int ptr_lo);
  [[noreturn]] void RunFiber(Process& p);
  void SwitchToProcess(Process& p);
  void SwitchToScheduler(Process& p);
  void StartFiber(Process& p);
  void ReleaseFiber(Process& p);

  // Called from a process's fiber.
  void YieldFromProcess(Process& p, ProcState new_state);

  // Scheduler internals.
  void ApplyEvent(Event event);
  void RunProcessSlice(Process& p);
  void ReevaluateBlocked(SimTime wake_time);
  void KillProcess(Process& p);
  [[noreturn]] void ReportDeadlock();

  std::vector<std::unique_ptr<Process>> procs_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t next_event_seq_ = 0;
  std::vector<std::function<void(int)>> kill_hooks_;
  SimTime current_time_ = 0;
  bool running_ = false;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
  // The Run() caller's context, resumed whenever a process yields.
  ucontext_t scheduler_context_{};
  void* scheduler_fake_stack_ = nullptr;
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  void* scheduler_tsan_fiber_ = nullptr;
  EngineStats stats_;
};

}  // namespace malt

#endif  // SRC_SIM_ENGINE_H_
