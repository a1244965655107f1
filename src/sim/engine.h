// Deterministic discrete-event cluster simulator.
//
// This module replaces the paper's physical cluster (8 machines, 56 Gbps
// InfiniBand). Every cluster node ("rank") runs as a real OS thread executing
// real application code, but only one thread runs at a time: the engine hands
// a baton to the process whose virtual clock is smallest, or applies the
// earliest pending network event. Virtual time is integer nanoseconds, so the
// schedule — and therefore every experiment — is exactly reproducible.
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
// yield point at or after t (fail-stop). Kill hooks let higher layers mark
// the node's memory regions dead.

#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/process_killed.h"
#include "src/base/status.h"
#include "src/base/thread_annotations.h"
#include "src/base/time_units.h"

namespace malt {

class Engine;

enum class ProcState : uint8_t {
  kRunnable,  // wants the baton
  kRunning,   // owns the baton
  kBlocked,   // waiting on a predicate
  kDone,      // body returned
  kKilled,    // terminated by failure injection
};

// Handle passed to process bodies. All methods must be called from the owning
// process thread while it holds the baton (i.e. from inside the body).
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

  // Scheduler-owned state (guarded by Engine::mu_).
  ProcState state_ = ProcState::kRunnable;
  std::function<bool()> pred_;
  SimTime deadline_ = -1;  // -1: none
  bool timed_out_ = false;
  bool kill_pending_ = false;
  std::condition_variable_any cv_;
  std::thread thread_;
  std::function<void(Process&)> body_;
};

struct EngineStats {
  int64_t events_applied = 0;
  int64_t slices_run = 0;
  int64_t wakeups = 0;
};

class Engine {
 public:
  Engine();
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

  // Structured schedule capture for visualization. Enable before Run();
  // after Run(), WriteChromeTrace() emits a chrome://tracing-compatible JSON
  // file: one track per process with its compute slices, plus instant events
  // for applied network events. Virtual nanoseconds map to microseconds in
  // the trace (the viewer's native unit).
  void EnableScheduleCapture() { capture_enabled_ = true; }
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

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

  // Called from process threads (with mu_ held inside).
  void YieldFromProcess(Process& p, ProcState new_state);

  // Scheduler internals (mu_ held; the UniqueLock reference is what the
  // condition waits relock).
  void ApplyEvent(UniqueLock& lock, Event event) MALT_REQUIRES(mu_);
  void RunProcessSlice(UniqueLock& lock, Process& p) MALT_REQUIRES(mu_);
  void ReevaluateBlocked(SimTime wake_time) MALT_REQUIRES(mu_);
  void KillProcess(Process& p) MALT_REQUIRES(mu_);
  [[noreturn]] void ReportDeadlock();

  // Recursive: event callbacks (run with the lock held) may ScheduleEvent().
  struct Slice {
    int pid;
    SimTime begin;
    SimTime end;
  };

  // Recursive (see the Slice comment above): event callbacks run with the
  // lock held and may re-enter ScheduleEvent. The clang analysis does not
  // model reentrancy, so ScheduleEvent stays annotation-opaque (no REQUIRES)
  // and its inner acquisition is invisible to callers' lock sets.
  mutable RecursiveMutex mu_;
  std::condition_variable_any scheduler_cv_;
  // procs_ is append-only before Run(); Process's scheduler-owned fields are
  // protected by the baton-handoff protocol (one runnable thread at a time),
  // which the analysis cannot express — see DESIGN.md §9.
  std::vector<std::unique_ptr<Process>> procs_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_
      MALT_GUARDED_BY(mu_);
  uint64_t next_event_seq_ MALT_GUARDED_BY(mu_) = 0;
  std::vector<std::function<void(int)>> kill_hooks_;
  SimTime current_time_ = 0;
  bool running_ = false;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
  bool capture_enabled_ = false;
  std::vector<Slice> slices_;
  std::vector<SimTime> event_times_;
  EngineStats stats_;
};

}  // namespace malt

#endif  // SRC_SIM_ENGINE_H_
